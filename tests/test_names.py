"""Every private name that the docstrings and comments of the package and
of its tests cite exists in their code.

A docstring or comment cites a name as ````_name```` or a call of it
(````_name(...)````).  Each such name must be an identifier, an attribute
or a string constant (not a docstring) of some module of ``src/enqode`` or
``tests``, read with ``ast``, so text that outlives the code it describes
fails here.  And every module-level import of ``src/enqode`` is read
in its module, or marked ``# noqa``, so an import that the code no longer
needs fails here too.
"""
import ast
import io
import re
import tokenize
from pathlib import Path

import enqode

MODULES = sorted(Path(enqode.__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
CITED = re.compile(r"(?<!`)``(_\w+)")  # a name, or a call of it; ````_name```` shows the form


def _docstrings(tree: ast.AST) -> list[ast.Constant]:
    """Every string that stands alone as a statement: module, class and
    function docstrings, and those written after an assignment."""
    return [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    ]


def _names(tree: ast.AST, docstrings: set[int]) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[-1])
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            names.update(re.findall(r"\w+", node.value))
    return names


def test_cited_private_names_exist():
    names, cited = set(), []
    for path in MODULES:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        docstrings = _docstrings(tree)
        names |= _names(tree, set(map(id, docstrings)))
        texts = [d.value for d in docstrings]
        texts += [t.string for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type == tokenize.COMMENT]
        cited += [(path.name, name) for text in texts for name in CITED.findall(text)]
    assert cited  # the pattern finds what the package and its tests cite
    assert [(module, name) for module, name in cited if name not in names] == []


def test_module_imports_are_read():
    """Every module-level import of ``src/enqode`` is read in its module,
    or its statement carries ``# noqa``: a name kept there for other code
    to reach."""
    unread = []
    for path in sorted(Path(enqode.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree, lines = ast.parse(source), source.splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            unread += [(path.name, name) for name in bound if name not in read]
    assert unread == []
