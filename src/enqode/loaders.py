"""Circuit builders that realize each encoding from classical data.

Every loader returns its circuit, with the data register on qubits
``0..n-1`` (``registers["data"]``) and any ancillas above it
(``registers["ancilla"]``), and the number of classical operations spent
preparing it.  The circuit's ``n_qubits``, ``depth`` and ``cnot_count``
measure the width/depth/CNOT trade-offs of the different encodings.

Amplitude-family loaders build the angle tree (``trees``) in heap order
and declare its sequential stages as one ``sim.Pyramid`` block: its flat
expansion (``Circuit.gates``) is one native multiplexed rotation
(``sim.multiplexed_ry``) per tree level.  Met before any qubit is touched,
the simulator plans it as the state it prepares, made from one
``cos``/``sin`` pass over the whole tree and written over its buffer.
For complex input a diagonal phase pass follows, declared as one
``sim.Diagonal`` block: the simulator runs it as one multiply by the
phases, and its flat expansion is one multiplexed RZ per qubit, written as
a multiplexed RY between ``H, S`` and ``S^dag, H`` (RZ = H S^dag RY S H),
so a complex load of n qubits still holds 2n multiplexers.  Depth and
CNOT count describe the lowered circuit (``sim.Circuit.lowered``), in
which each multiplexer is the standard Gray-code walk of RY + CNOT gates,
so ``cnot_count`` stays meaningful (a full multiplexer over k controls
costs exactly 2^k CNOTs); ``sim.Circuit`` counts them without building
that circuit.  Controlled swaps are permutation gates, which are not
lowered and count no CNOTs.  The phase pass fixes each phase up to one
global phase (the mean phase), which this package never compares.

Each loader reads its input through ``encodings.check``, which applies the
format's domain rules (ranges, normalization, duplicates) and returns the
value ``reference_state`` builds from; the loader builds from that value
and keeps only its own shape rules.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encodings as enc
from . import sim
from .errors import CapacityError, EncodingError
from .sim import Circuit, Gate
from .tolerances import PHASE_ATOL
from .trees import AngleTree, build_state_tree, tree_to_angles

MAX_DC_QUBITS = 5  # divide-and-conquer ancillas grow as 2^n


@dataclass(frozen=True)
class LoaderOutput:
    """A loader's circuit and the classical operations (tree nodes and
    angles) spent building it."""

    circuit: Circuit
    preprocessing_ops: int


def _output(gates: list[Gate | sim.Pyramid | sim.Diagonal], n: int, width: int | None = None, preprocessing: int = 0) -> LoaderOutput:
    """A loader's output: the data on qubits 0..n-1 and, when a ``width``
    is given, an ancilla register on qubits n..width-1."""
    registers = {"data": tuple(range(n))}
    if width is not None:
        registers["ancilla"] = tuple(range(n, width))
    return LoaderOutput(Circuit(width or n, gates, registers), preprocessing)


# --------------------------------------------------------------------------
# Diagonal phase pass
# --------------------------------------------------------------------------


def _phase_pass(gates: list[Gate | sim.Pyramid | sim.Diagonal], a: np.ndarray, n: int) -> int:
    """Append the diagonal phase pass for ``a`` on qubits ``0..n-1``, one
    ``sim.Diagonal`` of its phases, unless every phase is within
    ``PHASE_ATOL`` of 0.  Returns the number of classical angle
    computations its expansion performs: one per multiplexed angle,
    ``2**n - 1``."""
    omega = np.angle(a)
    if np.any(np.abs(omega) > PHASE_ATOL):
        gates.append(sim.Diagonal(omega, tuple(range(n))))
        return (1 << n) - 1
    return 0


# --------------------------------------------------------------------------
# Point-wise loaders
# --------------------------------------------------------------------------


def load_basis(x: int, m: int) -> LoaderOutput:
    """X gates on the set bits of ``x``; depth at most 1."""
    x = enc.check(enc.Basis(m), x)
    gates = [sim.x(q) for q in range(m) if (x >> q) & 1]
    return _output(gates, m)


def load_angle(thetas) -> LoaderOutput:
    """One RY(2*theta) per qubit; depth 1."""
    thetas = enc.check(enc.Angle(enc.value_count(thetas)), thetas)
    gates = [sim.ry(2.0 * t, q) for q, t in enumerate(thetas)]
    return _output(gates, thetas.size)


def load_fourier(x: int, m: int) -> LoaderOutput:
    """H then a phase gate per qubit; qubit k gets the binary fraction of
    the trailing ``m - k`` bits of ``x``.  Depth 2."""
    x = enc.check(enc.Fourier(m), x)
    gates = []
    for k in range(m):
        span = 1 << (m - k)
        gates.append(sim.h(k))
        gates.append(sim.p(2.0 * np.pi * (x % span) / span, k))
    return _output(gates, m)


# --------------------------------------------------------------------------
# Amplitude-family loaders
# --------------------------------------------------------------------------


def _amplitude_input(a) -> tuple[np.ndarray, int, AngleTree, int]:
    """Validate an amplitude vector and build its angle tree.

    Returns the vector as complex128, its qubit count ``n``, the angle tree
    of its moduli and the classical operations spent on the tree: one per
    node of each tree.  More than ``sim.MAX_QUBITS`` qubits raise
    ``CapacityError`` before any tree is made.
    """
    size = enc.value_count(a)
    if size < 2 or size & (size - 1):
        raise EncodingError(f"amplitude count {size} is not a power of two (>= 2)")
    n = size.bit_length() - 1
    if n > sim.MAX_QUBITS:
        raise CapacityError(f"{size} amplitudes need {n} qubits, above the cap of {sim.MAX_QUBITS}")
    a = enc.check(enc.Amplitude(n), a)
    angle_tree = tree_to_angles(build_state_tree(np.abs(a)))
    return a, n, angle_tree, angle_tree.heap.size + (2 * a.size - 1)


def load_amplitude(a) -> LoaderOutput:
    """The angle tree's multiplexed-RY pyramid on qubits ``0..n-1``, one
    ``sim.Pyramid`` whose stage k rotates qubit n-1-k multiplexed over the
    qubits above it, then a diagonal phase pass for complex inputs.  CNOT
    count grows as O(2^n)."""
    a, n, angle_tree, preprocessing = _amplitude_input(a)
    gates: list[Gate | sim.Pyramid | sim.Diagonal] = [sim.Pyramid(angle_tree.heap, tuple(range(n)))]
    preprocessing += _phase_pass(gates, a, n)
    return _output(gates, n, preprocessing=preprocessing)


def load_equally_weighted(xs, m: int) -> LoaderOutput:
    """Uniform superposition over a set of basis states.

    The full set is a plain H layer; a singleton reduces to a basis load;
    anything else goes through the amplitude loader on the normalized
    indicator vector (correctness over the swap-network asymptotics),
    which raises ``CapacityError`` above ``sim.MAX_QUBITS`` before the
    vector is made.
    """
    xs = sorted(enc.check(enc.EquallyWeighted(m), xs).tolist())
    if len(xs) == 1 << m:
        gates = [sim.h(q) for q in range(m)]
        return _output(gates, m)
    if len(xs) == 1:
        return load_basis(xs[0], m)
    if m > sim.MAX_QUBITS:
        raise CapacityError(f"{len(xs)} of {1 << m} states load as {m} amplitude qubits, above the cap of {sim.MAX_QUBITS}")
    indicator = np.zeros(1 << m)
    indicator[xs] = 1.0 / np.sqrt(len(xs))
    return load_amplitude(indicator)


def _forest_qubit(n: int, s: int, level: int, pos: int) -> int:
    """Ancilla qubit hosting tree node (level, pos) of the forest of the
    angle tree's levels s..n-1; heap order, after the n data qubits."""
    return n + (1 << level) - (1 << s) + pos


def _emit_forest(gates: list[Gate], angle_levels, n: int, s: int) -> None:
    """Fan out angle-tree levels s..n-1 as one RY per node on its
    ``_forest_qubit``, then combine bottom-up: node (l, p) routes its
    chosen child's canonical path onto the left-child positions by
    controlled swaps."""
    for k in range(s, n):
        for pos, theta in enumerate(angle_levels[k]):
            gates.append(sim.ry(float(theta), _forest_qubit(n, s, k, pos)))
    for level in range(n - 2, s - 1, -1):
        for pos in range(1 << level):
            control = _forest_qubit(n, s, level, pos)
            for d in range(n - 1 - level):
                left = _forest_qubit(n, s, level + 1 + d, (2 * pos) << d)
                right = _forest_qubit(n, s, level + 1 + d, (2 * pos + 1) << d)
                gates.append(sim.cswap(control, left, right))


def load_divide_conquer(a) -> LoaderOutput:
    """Binary-tree fan-out: one RY per tree node in a single layer, then a
    bottom-up controlled-swap combine that routes the selected path onto
    the canonical (leftmost) positions, finally CNOT-copied to the data
    register.  Width n + 2^n, depth O(n^2).
    """
    a, n, angle_tree, preprocessing = _amplitude_input(a)
    if n > MAX_DC_QUBITS:
        raise CapacityError(f"divide-and-conquer needs {n + (1 << n)} qubits; n capped at {MAX_DC_QUBITS}")
    width = n + (1 << n)

    gates: list[Gate | sim.Diagonal] = []
    _emit_forest(gates, angle_tree.levels, n, 0)
    for t in range(n):
        gates.append(sim.cnot(_forest_qubit(n, 0, t, 0), n - 1 - t))
    preprocessing += _phase_pass(gates, a, n)
    return _output(gates, n, width, preprocessing)


def load_bidirectional(a, s: int) -> LoaderOutput:
    """Split-level hybrid: angle-tree levels below ``s`` run sequentially
    on the data register, as one ``sim.Pyramid`` of those levels on its top
    s qubits, the rest as a parallel forest of 2^s subtrees
    combined divide-and-conquer style and routed onto the data register by
    top-index-controlled swaps.  Width n + 2^n - 2^s, so s = n is exactly
    the plain amplitude loader and s = 1 has divide-and-conquer shape.
    """
    a, n, angle_tree, preprocessing = _amplitude_input(a)
    s = enc.Bidirectional(n, s).s
    if n > MAX_DC_QUBITS:
        raise CapacityError(f"bidirectional needs up to {n + (1 << n)} qubits; n capped at {MAX_DC_QUBITS}")
    width = n + (1 << n) - (1 << s)

    stages = sim.Pyramid(angle_tree.heap[: (1 << s) - 1], tuple(range(n - s, n)))
    gates: list[Gate | sim.Pyramid | sim.Diagonal] = [stages]
    _emit_forest(gates, angle_tree.levels, n, s)
    # route the canonical path of forest root p onto the low data qubits,
    # conditioned on the top register holding p
    top = range(n - s, n)
    for p in range(1 << s):
        for d in range(n - s):
            gates.append(sim.controlled_swap(top, p, _forest_qubit(n, s, s + d, p << d), n - 1 - s - d))
    preprocessing += _phase_pass(gates, a, n)
    return _output(gates, n, width, preprocessing)


# --------------------------------------------------------------------------
# Simulated qRAM
# --------------------------------------------------------------------------


def qram_oracle(xs, value_qubits: int) -> Circuit:
    """Query-access oracle |i>|y> -> |i>|y + x_i mod 2^v>, acting on every
    address in quantum parallel; a single permutation gate accounted as one
    oracle query.  A one-entry table needs no index qubits.  Raises
    ``CapacityError``, before the table is made, when the index and value
    qubits together are more than ``sim.MAX_QUBITS``."""
    d = enc.QRam((enc.value_count(xs) - 1).bit_length(), value_qubits)
    width = enc.register_width(d)
    if width > sim.MAX_QUBITS:
        raise CapacityError(f"a qram oracle needs {width} qubits, above the cap of {sim.MAX_QUBITS}")
    n_idx, xs = d.index_qubits, enc.check(d, xs).tolist()
    table = []
    for local in range(1 << width):
        i = local & ((1 << n_idx) - 1)
        y = local >> n_idx
        table.append(i | (((y + xs[i]) % (1 << value_qubits)) << n_idx))
    gate = sim.permutation(table, range(width))
    return Circuit(
        width,
        [gate],
        {"index": tuple(range(n_idx)), "value": tuple(range(n_idx, width))},
        query_count=1,
    )
