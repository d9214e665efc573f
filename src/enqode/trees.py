"""Classical binary-tree preprocessing for amplitude-family loaders.

A state-decomposition tree stores partial norms bottom-up: leaves are the
moduli of the input amplitudes and each parent is the root-sum-square of
its children.  Walking it top-down yields the angle tree whose entries
drive the RY multiplexers of the loaders.  Trees are real-valued; phases
of complex inputs travel separately and are imprinted by the loader's
final diagonal pass.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import EncodingError


class _Levels:
    """``n_levels`` and ``to_json`` of a tree stored as ``levels``, one
    array per level, root level first."""

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def to_json(self) -> str:
        return json.dumps([lvl.tolist() for lvl in self.levels])


@dataclass(frozen=True)
class StateDecompositionTree(_Levels):
    """Partial norms per level; ``levels[0]`` is the root, the last level
    the leaf moduli.  ``parent**2 == left**2 + right**2`` throughout."""

    levels: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class AngleTree(_Levels):
    """RY angles per level; level ``k`` has ``2**k`` entries in [0, pi].

    Convention: ``RY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>``, so a
    node's angle satisfies ``cos(theta/2) = left/parent`` and
    ``sin(theta/2) = right/parent``.  Zero-weight parents get angle 0.
    """

    levels: tuple[np.ndarray, ...]


def build_state_tree(values) -> StateDecompositionTree:
    """Bottom-up norm tree of a nonnegative real array of power-of-two size.

    Touches each node once, O(N) total work.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1 or arr.size & (arr.size - 1):
        raise EncodingError(f"leaf count {arr.size} is not a power of two")
    if np.any(arr < 0):
        raise EncodingError("state tree admits nonnegative moduli only")
    levels = [arr.copy()]
    while levels[-1].size > 1:
        prev = levels[-1]
        levels.append(np.sqrt(prev[0::2] ** 2 + prev[1::2] ** 2))
    levels.reverse()
    for lvl in levels:
        lvl.setflags(write=False)
    return StateDecompositionTree(tuple(levels))


def tree_to_angles(tree: StateDecompositionTree) -> AngleTree:
    """Top-down rotation angles from a state-decomposition tree."""
    out = []
    for k in range(tree.n_levels - 1):
        parents = tree.levels[k]
        children = tree.levels[k + 1]
        left, right = children[0::2], children[1::2]
        angles = np.zeros_like(parents)
        nz = parents > 0
        # atan2 keeps theta in [0, pi] for nonnegative children and is
        # stable when one child norm vanishes.
        angles[nz] = 2.0 * np.arctan2(right[nz], left[nz])
        angles.setflags(write=False)
        out.append(angles)
    return AngleTree(tuple(out))


def reconstruct_leaves(angles: AngleTree) -> np.ndarray:
    """Descend the angle tree multiplying cos/sin factors; inverts
    ``tree_to_angles(build_state_tree(.))`` on normalized input."""
    leaves = np.array([1.0])
    for lvl in angles.levels:
        cos, sin = np.cos(lvl / 2.0), np.sin(lvl / 2.0)
        nxt = np.empty(2 * leaves.size)
        nxt[0::2] = leaves * cos
        nxt[1::2] = leaves * sin
        leaves = nxt
    return leaves
