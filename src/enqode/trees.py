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
from functools import cached_property

import numpy as np

from .errors import EncodingError


class _Levels:
    """A binary tree stored in heap order in one read-only array ``heap``:
    node i has children 2i+1 and 2i+2, so level k is the view
    ``heap[2**k - 1 : 2**(k+1) - 1]``, root level first."""

    @property
    def n_levels(self) -> int:
        return self.heap.size.bit_length()

    @cached_property
    def levels(self) -> tuple[np.ndarray, ...]:
        """Each level as a read-only view of ``heap``, root level first."""
        return tuple(self.heap[(1 << k) - 1 : (2 << k) - 1] for k in range(self.n_levels))

    def to_json(self) -> str:
        return json.dumps([lvl.tolist() for lvl in self.levels])


@dataclass(frozen=True)
class StateDecompositionTree(_Levels):
    """Partial norms of ``2N - 1`` nodes for N leaves; ``levels[0]`` is the
    root, the last level the leaf moduli.  ``parent**2 == left**2 +
    right**2`` throughout."""

    heap: np.ndarray


@dataclass(frozen=True)
class AngleTree(_Levels):
    """RY angles of ``N - 1`` nodes for N leaves; level ``k`` has ``2**k``
    entries in [0, pi].

    Convention: ``RY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>``, so a
    node's angle satisfies ``cos(theta/2) = left/parent`` and
    ``sin(theta/2) = right/parent``.  Zero-weight parents get angle 0.
    """

    heap: np.ndarray


def build_state_tree(values) -> StateDecompositionTree:
    """Bottom-up norm tree of a nonnegative real array of power-of-two size.

    Every level is written into one heap array, each parent level from the
    squares of the level below it: O(N) total work.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1 or arr.size & (arr.size - 1):
        raise EncodingError(f"leaf count {arr.size} is not a power of two")
    if np.any(arr < 0):
        raise EncodingError("state tree admits nonnegative moduli only")
    heap = np.empty(2 * arr.size - 1)
    heap[arr.size - 1 :] = arr
    hi = heap.size
    while hi > 1:  # the level in heap[lo:hi], its parents in heap[lo // 2 : lo]
        lo = hi // 2
        squares = np.square(heap[lo:hi])
        parents = heap[lo // 2 : lo]
        np.add(squares[0::2], squares[1::2], out=parents)
        np.sqrt(parents, out=parents)
        hi = lo
    heap.setflags(write=False)
    return StateDecompositionTree(heap)


def tree_to_angles(tree: StateDecompositionTree) -> AngleTree:
    """Top-down rotation angles from a state-decomposition tree, every
    node's in one pass: node i's from its children 2i+1 and 2i+2."""
    heap = tree.heap
    parents = heap[: heap.size // 2]
    angles = np.zeros(parents.size)
    # atan2 keeps theta in [0, pi] for nonnegative children and is stable
    # when one child norm vanishes.
    np.arctan2(heap[2::2], heap[1::2], out=angles, where=parents > 0)
    angles *= 2.0
    angles.setflags(write=False)
    return AngleTree(angles)


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
