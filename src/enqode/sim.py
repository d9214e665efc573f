"""Dense state-vector simulator.

Conventions used throughout the package:

* Qubit 0 is the least-significant bit of a basis-state integer, so the
  amplitude of ``|x>`` lives at array index ``x``.  Printed kets such as
  ``|x2 x1 x0>`` are a display convention only.
* A ``StateVector`` holds a read-only complex128 array of length
  ``2**n_qubits``.  ``apply_circuit`` copies it once into a buffer it owns,
  ``apply_gate`` updates that buffer in place, and the resulting state
  takes the buffer over, read-only, without another copy.
* A gate's action is written in one place.  Every ``(*controls, target)``
  kind is defined by ``gate_blocks``, one 2x2 target unitary per control
  pattern, and ``gate_matrix`` assembles its dense matrix from them.  SWAP
  and PERMUTATION are index maps.
* The kernel reads a gate's blocks once per width into a plan kept on the
  gate.  It views the buffer with one length-2 axis per gate qubit and one
  axis for each run of qubits between them.  A gate with one non-identity
  block updates that block's target-0/target-1 halves by the block's shape
  (scale, swap or dense 2x2).  A multiplexer updates all of its blocks in
  one broadcast pass, or one block at a time once blocks are large
  (``_BLOCK_LOOP_MIN``).  Updates on halves larger than ``_SLAB``
  amplitudes are cut, in the plan, into slabs along a gap axis of the
  view, so the temporaries of each 2x2 update stay in cache on wide
  states; the arithmetic per amplitude is the same, so results are bit
  for bit those of one whole-half pass.  SWAP and PERMUTATION copy only
  the amplitudes they move.
* Builders may emit the native multiplexer ``mry``.  ``Circuit.lowered``
  rewrites each one as its Gray-code walk of RY and CNOT gates
  (``gray_walk``).  ``Circuit.cnot_count`` and ``Circuit.depth`` describe
  that lowered circuit, counted off the walk's control positions without
  building it, so resource reports count CNOTs.
* A state computes ``|amplitudes|**2`` once, on first use
  (``StateVector.probabilities``), and every marginal, draw and decode of
  it reads that array.  ``marginal_probabilities`` sums it over the gap
  axes of the register's ``_view_shape`` view.  ``sample_shots`` and
  ``sample_counts`` share one seeded draw of basis states; the counts
  come from it without a record per shot.
* All randomness goes through numpy's PCG64 generator seeded explicitly, so
  every stochastic operation is bit-reproducible from its seed.

The hard cap of 24 qubits keeps a state below 256 MB, and the cap of 12
qubits on ``build_unitary`` keeps its matrix to the same budget.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import CapacityError, CircuitError
from .tolerances import ATOL_DECODE, NORM_ATOL

MAX_QUBITS = 24
MAX_UNITARY_QUBITS = 12

# Gate kinds.  Controlled kinds list the control(s) first in ``qubits``.
X = "x"
H = "h"
RY = "ry"
PHASE = "p"
CNOT = "cnot"
CP = "cp"
SWAP = "swap"
CRY = "cry"
MULTIPLEXED_RY = "mry"
PERMUTATION = "perm"

_SQRT1_2 = 1.0 / np.sqrt(2.0)
_IDENTITY = np.eye(2, dtype=np.complex128)
_SWAP_TABLE = (0, 2, 1, 3)  # local bits 0 <-> 1
# Block halves of at least this many amplitudes are updated one block at a
# time: the loop's few microseconds per block are then small next to the
# numpy work, and per-block temporaries stay in cache.  Smaller blocks are
# updated all at once.
_BLOCK_LOOP_MIN = 1 << 12
# Updates on halves of more than this many amplitudes (256 KiB) run slab by
# slab, so the temporaries of one 2x2 update stay in a core's L2 cache.  At
# n = 18 on a 2 MiB-L2 Xeon, 2**13-2**14 ran RY on each target in about a
# third of the unslabbed time; 2**12 and 2**15-2**16 were slower.
_SLAB = 1 << 14


@dataclass(frozen=True)
class Gate:
    """A single gate.

    ``qubits`` holds the wires the gate acts on.  For controlled kinds the
    control comes first; for ``mry`` the layout is ``(*controls, target)``
    and ``angles[j]`` is the RY angle applied when the control bits, read
    with ``qubits[0]`` as the least-significant, equal ``j``.  For ``perm``
    the ``table`` maps local basis indices (bit ``i`` = ``qubits[i]``) to
    local basis indices and must be a bijection.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    angles: tuple[float, ...] | None = None
    table: tuple[int, ...] | None = None
    # apply_gate's plan at the width it last ran at; not part of the value
    _plan: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"gate {self.kind} repeats a qubit: {self.qubits}")
        if self.kind == MULTIPLEXED_RY:
            k = len(self.qubits) - 1
            if self.angles is None or len(self.angles) != 1 << k:
                raise CircuitError(
                    f"mry with {k} controls needs {1 << k} angles, "
                    f"got {0 if self.angles is None else len(self.angles)}"
                )
        if self.kind == PERMUTATION:
            dim = 1 << len(self.qubits)
            if self.table is None or sorted(self.table) != list(range(dim)):
                raise CircuitError("permutation table must be a bijection on basis indices")

    def inverse(self) -> "Gate":
        """The adjoint gate (same kind family)."""
        if self.kind in (X, H, CNOT, SWAP):
            return self
        if self.kind in (RY, PHASE, CP, CRY):
            return Gate(self.kind, self.qubits, angle=-self.angle)
        if self.kind == MULTIPLEXED_RY:
            return Gate(self.kind, self.qubits, angles=tuple(-a for a in self.angles))
        if self.kind == PERMUTATION:
            inv = [0] * len(self.table)
            for src, dst in enumerate(self.table):
                inv[dst] = src
            return Gate(self.kind, self.qubits, table=tuple(inv))
        raise CircuitError(f"unknown gate kind {self.kind!r}")


def x(q: int) -> Gate:
    return Gate(X, (q,))


def h(q: int) -> Gate:
    return Gate(H, (q,))


def ry(theta: float, q: int) -> Gate:
    return Gate(RY, (q,), angle=float(theta))


def p(theta: float, q: int) -> Gate:
    return Gate(PHASE, (q,), angle=float(theta))


def cnot(control: int, target: int) -> Gate:
    return Gate(CNOT, (control, target))


def cp(theta: float, control: int, target: int) -> Gate:
    return Gate(CP, (control, target), angle=float(theta))


def swap(a: int, b: int) -> Gate:
    return Gate(SWAP, (a, b))


def cry(theta: float, control: int, target: int) -> Gate:
    return Gate(CRY, (control, target), angle=float(theta))


def multiplexed_ry(angles: Sequence[float], controls: Sequence[int], target: int) -> Gate:
    return Gate(MULTIPLEXED_RY, (*controls, target), angles=tuple(np.asarray(angles, dtype=np.float64).tolist()))


def permutation(table: Sequence[int], qubits: Sequence[int]) -> Gate:
    return Gate(PERMUTATION, tuple(qubits), table=tuple(int(i) for i in table))


def gate_blocks(gate: Gate) -> np.ndarray:
    """The ``(2**k, 2, 2)`` blocks of a ``(*controls, target)`` gate with k
    controls: block ``j`` is the 2x2 unitary the target gets when the
    controls, read with ``qubits[0]`` as the least-significant bit, equal
    ``j``.  This is the only place the action of such a gate is written.
    SWAP and PERMUTATION have no blocks.
    """
    kind = gate.kind
    if kind in (X, CNOT):
        blocks = np.array([[[0, 1], [1, 0]]], dtype=np.complex128)
    elif kind == H:
        blocks = np.array([[[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]]], dtype=np.complex128)
    elif kind in (RY, CRY, MULTIPLEXED_RY):
        half = np.asarray(gate.angles if kind == MULTIPLEXED_RY else (gate.angle,)) / 2.0
        c, s = np.cos(half), np.sin(half)
        blocks = np.empty((half.size, 2, 2), dtype=np.complex128)
        blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1] = c, -s, s, c
    elif kind in (PHASE, CP):
        blocks = np.array([[[1.0, 0.0], [0.0, np.exp(1j * gate.angle)]]], dtype=np.complex128)
    else:
        raise CircuitError(f"gate kind {kind!r} has no control blocks")
    if kind in (CNOT, CP, CRY):
        blocks = np.concatenate([np.eye(2, dtype=np.complex128)[None], blocks])  # control reads 0: identity
    return blocks


def gate_matrix(gate: Gate) -> np.ndarray:
    """Local unitary of ``gate`` with local bit ``i`` = ``gate.qubits[i]``.

    Every kind but SWAP and PERMUTATION is laid out as ``(*controls,
    target)`` and is block-diagonal over control patterns: ``u[j::half,
    j::half]`` is block ``j`` of ``gate_blocks``.
    """
    dim = 1 << len(gate.qubits)
    if gate.kind in (SWAP, PERMUTATION):
        u = np.zeros((dim, dim), dtype=np.complex128)
        u[list(gate.table or _SWAP_TABLE), range(dim)] = 1.0
        return u
    blocks = gate_blocks(gate)
    if dim == 2:
        return blocks[0]
    u = np.zeros((dim, dim), dtype=np.complex128)
    half = dim // 2
    for j, block in enumerate(blocks):
        u[j::half, j::half] = block
    return u


def _gray_angles(alphas: Sequence[float]) -> np.ndarray:
    """Walk angles for a multiplexer whose pattern-j angle is ``alphas[j]``:
    step ``i`` of the Gray-code walk rotates by ``sum_j (-1)**popcount(j &
    g_i) * alphas[j] / 2**k`` with ``g_i = i ^ (i >> 1)``, which is the
    Walsh-Hadamard transform of ``alphas`` read in Gray order (Mottonen et
    al., quant-ph/0407010)."""
    w = np.array(alphas, dtype=np.float64)
    h = 1
    while h < w.size:  # in-place fast Walsh-Hadamard transform
        v = w.reshape(-1, 2, h)
        v[:, 0], v[:, 1] = v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]
        h *= 2
    i = np.arange(w.size)
    return w[i ^ (i >> 1)] / w.size


@lru_cache(maxsize=32)
def _gray_controls(k: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The control positions of the Gray-code walk over k >= 1 controls:
    step ``i`` ends with a CNOT from position ``pos[i]``, the lowest set bit
    of ``i + 1`` (the top position for the last step), so there are
    ``2**k`` CNOTs.  Also the first and the last step reading each
    position; position p is first read at step ``2**p - 1``."""
    total = 1 << k
    pos = tuple(((i + 1) & -(i + 1)).bit_length() - 1 if i + 1 < total else k - 1 for i in range(total))
    first = tuple(pos.index(p) for p in range(k))
    last = tuple(total - 1 - pos[::-1].index(p) for p in range(k))
    return pos, first, last


def gray_walk(kind: str, alphas: Sequence[float], controls: Sequence[int], target: int) -> list[Gate]:
    """A multiplexed ``kind`` rotation (``RY``, or ``PHASE`` standing in for
    RZ up to a global phase) as the Gray-code walk of single-qubit
    rotations and CNOTs (Shende-Bullock-Markov, quant-ph/0406176).  Pattern
    bit ``i`` of the index into ``alphas`` is ``controls[i]``; k controls
    cost exactly ``2**k`` CNOTs, none at k = 0."""
    if not controls:
        return [Gate(kind, (target,), angle=float(alphas[0]))]
    gates = []
    for theta, p in zip(_gray_angles(alphas).tolist(), _gray_controls(len(controls))[0]):
        gates += [Gate(kind, (target,), angle=theta), cnot(controls[p], target)]
    return gates


def _walk_levels(level: list[int], controls: Sequence[int], target: int) -> None:
    """Advance the greedy-layering ``level`` of each qubit over the
    ``gray_walk`` of a multiplexer with k >= 1 controls, without making its
    gates.  Each step is a rotation on the target, then a CNOT from a
    control.  Once read, a control's level trails the target's, so a step
    that reads it adds exactly 2 to the target; only a control's first read
    can wait on it, and it ends at the target's level at its last read."""
    pos, first, last = _gray_controls(len(controls))
    d, done = level[target], 0
    for p, c in enumerate(controls):  # first reads come in order of p
        d = 1 + max(d + 2 * (first[p] - done) + 1, level[c])
        done = first[p] + 1
    end = d + 2 * (len(pos) - done)
    for p, c in enumerate(controls):
        level[c] = end - 2 * (len(pos) - 1 - last[p])
    level[target] = end


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over ``n_qubits`` wires with named registers.

    ``query_count`` counts oracle queries declared by circuit builders (e.g.
    a simulated qRAM access); it is not derived from the gate list.
    """

    n_qubits: int
    gates: tuple[Gate, ...] = ()
    registers: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    query_count: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise CircuitError("circuit needs at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q < 0 or q >= self.n_qubits for q in g.qubits):
                raise CircuitError(f"gate {g.kind} touches qubit outside 0..{self.n_qubits - 1}")
        regs = {k: tuple(v) for k, v in dict(self.registers).items()}
        seen: set[int] = set()
        for name, qs in regs.items():
            if any(q < 0 or q >= self.n_qubits for q in qs):
                raise CircuitError(f"register {name!r} outside circuit width")
            if seen & set(qs):
                raise CircuitError(f"register {name!r} overlaps another register")
            seen |= set(qs)
        object.__setattr__(self, "registers", regs)

    @property
    def width(self) -> int:
        return self.n_qubits

    def lowered(self) -> "Circuit":
        """This circuit with every ``mry`` replaced by its ``gray_walk`` of
        RY and CNOT gates; the circuit itself when it has no ``mry``.
        Computed once per circuit.  ``depth`` and ``cnot_count`` describe
        it without building it; it serves as their reference."""
        return self._lowered

    @cached_property
    def _lowered(self) -> "Circuit":
        if all(g.kind != MULTIPLEXED_RY for g in self.gates):
            return self
        gates: list[Gate] = []
        for g in self.gates:
            if g.kind == MULTIPLEXED_RY:
                gates.extend(gray_walk(RY, g.angles, g.qubits[:-1], g.qubits[-1]))
            else:
                gates.append(g)
        return Circuit(self.n_qubits, gates, self.registers, self.query_count)

    @property
    def depth(self) -> int:
        """Longest chain of gates sharing qubits (greedy layering) in the
        lowered circuit, counted without lowering it."""
        level = [0] * self.n_qubits
        for g in self.gates:
            if g.kind == MULTIPLEXED_RY and len(g.qubits) > 1:
                _walk_levels(level, g.qubits[:-1], g.qubits[-1])
                continue
            d = 1 + max(level[q] for q in g.qubits)
            for q in g.qubits:
                level[q] = d
        return max(level)

    @property
    def cnot_count(self) -> int:
        """CNOT gates in the lowered circuit: one per CNOT and one per step
        of each multiplexer's Gray-code walk."""
        count = 0
        for g in self.gates:
            if g.kind == CNOT:
                count += 1
            elif g.kind == MULTIPLEXED_RY and len(g.qubits) > 1:
                count += len(_gray_controls(len(g.qubits) - 1)[0])
        return count

    def concat(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:
            raise CircuitError("cannot concatenate circuits of different widths")
        return Circuit(
            self.n_qubits,
            self.gates + other.gates,
            self.registers or other.registers,
            self.query_count + other.query_count,
        )

    def inverse(self) -> "Circuit":
        return Circuit(
            self.n_qubits,
            tuple(g.inverse() for g in reversed(self.gates)),
            self.registers,
            self.query_count,
        )

    def shifted(self, offset: int, n_qubits: int) -> "Circuit":
        """The same gates embedded at ``offset`` in a ``n_qubits``-wide circuit."""
        gates = tuple(
            Gate(g.kind, tuple(q + offset for q in g.qubits), g.angle, g.angles, g.table)
            for g in self.gates
        )
        regs = {k: tuple(q + offset for q in v) for k, v in self.registers.items()}
        return Circuit(n_qubits, gates, regs, self.query_count)


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state over ``n_qubits`` qubits."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n_qubits,):
            raise CircuitError(
                f"state over {self.n_qubits} qubits needs {1 << self.n_qubits} amplitudes"
            )
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _owning(cls, n_qubits: int, amps: np.ndarray) -> "StateVector":
        """A state holding ``amps`` itself, not a copy: a complex128 array
        of length ``2**n_qubits`` that nothing else refers to.  It is made
        read-only."""
        amps.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "n_qubits", n_qubits)
        object.__setattr__(state, "amplitudes", amps)
        return state

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    @cached_property
    def probabilities(self) -> np.ndarray:
        """``|amplitudes|**2``, read-only; computed on first access and
        shared by every marginal, sample and decode of this state."""
        probs = np.abs(self.amplitudes) ** 2
        probs.setflags(write=False)
        return probs


@dataclass(frozen=True)
class ShotRecord:
    """One measurement shot: outcome per register, plus provenance."""

    measured_bits: Mapping[str, int]
    shot_index: int
    seed: int


def zero_state(n: int) -> StateVector:
    """The all-zeros state ``|0...0>`` on ``n`` qubits, 1 <= n <= 24."""
    if not 1 <= n <= MAX_QUBITS:
        raise CapacityError(f"qubit count {n} outside 1..{MAX_QUBITS}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector._owning(n, amps)


def basis_state(n: int, index: int) -> StateVector:
    """The computational basis state ``|index>`` on ``n`` qubits."""
    if not 1 <= n <= MAX_QUBITS:
        raise CapacityError(f"qubit count {n} outside 1..{MAX_QUBITS}")
    if not 0 <= index < (1 << n):
        raise CapacityError(f"basis index {index} outside 0..{(1 << n) - 1}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector._owning(n, amps)


def state_from_amplitudes(amps: Sequence[complex]) -> StateVector:
    arr = np.asarray(amps, dtype=np.complex128)
    n = int(arr.size).bit_length() - 1
    if 1 << n != arr.size:
        raise CircuitError(f"amplitude count {arr.size} is not a power of two")
    return StateVector(n, arr)


def _check_qubits(qubits: tuple[int, ...], n: int) -> None:
    if any(not 0 <= q < n for q in qubits):
        raise CircuitError(f"gate qubits {qubits} outside 0..{n - 1}")


@lru_cache(maxsize=256)
def _view_shape(qubits: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Shape of the low-rank view of an n-qubit buffer that gives each of
    ``qubits`` its own length-2 axis and merges the qubits between them:
    gap, qubit, gap, ..., qubit, gap, with the qubits in descending order
    (axis ``2*i + 1`` holds the i-th highest).  A gap may have length 1,
    which keeps every selection a view, even at n = 1."""
    _check_qubits(qubits, n)
    shape, above = [], n
    for q in sorted(qubits, reverse=True):
        shape += [1 << (above - 1 - q), 2]
        above = q
    shape.append(1 << above)
    return tuple(shape)


def _gate_plan(gate: Gate, n: int) -> tuple:
    """What ``apply_gate`` does for ``gate`` on n qubits, read once off its
    definition.

    SWAP and PERMUTATION: ``(n, "perm", src, dst)`` from ``_perm_moves``.
    Every other kind: ``(n, view shape, updates)``, where each update is
    ``(shape tag, target-0 index, target-1 index, u00, u01, u10, u11)`` on
    the ``_view_shape`` view.  Each non-identity block of ``gate_blocks``
    is one update of its control pattern's halves, tagged by the block's
    shape: ``"scale"`` for a diagonal, ``"flip"`` for the bit flip,
    ``"dense"`` otherwise.  Halves larger than ``_SLAB`` amplitudes are cut
    into slabs of about that size along one gap axis of the view, one
    update per slab, so each update's temporaries stay in cache.  A
    multiplexer with halves below ``_BLOCK_LOOP_MIN`` amplitudes is instead
    one ``"dense"`` update whose entries are arrays over the control axes,
    so all its blocks move in one broadcast pass.
    """
    if gate.kind in (SWAP, PERMUTATION):
        return (n, "perm", *_perm_moves(gate.table or _SWAP_TABLE, gate.qubits, n))
    shape = _view_shape(gate.qubits, n)
    blocks = gate_blocks(gate)
    active = np.flatnonzero((blocks != _IDENTITY).any(axis=(1, 2))).tolist()
    *controls, target = gate.qubits
    axis = {q: 2 * i + 1 for i, q in enumerate(sorted(gate.qubits, reverse=True))}
    t = axis[target]

    def halves(idx: list) -> tuple[tuple, tuple]:
        idx[t] = 0
        i0 = tuple(idx)
        idx[t] = 1
        return i0, tuple(idx)

    if len(active) > 1 and (1 << n) >> len(gate.qubits) < _BLOCK_LOOP_MIN:
        # Block j's control bit i is controls[i]; reshaped to (2,)*k the
        # axes run controls[k-1] .. controls[0]; reorder them to their view
        # order and give the gaps length-1 axes.
        k = len(controls)
        order = [k - 1 - controls.index(q) for q in sorted(controls, reverse=True)]
        coef = blocks.reshape((2,) * k + (2, 2)).transpose(order + [k, k + 1])
        control_axes = {axis[c] for c in controls}
        coef = coef.reshape([2 if a in control_axes else 1 for a in range(len(shape)) if a != t] + [2, 2])
        u = (coef[..., 0, 0], coef[..., 0, 1], coef[..., 1, 0], coef[..., 1, 1])
        return (n, shape, [("dense", *halves([slice(None)] * len(shape)), *u)])
    # Slabs: chunks of about _SLAB amplitudes per half along the outermost
    # gap axis that is long enough, which keeps the rows of the axes inside
    # it whole and contiguous, else along the longest gap axis; the whole
    # of axis 0 when the halves are no larger than a slab.
    gap, slabs = 0, (slice(None),)
    half = (1 << n) >> len(gate.qubits)
    if half > _SLAB:
        gaps = range(0, len(shape), 2)
        gap = next((a for a in gaps if shape[a] >= half // _SLAB), max(gaps, key=shape.__getitem__))
        step = max(1, shape[gap] * _SLAB // half)
        slabs = [slice(s, s + step) for s in range(0, shape[gap], step)]
    updates = []
    for j in active:
        (u00, u01), (u10, u11) = blocks[j].tolist()
        idx = [slice(None)] * len(shape)
        for i, c in enumerate(controls):
            idx[axis[c]] = (j >> i) & 1
        if u01 == 0 and u10 == 0:
            how = "scale"
        elif u00 == 0 and u11 == 0 and u01 == 1 and u10 == 1:
            how = "flip"
        else:
            how = "dense"
        for slab in slabs:
            idx[gap] = slab
            updates.append((how, *halves(idx), u00, u01, u10, u11))
    return (n, shape, updates)


@lru_cache(maxsize=128)
def _perm_moves(table: tuple[int, ...], qubits: tuple[int, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices ``(src, dst)`` of the amplitudes a permutation gate moves:
    the amplitude at ``src[i]`` goes to ``dst[i]``; all others stay."""
    _check_qubits(qubits, n)
    src = np.arange(1 << n)
    local = np.zeros(1 << n, dtype=np.int64)
    for i, q in enumerate(qubits):
        local |= ((src >> q) & 1) << i
    new_local = np.asarray(table, dtype=np.int64)[local]
    dest = src.copy()
    for i, q in enumerate(qubits):
        bit = (new_local >> i) & 1
        dest = (dest & ~(1 << q)) | (bit << q)
    moved = np.flatnonzero(dest != src)
    return moved, dest[moved]


def apply_gate(psi: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """Apply one gate to ``psi`` in place and return ``psi``.

    ``psi`` must be a writable, C-contiguous complex128 array of length
    ``2**n``.  The gate's plan (``_gate_plan``) is read off its definition
    on its first use at width n and kept on the gate.  SWAP and PERMUTATION
    copy only the amplitudes they move.  Every other kind runs the plan's
    updates on the target-0 and target-1 halves of a low-rank view
    (``_view_shape``): a diagonal scales the halves whose entry is not 1,
    the bit flip swaps them, and anything else is a dense 2x2 update, with
    scalar entries for one block (slab by slab on large halves) or arrays
    for all blocks of a multiplexer.
    """
    flags = psi.flags
    if psi.dtype != np.complex128 or psi.shape != (1 << n,) or not (flags.writeable and flags.c_contiguous):
        raise CircuitError(f"apply_gate needs a writable contiguous complex128 buffer of length {1 << n}")
    plan = gate._plan
    if plan is None or plan[0] != n:
        plan = _gate_plan(gate, n)
        object.__setattr__(gate, "_plan", plan)
    if plan[1] == "perm":
        src, dst = plan[2:]
        psi[dst] = psi[src]
        return psi
    view = psi.reshape(plan[1])
    for how, i0, i1, u00, u01, u10, u11 in plan[2]:
        a0, a1 = view[i0], view[i1]
        if how == "scale":
            if u00 != 1:
                a0[...] = u00 * a0
            if u11 != 1:
                a1[...] = u11 * a1
        elif how == "flip":
            a0[...], a1[...] = a1, a0.copy()
        else:
            b0 = u00 * a0 + u01 * a1
            a1[...] = u10 * a0 + u11 * a1
            a0[...] = b0
    return psi


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Run ``circuit`` on a copy of ``state``.

    Raises ``CircuitError`` if the squared norm moved by more than
    ``NORM_ATOL`` or is no longer a number (a NaN angle).
    """
    if circuit.n_qubits != state.n_qubits:
        raise CircuitError(
            f"circuit width {circuit.n_qubits} != state width {state.n_qubits}"
        )
    norm_sq = state.norm_sq
    psi = state.amplitudes.copy()
    for g in circuit.gates:
        apply_gate(psi, g, state.n_qubits)
    out = StateVector._owning(state.n_qubits, psi)
    drift = abs(out.norm_sq - norm_sq)
    if not drift <= NORM_ATOL:
        raise CircuitError(f"circuit changed the squared norm by {drift:.3g} > {NORM_ATOL}")
    return out


def run(circuit: Circuit) -> StateVector:
    """Shorthand for applying ``circuit`` to ``|0...0>``."""
    return apply_circuit(zero_state(circuit.n_qubits), circuit)


def build_unitary(circuit: Circuit) -> np.ndarray:
    """Full ``2**n x 2**n`` matrix of ``circuit``, for n <= 12."""
    if circuit.n_qubits > MAX_UNITARY_QUBITS:
        raise CapacityError(
            f"unitary of {circuit.n_qubits} qubits exceeds the cap of {MAX_UNITARY_QUBITS}"
        )
    dim = 1 << circuit.n_qubits
    cols = []
    for b in range(dim):
        cols.append(apply_circuit(basis_state(circuit.n_qubits, b), circuit).amplitudes)
    return np.stack(cols, axis=1)


def _check_register(register: tuple[int, ...], n: int) -> None:
    if any(q < 0 or q >= n for q in register):
        raise CircuitError("register qubit outside state width")
    if len(set(register)) != len(register):
        raise CircuitError("register repeats a qubit")


def marginal_probabilities(state: StateVector, register: Sequence[int]) -> np.ndarray:
    """Outcome distribution of ``register``; bit ``j`` of the outcome is
    ``register[j]``."""
    register = tuple(register)
    if not register:
        raise CircuitError("marginal over an empty register")
    n = state.n_qubits
    _check_register(register, n)
    # The _view_shape view gives each register qubit an axis, in descending
    # qubit order, between gap axes.  Summing out the gaps leaves the
    # register's axes; the outcome's top bit, register[-1], must come first.
    shape = _view_shape(register, n)
    marginal = state.probabilities.reshape(shape).sum(axis=tuple(range(0, len(shape), 2)))
    kept = sorted(register, reverse=True)
    return marginal.transpose([kept.index(q) for q in reversed(register)]).reshape(-1)


def certain_outcome(probs: np.ndarray) -> int | None:
    """The outcome of ``probs`` with probability at least
    ``1 - ATOL_DECODE``, or None when no outcome is that certain (or a
    probability is NaN).  For a basis state ``|y>`` this probability is its
    fidelity with the state, so it is the decode acceptance rule too."""
    top = int(np.argmax(probs))
    return top if probs[top] >= 1.0 - ATOL_DECODE else None


def _draws(state: StateVector, shots: int, seed: int) -> np.ndarray:
    """``shots`` basis-state indices drawn from ``state`` with PCG64(seed)."""
    if shots < 1:
        raise CircuitError("shots must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    probs = state.probabilities
    return rng.choice(probs.size, size=shots, p=probs / probs.sum())


def _outcomes(draws: np.ndarray, register: Sequence[int]) -> np.ndarray:
    """Each draw's outcome on ``register``: bit ``j`` is ``register[j]``."""
    out = np.zeros(draws.size, dtype=np.int64)
    for j, q in enumerate(register):
        out |= ((draws >> q) & 1) << j
    return out


def sample_shots(
    state: StateVector,
    registers: Mapping[str, Sequence[int]],
    shots: int,
    seed: int,
) -> list[ShotRecord]:
    """Draw ``shots`` i.i.d. outcomes; identical ``(seed, shots)`` reproduce
    identical records bit for bit."""
    draws = _draws(state, shots, seed)
    columns = [_outcomes(draws, qs).tolist() for qs in registers.values()]
    names = tuple(registers)
    if len(names) == 1:
        (name,) = names
        return [ShotRecord({name: b}, i, seed) for i, b in enumerate(columns[0])]
    rows = zip(*columns) if columns else [()] * shots
    return [ShotRecord(dict(zip(names, bits)), i, seed) for i, bits in enumerate(rows)]


def sample_counts(state: StateVector, register: Sequence[int], shots: int, seed: int) -> np.ndarray:
    """How often each outcome of ``register`` occurs in ``shots`` draws:
    ``counts[y]`` over the same draws as ``sample_shots`` with the same
    ``(shots, seed)``, without making a record per shot.  Bit ``j`` of
    ``y`` is ``register[j]``."""
    register = tuple(register)
    _check_register(register, state.n_qubits)
    return np.bincount(_outcomes(_draws(state, shots, seed), register), minlength=1 << len(register))


def fidelity(a: StateVector, b: StateVector) -> float:
    """``|<a|b>|**2``; 1 iff the states agree up to global phase."""
    if a.n_qubits != b.n_qubits:
        raise CircuitError("fidelity of states with different qubit counts")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
