"""Dense state-vector simulator.

Conventions used throughout the package:

* Qubit 0 is the least-significant bit of a basis-state integer, so the
  amplitude of ``|x>`` lives at array index ``x``.  Printed kets such as
  ``|x2 x1 x0>`` are a display convention only.
* A ``StateVector`` holds a read-only complex128 array of length
  ``2**n_qubits``, 1 <= n_qubits <= ``MAX_QUBITS``.  ``apply_circuit``
  copies it once into a buffer it owns; ``run`` makes ``|0...0>`` in its
  buffer directly, with no state to copy.  ``apply_gate`` updates that
  buffer in place, and the resulting state takes the buffer over,
  read-only, without another copy.
* A gate's action is written in one place.  Every ``(*controls, target)``
  kind is defined by ``gate_blocks`` in the compact form of its family: a
  flip (X, CNOT), one phase (P, and CP with one or more controls), one
  dense 2x2 (H), or real ``c`` and ``s`` vectors with one entry per
  control pattern (RY, ``mry``).  A flip, phase or dense form acts only
  when every control reads 1, so the kind, not a scan, says which patterns
  are the identity; in the RY form they are those with ``s == 0``.
  ``gate_matrix`` expands the form into the gate's dense matrix.  SWAP and
  PERMUTATION are index maps; ``cswap`` is a PERMUTATION.
* The kernel keeps nothing per gate: ``apply_gate`` reads a gate's
  compact form on every call.  It views the buffer with one length-2 axis
  per gate qubit and one axis for each run of qubits between them; that
  layout depends only on the gate's qubits and the width (``_layout``).
  Each control pattern that acts updates its target-0/target-1 halves by
  its form (``_update_halves``: swap, scale or dense 2x2).  A multiplexer
  updates all of its patterns in one broadcast pass of its ``c``, ``-s``,
  ``s``, ``c`` vectors, or one pattern at a time once halves are large
  (``_BLOCK_LOOP_MIN``).  Real entries multiply as complex numbers of
  imaginary part 0, and no product is written in place into the view
  (``_dense``): numpy's complex multiply can round a last bit differently
  when it writes in place into a strided view.  Halves larger than ``_SLAB``
  amplitudes are updated slab by slab along the gap axes of the view
  (``_slabs``), so the temporaries of each 2x2 update stay in cache on
  wide states; the arithmetic per amplitude is the same, so results are
  bit for bit those of one whole-half pass.  SWAP and PERMUTATION copy,
  slab by slab, the rows their table moves on the same view with the
  gate's qubit axes first (``_qubit_major``, ``_moved_rows``).
  ``apply_gate`` is the only code that applies a gate to amplitudes.
* ``apply_circuit`` runs a circuit's execution plan (``Circuit._steps``),
  made once per circuit from its items: blocks by their steps, and gates
  by ``apply_gate`` or, on wide states, in fused runs (below).  Builders
  declare structure in declared blocks: circuit items with a flat
  expansion (the block's ``gates``) and one plan step.  ``Circuit.gates``
  (every block expanded), ``lowered()``, ``depth``, ``cnot_count``,
  ``==`` and ``build_unitary`` read the flat list; ``inverse``,
  ``concat`` and ``shifted`` keep the blocks.  There are three blocks,
  each run on the ``_view_shape`` view of its qubits:

  - ``Repeat``: gates applied ``count`` times back to back (phase
    estimation's controlled powers).  On at most ``_POWER_QUBITS`` qubits,
    count 1 included, its step is its ``2**k``-square matrix raised to the
    count and applied as one dense update, slab by slab (``_slabs``).
    ``apply_gate`` builds the matrix on the flattened identity, once per
    period that is distinct on its own qubits, and the plan keeps that
    period's powers, each squared from a smaller one.  A wider repeat runs
    gate by gate.
  - ``Diagonal``: a diagonal unitary (an amplitude load's phase pass),
    expanded as one multiplexed RZ per qubit and run as one elementwise
    multiply by its diagonal (Bullock & Markov, quant-ph/0303039).
  - ``Qft``: the quantum Fourier transform or its inverse, expanded as
    its H and controlled-phase ladder and run as one orthonormal FFT per
    slab (Häner et al., arXiv 1604.06460).

  Every other gate runs through ``apply_gate``, except on states of more
  than ``_FUSE_MIN`` amplitudes (n >= 15), whose passes over the state
  leave a core's cache.  There the plan fuses each greedy run of two or
  more consecutive gates on at most ``_FUSE_QUBITS`` qubits together into
  one dense update, the product of their matrices applied slab by slab as
  a repeat's power is (``_fused``; Häner & Steiger, arXiv 1704.01127).  A
  block's step ends a run.  A plain gate list is searched for nothing
  else, and fusion lives only in the plan: ``gates``, depth, CNOT count
  and ``build_unitary`` do not see it.  A fused or repeated product with
  no imaginary part, as a run of RY, H and CNOT gates has, on qubits
  above qubit 0, is applied as a real one (``_power_step``).  A block's
  step, and a fused run, agree with the gate-by-gate run of their gates
  within ``EQUIV_ATOL``, not bit for bit.
* Builders may emit the native multiplexer ``mry``; a controlled RY
  (``cry``) is one, with angles ``(0, theta)``.  ``Circuit.lowered``
  rewrites each one as its Gray-code walk of RY and CNOT gates
  (``gray_walk``).  ``Circuit.cnot_count`` and ``Circuit.depth`` describe
  that lowered circuit, counted off the walk's control positions without
  building it, so they count CNOTs.  CP (with one control or many), SWAP
  and PERMUTATION are not lowered and count 0 CNOTs.
* A state computes ``|amplitudes|**2`` once, on first use
  (``StateVector.probabilities``), and every marginal, draw and decode of
  it reads that array.  ``qubit_marginals`` gives every single-qubit
  marginal from one row sum and one column sum of it; Angle decode reads
  those.  ``marginal_probabilities`` sums it over the gap axes of one
  register's ``_view_shape`` view; the extractors' readouts, the naive
  estimate and the swap test read that, bit for bit as before.
  ``sample_shots`` and ``sample_counts`` share one seeded draw of basis
  states, an inverse-CDF lookup byte-equal to ``Generator.choice`` with
  the same ``p``, and read each register's outcomes off it with one shift
  and mask per run of consecutive ascending qubits (``_outcomes``); the
  counts come from it without a record per shot.  ``sample_shots`` makes
  every ``ShotRecord`` before it returns, each with a dict of its own,
  filled one register at a time; at n = 18 and 8192 shots on a 2-vCPU
  Xeon the records are ~5 of its 11-12 ms and the draw ~3.3 ms.
* All randomness goes through numpy's PCG64 generator, made by
  ``seeded_generator`` from an explicit integer seed, so every stochastic
  operation is bit-reproducible from its seed.

The hard cap of 24 qubits keeps a state below 256 MB, and the cap of 12
qubits on ``build_unitary`` keeps its matrix to the same budget.  The
matrix is built in place, every gate applied once to the flattened
identity, so it is the only large allocation: each update's temporaries
stay slab-sized.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, Mapping, NamedTuple, Sequence

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
MULTIPLEXED_RY = "mry"
PERMUTATION = "perm"

_SQRT1_2 = 1.0 / np.sqrt(2.0)
_IDENTITY = np.eye(2, dtype=np.complex128)
_H_ENTRIES = (float(_SQRT1_2), float(_SQRT1_2), float(_SQRT1_2), -float(_SQRT1_2))
_SWAP_TABLE = (0, 2, 1, 3)  # local bits 0 <-> 1
_CSWAP_TABLE = (0, 1, 2, 5, 4, 3, 6, 7)  # local bit 0 set: bits 1 <-> 2
# The fewest and most qubits a gate of each kind acts on.
_QUBIT_COUNTS = {
    **dict.fromkeys((X, H, RY, PHASE), (1, 1)),
    **dict.fromkeys((CNOT, SWAP), (2, 2)),
    CP: (2, MAX_QUBITS),
    **dict.fromkeys((MULTIPLEXED_RY, PERMUTATION), (1, MAX_QUBITS)),
}
# Block halves of at least this many amplitudes are updated one block at a
# time: the loop's few microseconds per block are then small next to the
# numpy work, and per-block temporaries stay in cache.  Smaller blocks are
# updated all at once.
_BLOCK_LOOP_MIN = 1 << 12
# Updates that touch more than this many amplitudes (256 KiB) run slab by
# slab (``_slabs``): a 2x2 update per half, a power or a permutation per
# slab, so the temporaries of one update stay in a core's L2 cache.  At
# n = 18 on a 2 MiB-L2 Xeon, 2**13-2**14 ran RY on each target in about a
# third of the unslabbed time; 2**12 and 2**15-2**16 were slower.
_SLAB = 1 << 14
# A ``Repeat`` runs as one matrix power (``_execution_plan``) when its
# gates touch at most this many qubits.  Building their matrix costs about
# 4**k per gate and the power 8**k per squaring.  Over fresh QAE circuits
# with k = n + 1 = 4..8 and m = 2..5 (best of 18 runs on a 2-vCPU Xeon,
# about +-20% noise), the power ran at 0.95-1.1x the gate-by-gate speed for
# k <= 6 and m = 2 (one power, r = 2) and at 1.25-2.9x for m >= 3; at k = 7
# it ran at 0.55-0.87x until m = 5, and at k = 8 at 0.16-0.26x.  Those
# sweeps had count >= 2 only; a count-1 repeat is a power too.  A lone one
# at n = 10 (a controlled Grover operator, medians of 200 fresh circuits)
# ran in 0.03-0.06 ms against 0.28-0.51 ms gate by gate, but its matrix
# took 0.26-0.43 ms to build at k = 4 and 0.71-0.76 ms at k = 6, so plan
# plus run cost 1.0-1.1x and 1.6-1.7x the gates once.  QPE's count-1
# power shares the matrix of its larger powers and builds none.
_POWER_QUBITS = 6
# On states of more than ``_FUSE_MIN`` amplitudes, which do not stay in a
# core's L2 cache from one gate to the next, the plan fuses runs of
# consecutive gates on at most ``_FUSE_QUBITS`` qubits together into one
# dense update (``_fused``): one pass over the state in place of one per
# gate.  One RY per qubit at n = 16, 18 and 20 (medians of 30/15/7 runs,
# one BLAS thread, 2-vCPU Xeon) ran in 10.0/30.0/143 ms unfused, and fused
# at k = 2..6 in 4.7/13.8/68, 4.4/11.1/51, 3.9/11.4/46, 4.6/10.9/45 and
# 4.8/13.8/58 ms: k = 4 is within 5% of the fastest at every width.
_FUSE_MIN = 1 << 14
_FUSE_QUBITS = 4


@dataclass(frozen=True)
class Gate:
    """A single gate.

    ``qubits`` holds the wires the gate acts on: one for X, H, RY and P,
    two for CNOT and SWAP.  Controlled kinds are laid out as ``(*controls,
    target)``: CNOT has one control, CP one or more (it multiplies the
    all-ones pattern of its qubits by ``exp(i*angle)``), and for ``mry``
    ``angles[j]`` is the RY angle applied when the control bits, read with
    ``qubits[0]`` as the least-significant, equal ``j``.  For ``perm`` the
    ``table`` maps local basis indices (bit ``i`` = ``qubits[i]``) to local
    basis indices and must be a bijection.  A gate that breaks these rules,
    or of an unknown kind, raises ``CircuitError`` when it is made.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    angles: tuple[float, ...] | None = None
    table: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in _QUBIT_COUNTS:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        least, most = _QUBIT_COUNTS[self.kind]
        if not least <= len(self.qubits) <= most:
            raise CircuitError(f"gate {self.kind} cannot act on {len(self.qubits)} qubits: {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"gate {self.kind} repeats a qubit: {self.qubits}")
        if self.kind in (RY, PHASE, CP) and self.angle is None:
            raise CircuitError(f"gate {self.kind} needs an angle")
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
        """The adjoint gate, of the same kind; a new gate unless self-inverse.
        A caller repeating an inverse declares a ``Repeat``."""
        if self.kind in (X, H, CNOT, SWAP):
            return self
        if self.kind in (RY, PHASE, CP):
            return Gate(self.kind, self.qubits, angle=-self.angle)
        if self.kind == MULTIPLEXED_RY:
            return Gate(self.kind, self.qubits, angles=tuple(-a for a in self.angles))
        inv = [0] * len(self.table)
        for src, dst in enumerate(self.table):
            inv[dst] = src
        return Gate(self.kind, self.qubits, table=tuple(inv))


def _moved(g: Gate, offset: int) -> Gate:
    """``g`` with every qubit moved up by ``offset``."""
    return Gate(g.kind, tuple(q + offset for q in g.qubits), g.angle, g.angles, g.table)


def _inverted(gates: Sequence[Gate]) -> tuple[Gate, ...]:
    """The adjoint of a gate list: each gate's inverse, in reverse order."""
    return tuple(g.inverse() for g in reversed(gates))


def _check_block_qubits(qubits: tuple[int, ...], name: str) -> None:
    if not qubits or len(set(qubits)) != len(qubits):
        raise CircuitError(f"a {name} acts on a non-empty tuple of distinct qubits, got {qubits}")


@dataclass(frozen=True)
class Repeat:
    """A declared block: the tuple ``period`` of gates applied ``count``
    times in a row.  Its flat expansion ``gates`` is the period ``count``
    times over; its plan step, for any count, is one matrix power when it
    acts on at most ``_POWER_QUBITS`` qubits (``_execution_plan``)."""

    period: tuple[Gate, ...]
    count: int

    def __post_init__(self):
        if type(self.period) is not tuple or not self.period or any(type(g) is not Gate for g in self.period):
            raise CircuitError("a repeat holds a non-empty tuple of gates")
        if not _is_integer(self.count) or self.count < 1:
            raise CircuitError(f"repeat count must be an integer >= 1, got {self.count!r}")

    @property
    def gates(self) -> tuple[Gate, ...]:
        return self.period * self.count

    @cached_property
    def qubits(self) -> tuple[int, ...]:
        return tuple(sorted({q for g in self.period for q in g.qubits}))

    def inverse(self) -> "Repeat":
        return Repeat(_inverted(self.period), self.count)

    def shifted(self, offset: int) -> "Repeat":
        return Repeat(tuple(_moved(g, offset) for g in self.period), self.count)


@dataclass(frozen=True, eq=False)
class Diagonal:
    """A declared block: the diagonal unitary that multiplies basis state
    ``|b>`` of ``qubits`` (bit j of b = ``qubits[j]``) by
    ``exp(1j*(phases[b] - mean(phases)))``, or its adjoint when
    ``inverted``.  ``phases`` is kept as a read-only float64 array; two
    diagonals are equal when their fields are.

    Its flat expansion ``gates`` is one multiplexed RZ per qubit, written
    as ``H, P(pi/2), mry, P(-pi/2), H`` (RZ = H S^dag RY S H): the RZ on
    ``qubits[t]`` is multiplexed over ``qubits[t+1:]`` by the phase
    differences of adjacent pairs, and the pair means pass on to the next
    qubit (Bullock & Markov, quant-ph/0303039).  That diagonal is exactly
    the one above, global phase included.  Its plan step is one elementwise
    multiply by that diagonal (``_execution_plan``).
    """

    phases: np.ndarray
    qubits: tuple[int, ...]
    inverted: bool = False

    def __post_init__(self):
        phases = np.array(self.phases, dtype=np.float64).ravel()
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "qubits", tuple(self.qubits))
        _check_block_qubits(self.qubits, "diagonal")
        if phases.size != 1 << len(self.qubits):
            raise CircuitError(f"a diagonal on {len(self.qubits)} qubits needs {1 << len(self.qubits)} phases")

    def __eq__(self, other) -> bool:
        return (
            type(other) is Diagonal
            and (self.qubits, self.inverted) == (other.qubits, other.inverted)
            and np.array_equal(self.phases, other.phases)
        )

    def __hash__(self) -> int:
        return hash((self.qubits, self.inverted, self.phases.tobytes()))

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        work = self.phases
        gates: list[Gate] = []
        for t, q in enumerate(self.qubits):
            deltas, work = work[1::2] - work[0::2], (work[0::2] + work[1::2]) / 2.0
            hq, s, sdg = _rz_frame(q)
            gates += [hq, s, multiplexed_ry(deltas, self.qubits[t + 1 :], q), sdg, hq]
        return _inverted(gates) if self.inverted else tuple(gates)

    def inverse(self) -> "Diagonal":
        return Diagonal(self.phases, self.qubits, not self.inverted)

    def shifted(self, offset: int) -> "Diagonal":
        return Diagonal(self.phases, tuple(q + offset for q in self.qubits), self.inverted)


@lru_cache(maxsize=64)
def _rz_frame(q: int) -> tuple[Gate, Gate, Gate]:
    """H, P(pi/2) and P(-pi/2) on qubit q, the gates around a ``Diagonal``'s
    multiplexed RY; made once per qubit, since gates are immutable."""
    return h(q), p(np.pi / 2, q), p(-np.pi / 2, q)


@dataclass(frozen=True)
class Qft:
    """A declared block: the quantum Fourier transform on ``qubits``,
    ``|x> -> 2**(-k/2) * sum_y exp(2*pi*i*x*y/2**k) |y>`` with
    ``qubits[0]`` as the low bit of ``x`` and ``y``, or its inverse when
    ``inverted``.  Its flat expansion ``gates`` is the H and
    controlled-phase ladder followed by the qubit-reversal swaps
    (``_qft_gates``); its plan step is one orthonormal FFT
    (``_execution_plan``)."""

    qubits: tuple[int, ...]
    inverted: bool = False

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        _check_block_qubits(self.qubits, "qft")

    @property
    def gates(self) -> tuple[Gate, ...]:
        return _qft_gates(self.qubits, self.inverted)

    def inverse(self) -> "Qft":
        return Qft(self.qubits, not self.inverted)

    def shifted(self, offset: int) -> "Qft":
        return Qft(tuple(q + offset for q in self.qubits), self.inverted)


_ITEM_TYPES = frozenset((Gate, Repeat, Diagonal, Qft))


@lru_cache(maxsize=64)
def _qft_gates(qubits: tuple[int, ...], inverted: bool) -> tuple[Gate, ...]:
    """The flat expansion of ``Qft(qubits, inverted)``: from the top local
    bit down, an H, then a CP of ``pi/2**d`` from each lower bit at distance
    d; then swaps that reverse the bit order."""
    k = len(qubits)
    gates: list[Gate] = []
    for i in range(k - 1, -1, -1):
        gates.append(h(qubits[i]))
        for j in range(i - 1, -1, -1):
            gates.append(cp(np.pi / (1 << (i - j)), qubits[j], qubits[i]))
    for j in range(k // 2):
        gates.append(swap(qubits[j], qubits[k - 1 - j]))
    return _inverted(gates) if inverted else tuple(gates)


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


def cswap(control: int, a: int, b: int) -> Gate:
    """Controlled SWAP (Fredkin): ``a`` and ``b`` trade values when
    ``control`` reads 1."""
    return permutation(_CSWAP_TABLE, (control, a, b))


def cry(theta: float, control: int, target: int) -> Gate:
    """Controlled RY: the multiplexer that rotates by ``theta`` when
    ``control`` reads 1, so it lowers, and counts, as two CNOTs."""
    return multiplexed_ry([0.0, theta], [control], target)


def multiplexed_ry(angles: Sequence[float], controls: Sequence[int], target: int) -> Gate:
    return Gate(MULTIPLEXED_RY, (*controls, target), angles=tuple(np.asarray(angles, dtype=np.float64).tolist()))


def permutation(table: Sequence[int], qubits: Sequence[int]) -> Gate:
    return Gate(PERMUTATION, tuple(qubits), table=tuple(int(i) for i in table))


def gate_blocks(gate: Gate) -> tuple[str, object]:
    """The action of a ``(*controls, target)`` gate with k controls, as a
    ``(form, values)`` pair in the compact form of its family.  This is the
    only place the action of such a gate is written.

    * ``("flip", None)`` for X and CNOT: the target's bit flips.
    * ``("phase", phase)`` for P and CP: ``phase = exp(i*theta)`` scales
      the target-1 amplitudes.
    * ``("dense", (u00, u01, u10, u11))`` for H: one 2x2 unitary
      ``[[u00, u01], [u10, u11]]``.
    * ``("ry", (c, s))`` for RY and ``mry``: real vectors with one entry per
      control pattern, read with ``qubits[0]`` as the least-significant
      bit.  Pattern ``j`` rotates the target by ``[[c[j], -s[j]], [s[j],
      c[j]]]``, the identity exactly when ``s[j] == 0``.

    A flip, phase or dense form acts only when every control reads 1 (the
    top pattern, ``2**k - 1``); every other pattern is the identity, and
    so is a phase of 1.  SWAP and PERMUTATION have no blocks.
    """
    kind = gate.kind
    if kind in (X, CNOT):
        return "flip", None
    if kind == H:
        return "dense", _H_ENTRIES
    if kind in (PHASE, CP):
        return "phase", np.exp(1j * gate.angle)
    if kind in (RY, MULTIPLEXED_RY):
        angles = gate.angles if kind == MULTIPLEXED_RY else (gate.angle,)
        half = np.fromiter(angles, np.float64, len(angles)) / 2.0
        return "ry", (np.cos(half), np.sin(half))
    raise CircuitError(f"gate kind {kind!r} has no control blocks")


def gate_matrix(gate: Gate) -> np.ndarray:
    """Local unitary of ``gate`` with local bit ``i`` = ``gate.qubits[i]``.

    Every kind but SWAP and PERMUTATION is laid out as ``(*controls,
    target)`` and is block-diagonal over control patterns: ``u[j::half,
    j::half]`` is the 2x2 block of pattern ``j``, expanded from the
    compact form of ``gate_blocks``.
    """
    dim = 1 << len(gate.qubits)
    if gate.kind in (SWAP, PERMUTATION):
        u = np.zeros((dim, dim), dtype=np.complex128)
        u[list(gate.table or _SWAP_TABLE), range(dim)] = 1.0
        return u
    form, values = gate_blocks(gate)
    half = dim // 2
    blocks = np.tile(_IDENTITY, (half, 1, 1))
    if form == "ry":
        c, s = values
        blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1] = c, -s, s, c
    elif form == "flip":
        blocks[-1] = [[0, 1], [1, 0]]
    elif form == "phase":
        blocks[-1, 1, 1] = values
    else:
        blocks[-1] = np.reshape(values, (2, 2))
    u = np.zeros((dim, dim), dtype=np.complex128)
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

    ``gates`` is given circuit items: gates and declared blocks
    (``Repeat``, ``Diagonal``, ``Qft``).  ``items`` keeps them as given, for
    ``inverse``, ``concat``, ``shifted`` and the plan; ``gates`` becomes
    the flat list, every block replaced by its expansion.  Any other item
    raises ``CircuitError``.

    ``query_count`` counts oracle queries declared by circuit builders (e.g.
    a simulated qRAM access); it is not derived from the gate list.
    """

    n_qubits: int
    gates: tuple[Gate, ...] = ()
    registers: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    query_count: int = 0
    items: tuple[Gate | Repeat | Diagonal | Qft, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise CircuitError("circuit needs at least one qubit")
        items = flat = tuple(self.gates)
        types = set(map(type, items))
        if not types <= _ITEM_TYPES:
            bad = next(i for i in items if type(i) not in _ITEM_TYPES)
            raise CircuitError(f"circuit item {bad!r} is neither a gate nor a declared block")
        if types - {Gate}:
            flat = tuple(itertools.chain.from_iterable((i,) if type(i) is Gate else i.gates for i in items))
        qubits = [q for i in items for q in i.qubits]
        if qubits and (min(qubits) < 0 or max(qubits) >= self.n_qubits):
            g = next(g for g in flat if not all(0 <= q < self.n_qubits for q in g.qubits))
            raise CircuitError(f"gate {g.kind} touches qubit outside 0..{self.n_qubits - 1}")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "gates", flat)
        regs = {k: tuple(v) for k, v in dict(self.registers).items()}
        seen: set[int] = set()
        for name, qs in regs.items():
            if any(q < 0 or q >= self.n_qubits for q in qs):
                raise CircuitError(f"register {name!r} outside circuit width")
            if seen & set(qs):
                raise CircuitError(f"register {name!r} overlaps another register")
            seen |= set(qs)
        object.__setattr__(self, "registers", regs)

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

    @cached_property
    def _steps(self) -> tuple:
        """What ``apply_circuit`` runs: ``_execution_plan`` of the items,
        computed once per circuit."""
        return _execution_plan(self.items, self.n_qubits)

    @property
    def depth(self) -> int:
        """Longest chain of gates sharing qubits (greedy layering) in the
        lowered circuit, counted without lowering it.  A CP with any number
        of controls, a SWAP and a PERMUTATION are not lowered: each is one
        layer over its qubits."""
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
        of each multiplexer's Gray-code walk.  SWAP, PERMUTATION and CP (with
        one control or many) are not lowered and count 0, so a circuit's
        controlled swaps, for one, are left out of its count."""
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
            self.items + other.items,
            self.registers or other.registers,
            self.query_count + other.query_count,
        )

    def inverse(self) -> "Circuit":
        return Circuit(
            self.n_qubits,
            tuple(i.inverse() for i in reversed(self.items)),
            self.registers,
            self.query_count,
        )

    def shifted(self, offset: int, n_qubits: int) -> "Circuit":
        """The same items embedded at ``offset`` in a ``n_qubits``-wide circuit."""
        items = tuple(_moved(i, offset) if type(i) is Gate else i.shifted(offset) for i in self.items)
        regs = {k: tuple(q + offset for q in v) for k, v in self.registers.items()}
        return Circuit(n_qubits, items, regs, self.query_count)


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state over ``n_qubits`` qubits."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_width(self.n_qubits)
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


class ShotRecord(NamedTuple):
    """One measurement shot: outcome per register, plus provenance."""

    measured_bits: Mapping[str, int]
    shot_index: int
    seed: int


def _is_integer(value) -> bool:
    """True for an ``int`` or numpy integer; a bool is not one."""
    return type(value) is not bool and isinstance(value, (int, np.integer))


def zero_state(n: int) -> StateVector:
    """The all-zeros state ``|0...0>`` on ``n`` qubits, 1 <= n <= 24."""
    return basis_state(n, 0)


def _check_width(n: int) -> None:
    """Raise ``CircuitError`` unless ``n`` is an integer and
    ``CapacityError`` unless 1 <= n <= ``MAX_QUBITS``: the one check of a
    state's width, made before its amplitudes are allocated."""
    if not _is_integer(n):
        raise CircuitError(f"state width must be an integer, got {n!r}")
    if not 1 <= n <= MAX_QUBITS:
        raise CapacityError(f"qubit count {n} outside 1..{MAX_QUBITS}")


def basis_state(n: int, index: int) -> StateVector:
    """The computational basis state ``|index>`` on ``n`` qubits."""
    _check_width(n)
    if not _is_integer(index):
        raise CircuitError(f"basis index must be an integer, got {index!r}")
    if not 0 <= index < (1 << n):
        raise CapacityError(f"basis index {index} outside 0..{(1 << n) - 1}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector._owning(n, amps)


def state_from_amplitudes(amps: Sequence[complex]) -> StateVector:
    """A state holding a copy of ``amps``, unnormalized as given.  Raises
    ``CircuitError`` unless their count is a power of two, and
    ``CapacityError`` for one amplitude (0 qubits) or more than
    ``2**MAX_QUBITS``."""
    arr = np.asarray(amps, dtype=np.complex128)
    n = int(arr.size).bit_length() - 1
    if not arr.size or 1 << n != arr.size:
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


@lru_cache(maxsize=256)
def _slabs(shape: tuple[int, ...], size: int) -> tuple[tuple[slice, ...], ...]:
    """Index tuples that cut the ``_view_shape`` view ``shape`` into the
    pieces of an update that touches ``size`` amplitudes of it (a half for
    a 2x2 update, the whole view for a power or a permutation), so that
    each piece touches at most ``_SLAB`` of them, or one element of every
    gap axis.  The outermost gap axes are cut first, which keeps the rows
    inside them whole and contiguous."""
    cuts = [[slice(None)] for _ in shape]
    for a in range(0, len(shape), 2):
        if size <= _SLAB:
            break
        size //= shape[a]
        step = max(1, _SLAB // size)
        cuts[a] = [slice(s, s + step) for s in range(0, shape[a], step)]
        size *= step
    return tuple(itertools.product(*cuts))


@lru_cache(maxsize=256)
def _layout(qubits: tuple[int, ...], n: int) -> tuple:
    """The index structure ``apply_gate`` uses for a ``(*controls,
    target)`` gate on ``qubits`` at width n, which holds for any gate on
    those wires: the ``_view_shape``, the target's axis, each control's
    axis (in the order of ``qubits``), and the layout of one broadcast
    pass.  That pass views the buffer without the view's length-1 gaps,
    which numpy iterates at a cost per axis; its layout is that shape, the
    target's axis in it, and the transpose and shape that lay a vector with
    one entry per control pattern out over its axes, the target's
    dropped."""
    shape = _view_shape(qubits, n)
    *controls, target = qubits
    axis = {q: 2 * i + 1 for i, q in enumerate(sorted(qubits, reverse=True))}
    # Pattern j's control bit i is controls[i]; lay the patterns out in
    # their view order and give the gaps of the broadcast view length-1 axes.
    order = _pattern_order(controls)
    kept = [a for a, size in enumerate(shape) if size > 1]
    control_axes = {axis[c] for c in controls}
    coef_shape = tuple(2 if a in control_axes else 1 for a in kept if a != axis[target])
    broadcast = tuple(shape[a] for a in kept), kept.index(axis[target]), order, coef_shape
    return shape, axis[target], tuple(axis[c] for c in controls), broadcast


def _pattern_order(qubits: Sequence[int]) -> tuple[int, ...]:
    """The transpose that takes a vector with one entry per pattern of
    ``qubits`` (bit i = ``qubits[i]``), reshaped to ``(2,)*k`` so that its
    axes run ``qubits[k-1] .. qubits[0]``, to the descending qubit order of
    the ``_view_shape`` view."""
    k = len(qubits)
    return tuple(k - 1 - qubits.index(q) for q in sorted(qubits, reverse=True))


@lru_cache(maxsize=256)
def _moved_rows(table: tuple[int, ...], qubits: tuple[int, ...]) -> tuple[tuple[np.ndarray, ...], ...]:
    """Rows ``(dst, src)`` that a permutation gate on ``qubits`` moves, as
    read-only index arrays for the qubit axes of a ``_qubit_major`` block
    (one per qubit, in descending qubit order): row ``src`` goes to row
    ``dst``, and the rows the table fixes stay."""
    src = np.flatnonzero(np.array(table) != np.arange(len(table)))
    dst = np.array(table)[src]
    shifts = np.array([qubits.index(q) for q in sorted(qubits, reverse=True)])[:, None]
    rows = (np.stack([dst, src])[:, None] >> shifts) & 1  # (dst/src, qubit axis, moved row)
    rows.setflags(write=False)
    return tuple(rows[0]), tuple(rows[1])


def _qubit_major(psi: np.ndarray, shape: tuple[int, ...], slabs: tuple[tuple, ...]) -> Iterator[np.ndarray]:
    """Each slab of the ``_view_shape`` view ``shape`` of ``psi``, as a
    view with the qubit axes first (in descending qubit order) and the gap
    axes after them."""
    view = psi.reshape(shape)
    order = [*range(1, len(shape), 2), *range(0, len(shape), 2)]
    for slab in slabs:
        yield view[slab].transpose(order)


def apply_gate(psi: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """Apply one gate to ``psi`` in place and return ``psi``.

    ``psi`` must be a writable, C-contiguous complex128 array of length
    ``2**n``.  SWAP and PERMUTATION move, slab by slab (``_slabs``), only
    the rows of the gate's ``_qubit_major`` view that the table moves
    (``_moved_rows``).  Every other kind reads its compact form from
    ``gate_blocks`` and updates the target-0 and target-1 halves of each
    control pattern that acts on a low-rank view of ``psi`` (``_layout``):
    a flip, phase or dense form only its top pattern, unless the phase is
    1; the RY family each pattern with ``s[j] != 0``, as a dense 2x2.  The
    halves are updated by ``_update_halves``, slab by slab on halves larger
    than ``_SLAB`` amplitudes.  A multiplexer with more than one acting
    pattern and halves below ``_BLOCK_LOOP_MIN`` amplitudes instead updates
    every pattern in one broadcast pass: its real ``c``, ``-s``, ``s``,
    ``c`` vectors laid out over the control axes.
    """
    flags = psi.flags
    if psi.dtype != np.complex128 or psi.shape != (1 << n,) or not (flags.writeable and flags.c_contiguous):
        raise CircuitError(f"apply_gate needs a writable contiguous complex128 buffer of length {1 << n}")
    if gate.kind in (SWAP, PERMUTATION):
        dst, src = _moved_rows(gate.table or _SWAP_TABLE, gate.qubits)
        shape = _view_shape(gate.qubits, n)
        for block in _qubit_major(psi, shape, _slabs(shape, 1 << n)):
            block[dst] = block[src]
        return psi
    shape, t, controls, broadcast = _layout(gate.qubits, n)
    form, values = gate_blocks(gate)
    half = (1 << n) >> len(gate.qubits)
    if form == "ry":
        c, s = values
        if controls and half < _BLOCK_LOOP_MIN and np.count_nonzero(s) > 1:
            shape, t, order, coef_shape = broadcast
            cos, neg, sin = (v.reshape((2,) * len(controls)).transpose(order).reshape(coef_shape) for v in (c, -s, s))
            view = psi.reshape(shape)
            idx = [slice(None)] * len(shape)
            idx[t] = 0
            a0 = view[tuple(idx)]
            idx[t] = 1
            _dense(a0, view[tuple(idx)], cos, neg, sin, cos)
            return psi
        cl, sl = c.tolist(), s.tolist()
        form, acting = "dense", [(j, (cl[j], -sl[j], sl[j], cl[j])) for j in np.flatnonzero(s).tolist()]
    elif form == "phase" and values == 1:
        return psi
    else:
        acting = [((1 << len(controls)) - 1, values)]
    view = psi.reshape(shape)
    for j, u in acting:
        for slab in _slabs(shape, half):
            idx = list(slab)
            for i, a in enumerate(controls):
                idx[a] = (j >> i) & 1
            idx[t] = 0
            a0 = view[tuple(idx)]
            idx[t] = 1
            _update_halves(a0, view[tuple(idx)], form, u)
    return psi


def _update_halves(a0: np.ndarray, a1: np.ndarray, form: str, u) -> None:
    """Update one control pattern's target-0 and target-1 halves ``a0``,
    ``a1`` in place by a compact form of ``gate_blocks``: a flip swaps
    them, a phase ``u`` scales ``a1``, and a dense ``u = (u00, u01, u10,
    u11)`` is a 2x2 update (``_dense``)."""
    if form == "flip":
        a0[...], a1[...] = a1, a0.copy()
    elif form == "phase":
        a1[...] = u * a1
    else:
        _dense(a0, a1, *u)


def _dense(a0: np.ndarray, a1: np.ndarray, u00, u01, u10, u11) -> None:
    """``a0, a1 = u00*a0 + u01*a1, u10*a0 + u11*a1`` in place, on three
    temporaries.  The entries are scalars, or arrays that broadcast against
    the halves (one entry per control pattern); real entries multiply as
    complex numbers of imaginary part 0.  No product is written in place
    into the halves: numpy's complex multiply can round a last bit
    differently when it writes in place into a strided view."""
    b0 = np.multiply(u00, a0)
    b1 = np.multiply(u01, a1)
    np.add(b0, b1, out=b0)
    np.multiply(u10, a0, out=b1)
    np.add(b1, np.multiply(u11, a1), out=a1)
    a0[...] = b0


class _Power(NamedTuple):
    """A ``Repeat``'s power, or a fused run of gates (``_fused``), as one
    dense update on the ``_view_shape`` view of the qubits it touches:
    ``matrix`` is its 2**k-square unitary with local bit i = i-th lowest
    qubit, and each slab of ``slabs`` indexes a piece of the view that
    holds every value of those k qubits.  A real ``matrix`` is float64 and
    acts on the buffer's float64 view: its real and imaginary parts are
    one more trailing axis of length 2, so ``shape`` has its last gap
    doubled and each product is a real one, with no copy of the parts."""

    matrix: np.ndarray
    shape: tuple[int, ...]
    slabs: tuple[tuple, ...]

    def apply(self, psi: np.ndarray) -> None:
        """Each ``_qubit_major`` slab of the buffer, viewed as the
        matrix's dtype, gathered into a (2**k, rest) matrix, multiplied,
        and written back."""
        dim = self.matrix.shape[0]
        for block in _qubit_major(psi.view(self.matrix.dtype), self.shape, self.slabs):
            block[...] = (self.matrix @ block.reshape(dim, -1)).reshape(block.shape)


class _Multiply(NamedTuple):
    """A ``Diagonal`` as one elementwise multiply: the buffer viewed as
    ``shape`` (its ``_view_shape`` without length-1 gaps) times
    ``factors``, the diagonal laid out over the same axes (length 1 on the
    gaps)."""

    factors: np.ndarray
    shape: tuple[int, ...]

    def apply(self, psi: np.ndarray) -> None:
        view = psi.reshape(self.shape)
        np.multiply(view, self.factors, out=view)


class _Fourier(NamedTuple):
    """A ``Qft`` as one orthonormal FFT per slab of the ``_view_shape``
    view ``shape``: ``order`` puts the qubit axes first, top local bit
    first, so each slab reads as a (2**k, rest) matrix whose row is the
    local index; its columns are transformed by ``numpy.fft.ifft`` (the
    QFT's ``exp(+2*pi*i*x*y/2**k)``) or, when ``inverted``, ``fft``."""

    shape: tuple[int, ...]
    order: tuple[int, ...]
    slabs: tuple[tuple, ...]
    inverted: bool

    def apply(self, psi: np.ndarray) -> None:
        view = psi.reshape(self.shape)
        dim = 1 << (len(self.shape) // 2)
        transform = np.fft.fft if self.inverted else np.fft.ifft
        for slab in self.slabs:
            block = view[slab].transpose(self.order)
            block[...] = transform(block.reshape(dim, -1), axis=0, norm="ortho").reshape(block.shape)


def _execution_plan(items: Sequence[Gate | Repeat | Diagonal | Qft], n: int) -> tuple:
    """The steps ``apply_circuit`` runs for a circuit's ``items`` on n
    qubits: each gate on its own through ``apply_gate``, one ``_Multiply``
    per ``Diagonal``, one ``_Fourier`` per ``Qft``, and one ``_Power`` per
    ``Repeat`` on at most ``_POWER_QUBITS`` qubits, of any count; the gates
    of wider repeats run one by one.  Repeats whose periods are equal once
    moved onto their own qubits, as phase estimation's controlled operators
    on different control wires are, share one ``_period_matrix`` and its
    powers (``_power``).  The key of a period is a plain tuple per gate:
    its kind, the positions of its qubits within the repeat's qubits, and
    its angle, angles and table.  On states of more than ``_FUSE_MIN``
    amplitudes, runs of gates that follow one another in these steps are
    then fused into dense updates (``_fused``); a block's step ends a
    run."""
    powers: dict[tuple, dict[int, np.ndarray]] = {}
    steps: list = []
    for item in items:
        kind = type(item)
        if kind is Gate:
            steps.append(item)
        elif kind is Diagonal:
            steps.append(_multiply_step(item, n))
        elif kind is Qft:
            steps.append(_fourier_step(item, n))
        elif len(item.qubits) > _POWER_QUBITS:
            steps += item.gates
        else:
            at = {q: i for i, q in enumerate(item.qubits)}.__getitem__
            key = tuple([(g.kind, tuple(map(at, g.qubits)), g.angle, g.angles, g.table) for g in item.period])
            if key not in powers:
                powers[key] = {1: _period_matrix(item.period, item.qubits)}
            steps.append(_power_step(_power(powers[key], item.count), item.qubits, n))
    return tuple(_fused(steps, n) if (1 << n) > _FUSE_MIN else steps)


def _power(powers: dict[int, np.ndarray], count: int) -> np.ndarray:
    """``powers[count]``, made as ``power(count - count//2) @
    power(count//2)`` from the powers kept in ``powers`` (at least
    ``powers[1]``) and kept there too.  ``Q**(2**j)`` is then one squaring
    of ``Q**(2**(j-1))``, byte-equal to ``np.linalg.matrix_power(Q,
    2**j)``, which squares in the same order."""
    if count not in powers:
        powers[count] = _power(powers, count - count // 2) @ _power(powers, count // 2)
    return powers[count]


def _power_step(matrix: np.ndarray, qubits: tuple[int, ...], n: int) -> _Power:
    """``matrix`` (local bit i = ``qubits[i]``, in ascending order) as one
    dense update of an n-qubit state, slab by slab.  A matrix with no
    imaginary part on qubits above qubit 0 is kept as float64 and applied
    to the float64 view of the buffer, whose last gap is twice as long
    (``_Power``).  With qubit 0 among the qubits that gap would hold one
    real and imaginary pair, and numpy gathers a slab two floats at a
    time: at n = 18 (2-vCPU Xeon) a 4-qubit step then took 6-8 ms real
    against 2.1-3.5 ms complex, while above qubit 0 it took 1.0-5.0 ms
    against 2.0-6.1 ms."""
    shape = _view_shape(qubits, n)
    if shape[-1] == 1 or matrix.imag.any():
        return _Power(matrix, shape, _slabs(shape, 1 << n))
    shape = (*shape[:-1], 2 * shape[-1])
    return _Power(np.ascontiguousarray(matrix.real), shape, _slabs(shape, 2 << n))


def _fused(steps: Sequence, n: int) -> list:
    """``steps`` with each greedy run of two or more consecutive gates whose
    qubits together number at most ``_FUSE_QUBITS`` replaced by one
    ``_Power`` of their product (``_period_matrix``), so the run costs one
    pass over the state (Häner & Steiger, arXiv 1704.01127).  A gate that
    does not fit the run before it starts the next one, a lone gate keeps
    its 2x2 kernel, and any other step ends a run."""
    runs: list[list] = []
    qubits: set[int] = set()
    for step in steps:
        after_gate = type(step) is Gate and runs and type(runs[-1][-1]) is Gate
        if after_gate and len(qubits.union(step.qubits)) <= _FUSE_QUBITS:
            runs[-1].append(step)
            qubits.update(step.qubits)
        else:
            runs.append([step])
            qubits = set(step.qubits) if type(step) is Gate else set()
    out = []
    for run in runs:
        if len(run) == 1:
            out.append(run[0])
        else:
            ordered = tuple(sorted({q for g in run for q in g.qubits}))
            out.append(_power_step(_period_matrix(run, ordered), ordered, n))
    return out


def _multiply_step(block: Diagonal, n: int) -> _Multiply:
    """``block``'s diagonal, ``exp(1j*(phases - mean))`` (negated when
    inverted), laid out over the ``_view_shape`` axes of its qubits."""
    phases = block.phases - block.phases.mean()
    factors = np.exp(-1j * phases if block.inverted else 1j * phases)
    shape = _view_shape(block.qubits, n)
    kept = [a for a, size in enumerate(shape) if size > 1]
    coef_shape = tuple(shape[a] if a % 2 else 1 for a in kept)
    factors = factors.reshape((2,) * len(block.qubits)).transpose(_pattern_order(block.qubits))
    return _Multiply(np.ascontiguousarray(factors.reshape(coef_shape)), tuple(shape[a] for a in kept))


def _fourier_step(block: Qft, n: int) -> _Fourier:
    """The slabs and axis order that run ``block`` as FFTs on the
    ``_view_shape`` view of its qubits (axis ``2*i + 1`` holds the i-th
    highest qubit)."""
    shape = _view_shape(block.qubits, n)
    axis = {q: 2 * i + 1 for i, q in enumerate(sorted(block.qubits, reverse=True))}
    order = (*(axis[q] for q in reversed(block.qubits)), *range(0, len(shape), 2))
    return _Fourier(shape, order, _slabs(shape, 1 << n), block.inverted)


def _period_matrix(period: Sequence[Gate], qubits: Sequence[int]) -> np.ndarray:
    """The product of ``period``'s gate matrices on the 2**k-dimensional
    space of ``qubits`` (local bit i = ``qubits[i]``), first gate
    rightmost.  ``apply_gate`` runs the gates on the row bits of the
    flattened identity at width 2k (``qubits[i]`` becomes bit ``k + i``),
    so every column of the identity goes through the period."""
    k = len(qubits)
    row = {q: k + i for i, q in enumerate(qubits)}
    u = np.eye(1 << k, dtype=np.complex128)
    flat = u.reshape(-1)
    for g in period:
        apply_gate(flat, Gate(g.kind, tuple(row[q] for q in g.qubits), g.angle, g.angles, g.table), 2 * k)
    return u


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Run ``circuit`` on a copy of ``state``, by its execution plan
    (``Circuit._steps``): gates through ``apply_gate``, or on states of more
    than ``_FUSE_MIN`` amplitudes a run of few-qubit gates as one dense
    update, and each declared block by its step (``_execution_plan``): a
    few-qubit ``Repeat`` as one matrix power, a ``Diagonal`` as one
    multiply, a ``Qft`` as one FFT.

    The copy and the squared norm it is checked against are one pass over
    the state each; on ``|0...0>`` call ``run``, which needs neither.
    Raises ``CircuitError`` if the squared norm moved by more than
    ``NORM_ATOL`` or is no longer a number (a NaN angle).
    """
    if circuit.n_qubits != state.n_qubits:
        raise CircuitError(
            f"circuit width {circuit.n_qubits} != state width {state.n_qubits}"
        )
    return _run_steps(state.amplitudes.copy(), circuit, state.norm_sq)


def run(circuit: Circuit) -> StateVector:
    """``circuit`` applied to ``|0...0>``: the result of ``apply_circuit``
    on ``zero_state``, byte for byte, and checked the same way.

    The buffer is made as ``|0...0>`` itself, with no state to copy and a
    squared norm of exactly 1.  It is zeroed by one write pass, not by
    ``np.zeros``: a calloc'd buffer's pages fault twice in the first
    step, once read as the shared zero page and once on the write.  At
    n = 18 on a 2-vCPU Xeon a wide_sample run took 9.9-10.3 ms this way,
    12.6-12.8 ms from ``np.zeros`` and 11.5-11.6 ms through
    ``zero_state``, its norm and a copy (medians of 40 instances).  The
    width is checked (``_check_width``) before the buffer is allocated."""
    n = circuit.n_qubits
    _check_width(n)
    psi = np.empty(1 << n, dtype=np.complex128)
    psi.fill(0.0)
    psi[0] = 1.0
    return _run_steps(psi, circuit, 1.0)


def _run_steps(psi: np.ndarray, circuit: Circuit, norm_sq: float) -> StateVector:
    """Run ``circuit``'s plan on the buffer ``psi`` in place and return the
    state that takes it over; ``CircuitError`` if its squared norm is no
    longer ``norm_sq`` within ``NORM_ATOL``."""
    n = circuit.n_qubits
    for step in circuit._steps:
        if type(step) is Gate:
            apply_gate(psi, step, n)
        else:
            step.apply(psi)
    out = StateVector._owning(n, psi)
    drift = abs(out.norm_sq - norm_sq)
    if not drift <= NORM_ATOL:
        raise CircuitError(f"circuit changed the squared norm by {drift:.3g} > {NORM_ATOL}")
    return out


def build_unitary(circuit: Circuit) -> np.ndarray:
    """Full ``2**n x 2**n`` matrix of ``circuit``, for n <= 12: each gate
    applied once, by ``apply_gate``, to every column of the identity at
    once (``_period_matrix``).

    Raises ``CircuitError`` if a column's squared norm is off 1 by more
    than ``NORM_ATOL`` or is no longer a number (a NaN angle), as
    ``apply_circuit`` does for one state.
    """
    if circuit.n_qubits > MAX_UNITARY_QUBITS:
        raise CapacityError(
            f"unitary of {circuit.n_qubits} qubits exceeds the cap of {MAX_UNITARY_QUBITS}"
        )
    u = _period_matrix(circuit.gates, range(circuit.n_qubits))
    # real and imaginary parts are views: no matrix-sized temporaries
    norm_sq = np.einsum("ij,ij->j", u.real, u.real) + np.einsum("ij,ij->j", u.imag, u.imag)
    drift = np.abs(norm_sq - 1.0).max()
    if not drift <= NORM_ATOL:
        raise CircuitError(f"a column's squared norm moved by {drift:.3g} > {NORM_ATOL}")
    return u


def _check_register(register: tuple[int, ...], n: int) -> None:
    if any(q < 0 or q >= n for q in register):
        raise CircuitError("register qubit outside state width")
    if len(set(register)) != len(register):
        raise CircuitError("register repeats a qubit")


def marginal_probabilities(state: StateVector, register: Sequence[int]) -> np.ndarray:
    """Outcome distribution of ``register``; bit ``j`` of the outcome is
    ``register[j]``.

    One call is one pass over ``probabilities``, and a register on the
    lowest qubits costs the most: numpy then sums in inner rows of 2-8
    amplitudes (at n = 18 on a 2-vCPU Xeon, 1.4-5.4 ms for one of qubits
    0-3 against 0.1-0.2 ms from qubit 8 up).  For every single-qubit
    marginal of a state, call ``qubit_marginals`` once instead (0.4 ms
    for all 18)."""
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


def qubit_marginals(state: StateVector) -> np.ndarray:
    """Every single-qubit marginal of ``state`` at once: row ``q`` of the
    ``(n, 2)`` result is ``[P(q = 0), P(q = 1)]``.

    ``probabilities`` is viewed as a ``(2**(n - n//2), 2**(n//2))`` matrix
    and summed once over each axis, giving the distributions of the high
    and of the low qubits; each qubit's pair is then read off the short
    vector that holds it.  Two passes over the state replace a pass per
    qubit.  The sums run in another order than ``marginal_probabilities``,
    so the last bits can differ from its results."""
    n = state.n_qubits
    low = n // 2
    probs = state.probabilities.reshape(1 << (n - low), 1 << low)
    out = np.empty((n, 2))
    for base, part in ((0, probs.sum(axis=0)), (low, probs.sum(axis=1))):
        k = part.size.bit_length() - 1
        for j in range(k):
            out[base + j] = part.reshape(1 << (k - 1 - j), 2, 1 << j).sum(axis=(0, 2))
    return out


def certain_outcome(probs: np.ndarray) -> int | None:
    """The outcome of ``probs`` with probability at least
    ``1 - ATOL_DECODE``, or None when no outcome is that certain (or a
    probability is NaN): the certainty rule of the basis readouts.  For a
    basis state ``|y>`` this probability is its fidelity with the state, so
    the rule agrees with ``encodings.decode``'s fidelity check."""
    top = int(np.argmax(probs))
    return top if probs[top] >= 1.0 - ATOL_DECODE else None


def check_shots(shots: int, least: int) -> None:
    """Raise ``CircuitError`` unless ``shots`` is an integer >= ``least``:
    the one check of every shot count."""
    if not _is_integer(shots) or shots < least:
        raise CircuitError(f"shots must be an integer >= {least}, got {shots!r}")


def seeded_generator(seed: int) -> np.random.Generator:
    """numpy's PCG64 generator seeded with ``seed``, the source of every
    draw.  Raises ``CircuitError`` unless ``seed`` is an integer >= 0: a
    ``None`` seed would draw fresh entropy, and no run could be repeated."""
    if not _is_integer(seed) or seed < 0:
        raise CircuitError(f"seed must be an integer >= 0, got {seed!r}")
    return np.random.Generator(np.random.PCG64(seed))


def _draws(state: StateVector, shots: int, seed: int) -> np.ndarray:
    """``shots`` basis-state indices drawn from ``state`` with PCG64(seed)
    (``seeded_generator``).

    The draws are byte-equal to ``Generator(PCG64(seed)).choice(size,
    shots, p=probs / probs.sum())``: this is the inverse-CDF lookup that
    ``choice`` runs, without its re-checks of ``p`` (NaN and sign scans, a
    compensated sum), none of which can fail on ``|amplitudes|**2`` over a
    finite, positive total.  A state whose squared norm is 0, infinite or
    NaN cannot be sampled and raises ``CircuitError``."""
    check_shots(shots, 1)
    probs = state.probabilities
    total = probs.sum()
    if not 0.0 < total < np.inf:
        raise CircuitError(f"cannot sample a state of squared norm {total}")
    cdf = (probs / total).cumsum()
    cdf /= cdf[-1]
    uniforms = seeded_generator(seed).random(shots)
    # Searched in ascending order, consecutive lookups walk nearby parts of
    # the cdf: at n = 18 and 8192 shots on a 2-vCPU Xeon that took 0.6 ms
    # against 1.2 ms, sort included.  Each draw is still its own uniform's
    # lookup.
    order = uniforms.argsort()
    draws = np.empty(shots, dtype=np.intp)
    draws[order] = cdf.searchsorted(uniforms[order], side="right")
    return draws


def _outcomes(draws: np.ndarray, register: Sequence[int]) -> np.ndarray:
    """Each draw's outcome on ``register``: bit ``j`` is ``register[j]``.

    Each maximal run of consecutive ascending qubits (equal ``q - j``) is
    moved into place by one shift and mask, so a whole-state register
    such as ``range(18)`` is one pass over the draws, not one per bit: for
    8192 draws at n = 18 on a 2-vCPU Xeon, 0.33-0.37 ms against
    0.57-0.70 ms, ``tolist`` included."""
    out = np.zeros(draws.size, dtype=np.int64)
    for _, group in itertools.groupby(enumerate(register), lambda jq: jq[1] - jq[0]):
        (j, q), *rest = group
        out |= ((draws >> q) & ((2 << len(rest)) - 1)) << j
    return out


def sample_shots(
    state: StateVector,
    registers: Mapping[str, Sequence[int]],
    shots: int,
    seed: int,
) -> list[ShotRecord]:
    """Draw ``shots`` i.i.d. outcomes; identical ``(seed, shots)`` reproduce
    identical records bit for bit.  Each record has a dict of its own,
    keyed in the order of ``registers``.

    The dicts are made empty and filled one register at a time, a loop of
    plain item stores over that register's outcomes.  At n = 18 with one
    register and 8192 shots on a 2-vCPU Xeon the dicts take 2.1-2.5 ms
    (4.6-6.6 ms as a ``dict(zip(names, bits))`` per shot), the records
    2.4-2.7 ms and the draw (``_draws``) 3.2-3.6 ms."""
    for qs in registers.values():
        _check_register(tuple(qs), state.n_qubits)
    draws = _draws(state, shots, seed)
    dicts = [{} for _ in range(shots)]
    for name, qs in registers.items():
        for bits, outcome in zip(dicts, _outcomes(draws, qs).tolist()):
            bits[name] = outcome
    # ``tuple.__new__(ShotRecord, fields)`` is what ``ShotRecord._make`` runs,
    # without a Python-level call per shot.
    fields = zip(dicts, range(shots), itertools.repeat(seed))
    return list(map(tuple.__new__, itertools.repeat(ShotRecord), fields))


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
