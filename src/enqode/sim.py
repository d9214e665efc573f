"""Dense state-vector simulator.

Conventions used throughout the package:

* Qubit 0 is the least-significant bit of a basis-state integer, so the
  amplitude of ``|x>`` lives at array index ``x``.  Printed kets such as
  ``|x2 x1 x0>`` are a display convention only.
* A ``StateVector`` holds a read-only complex128 array of length
  ``2**n_qubits``, 1 <= n_qubits <= ``MAX_QUBITS``.  ``apply_circuit``
  copies it once into a buffer it owns.  ``run`` starts from ``|0...0>``
  with no state to copy and grows it qubit by qubit, as the compact state
  of the qubits touched so far at the front of the buffer (the rule is
  given at ``run``).  Each step updates the buffer in place, and the
  resulting state takes the buffer over, read-only, without another
  copy.
* A gate's action is written in one place.  Every ``(*controls, target)``
  kind is defined by ``gate_blocks`` in the compact form of its family: a
  flip (X, CNOT), one phase (P, and CP with one or more controls), one
  dense 2x2 (H), or real ``c`` and ``s`` vectors with one entry per
  control pattern (RY, ``mry``).  A flip, phase or dense form acts only
  when every control reads 1, so the kind, not a scan, says which patterns
  are the identity; in the RY form they are those with ``s == 0``.  SWAP
  and PERMUTATION are index maps; ``cswap`` is a PERMUTATION.
* Every update acts on one view of the buffer (``_view_shape``): one
  length-2 axis per qubit it touches, the qubits in descending order
  between gap axes that merge the qubits in between, so a qubit's axis is
  one past twice the number of higher qubits (``_axes``).  A step that
  reads a local index, bit i = ``qubits[i]``, gathers that view with the
  axes of ``qubits`` first, ``qubits[-1]`` leading (``_qubit_major``): a
  ``(2**k, rest)`` reshape then indexes its rows by the local index.
  Permutations, powers and the FFT gather this way.
* The kernel keeps nothing per gate: ``apply_gate`` reads a gate's
  compact form on every call and updates by it the target-0/target-1
  halves of each control pattern that acts, on the view of its qubits
  (``_layout``).  Halves larger than
  ``_SLAB`` amplitudes are updated slab by slab (``_slabs``), so the
  temporaries stay in cache; the arithmetic per amplitude is the same, so
  results are bit for bit those of one whole-half pass.  SWAP and
  PERMUTATION copy the rows their table moves.  ``apply_gate`` is the
  only code that applies a lone gate to a state.
* A repeat's period matrix is built on the identity item by item
  (``_period_matrix``): a P or CP scales the rows where its qubits read 1,
  any other gate runs on the rows by ``apply_gate`` as in
  ``build_unitary`` (``_unitary``), and a reflection is one low-rank
  update.
* Every qubit tuple, a gate's, a block's or a register's, passes one
  check (``_check_qubits``): plain ints, none repeated, inside the width
  where one is known.  Anything else raises ``CircuitError`` when made.
* A circuit stores its items: gates, and declared blocks that builders use
  to declare structure.  Every item answers one protocol: ``qubits``,
  ``gates`` (its flat expansion; a gate's is itself), ``inverse()`` and
  ``shifted(offset)``.  All five blocks answer it through one base
  (``_Block``): fields that describe the forward block, ``inverted``
  marking its adjoint, a forward expansion, and an ``==`` that agrees
  with the hash.  ``inverse``, ``concat``, ``shifted`` and the run read
  the items, so running a circuit expands no block; the flat list
  ``Circuit.gates`` is made on first read, for ``lowered()``, ``depth``,
  ``cnot_count``, ``==`` and ``build_unitary``.  ``apply_circuit`` and
  ``run`` run the execution plan (``_execution_plan``), made once per
  circuit from the items for each of them (``Circuit._steps`` from width
  n, ``Circuit._grown_steps`` from width 0): each block as one step, gates
  by ``apply_gate``, and from width 0 a growth (``_Grow``) wherever an
  item first touches a qubit, every other step relabelled onto the
  touched qubits.  There are five blocks; the four that are items run on the
  ``_view_shape`` view of their qubits:

  - ``Repeat``: gates and reflections applied ``count`` times back to
    back, or a ladder of such repeats (phase estimation's controlled
    powers).  On at most ``_POWER_QUBITS`` qubits, a ladder's control left
    out, its step is its ``2**k``-square matrix raised to the count, or a
    ladder's control-1 block raised to each rung's count and applied where
    the rung's control reads 1.  The repeat keeps that matrix and its
    powers, and its adjoint, the same fields with ``inverted`` set, shares
    them.  Met from width 0 right after the H layer that inserts its
    controls on top, a ladder is one step with that layer, which doubles
    the rows of the controls rung by rung (``_Doubling``).  A wider repeat
    runs gate by gate.
  - ``Reflection``: ``F (I - 2 P) F^dagger``, a Grover operator's
    reflection about the state that the items F prepare, met only in a
    repeat's period.  Its part of the period's matrix is made from the
    columns of F that P keeps, for QAE ``F|0...0>`` alone, and not from
    F's gates.
  - ``Diagonal``: a diagonal unitary (an amplitude load's phase pass),
    expanded as one multiplexed RZ per qubit and run as one elementwise
    multiply by its diagonal (Bullock & Markov, quant-ph/0303039).
  - ``Qft``: the quantum Fourier transform or its inverse, expanded as
    its H and controlled-phase ladder and run as one orthonormal FFT per
    slab (Häner et al., arXiv 1604.06460).
  - ``Pyramid``: an amplitude load's cascade of multiplexed RY rotations,
    held as its angle tree in heap order and expanded as one ``mry`` per
    stage.  Met at width 0 on ascending qubits, its step is the state it
    prepares, made in the plan (``_Prepared``); anywhere else it is planned
    as its stages, one gate at a time.

  Every other gate runs through ``apply_gate``.  A block's step agrees
  with the gate-by-gate run of its gates within ``EQUIV_ATOL``, not bit
  for bit.
* Builders may emit the native multiplexer ``mry``; a controlled RY
  (``cry``) is one, with angles ``(0, theta)``.  ``Circuit.lowered``
  rewrites each one as its Gray-code walk of RY and CNOT gates
  (``gray_walk``).  ``Circuit.cnot_count`` and ``Circuit.depth`` describe
  that lowered circuit, counted off the walk's control positions without
  building it, so they count CNOTs.  CP (with one control or many), SWAP
  and PERMUTATION are not lowered and count 0 CNOTs.
* A state computes ``|amplitudes|**2`` once, on first use
  (``StateVector.probabilities``), and every marginal, draw and decode of
  it reads that array.  ``sample_shots`` and ``sample_counts`` look the
  same seeded uniforms up in one cdf (``_cdf``) as ``Generator.choice``
  does: ``sample_shots`` in draw order (``_draws``), ``sample_counts``
  sorted, since a histogram has no order.
  ``sample_shots`` makes its records with the cyclic collector paused.
* All randomness goes through numpy's PCG64 generator, made by
  ``seeded_generator`` from an explicit integer seed, so every stochastic
  operation is bit-reproducible from its seed.

The hard cap of 24 qubits keeps a state below 256 MB, and the cap of 12
qubits on ``build_unitary`` keeps its matrix to the same budget.  That
matrix is built in place, every gate applied once by ``apply_gate`` to
the flattened identity (``_unitary``), so it is the only large
allocation: each update's temporaries stay slab-sized.
"""
from __future__ import annotations

import gc
import itertools
from dataclasses import dataclass, field, fields, replace
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
_H_ENTRIES = (float(_SQRT1_2), float(_SQRT1_2), float(_SQRT1_2), -float(_SQRT1_2))
_SWAP_TABLE = (0, 2, 1, 3)  # local bits 0 <-> 1
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
# A ``Repeat`` runs as matrix powers (``_repeat_step``) when its gates
# touch at most this many qubits, a ladder's control left out.  Building
# the matrix (``_period_matrix``) costs about 4**k per gate, one
# ``apply_gate`` on the identity's rows, and each squaring 8**k.  Over
# amplitude -> equally-weighted conversions (build, plan and run; medians
# of 5 on a 2-vCPU Xeon, one BLAS thread), whose ladder blocks act on 5, 7
# and 9 qubits at n = 2, 3 and 4: at n = 3 a cap of 7 took 1.9-13x less
# time than 6 for m = 3..7 and 1.2x more at m = 2; at n = 4 a cap of 9
# took 1.4-7.5x more for m = 2..4 and 2-4x less for m = 5, 6.  QAE at
# n = 3 (3 qubits) and n = 2 did not move.
_POWER_QUBITS = 7


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
    basis indices and must be a bijection of integers, kept as plain ints.
    ``angle`` and every entry of ``angles`` must be real numbers (not
    bools), kept as floats.  A gate sets no field its kind does not read.
    A gate that breaks these rules, or of an unknown kind, raises
    ``CircuitError`` when it is made.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    angles: tuple[float, ...] | None = None
    table: tuple[int, ...] | None = None

    def __post_init__(self):
        kind, qubits = self.kind, self.qubits
        counts = _QUBIT_COUNTS.get(kind)
        if counts is None:
            raise CircuitError(f"unknown gate kind {kind!r}")
        checked = _check_qubits(qubits)
        if checked is not qubits:
            object.__setattr__(self, "qubits", checked)
            qubits = checked
        if not counts[0] <= len(qubits) <= counts[1]:
            raise CircuitError(f"gate {kind} cannot act on {len(qubits)} qubits: {qubits}")
        if self.angle is None and kind in (RY, PHASE, CP):
            raise CircuitError(f"gate {kind} needs an angle")
        read = "angle" if kind in (RY, PHASE, CP) else {MULTIPLEXED_RY: "angles", PERMUTATION: "table"}.get(kind)
        for name in ("angle", "angles", "table"):
            if name != read and getattr(self, name) is not None:
                raise CircuitError(f"gate {kind} takes no {name}")
        if self.angle is not None and type(self.angle) is not float:
            object.__setattr__(self, "angle", _real(self.angle))
        if self.angles is not None:
            try:
                angles = tuple(self.angles)
            except TypeError:
                raise CircuitError(f"angles must be a sequence of real numbers, got {self.angles!r}") from None
            object.__setattr__(self, "angles", angles if set(map(type, angles)) == {float} else tuple(map(_real, angles)))
        if kind == MULTIPLEXED_RY:
            k = len(qubits) - 1
            if self.angles is None or len(self.angles) != 1 << k:
                raise CircuitError(f"mry with {k} controls needs {1 << k} angles, got {len(self.angles or ())}")
        elif kind == PERMUTATION:
            try:
                table = tuple(map(int, self.table)) if all(map(_is_integer, self.table)) else None
            except TypeError:
                table = None
            if table is None or len(table) != 1 << len(qubits) or sorted(table) != list(range(len(table))):
                raise CircuitError(f"permutation table must be a bijection of integers on basis indices, got {self.table!r}")
            object.__setattr__(self, "table", table)

    @property
    def gates(self) -> tuple["Gate", ...]:
        """The gate itself: a gate is its own flat expansion."""
        return (self,)

    def on(self, qubits: Sequence[int]) -> "Gate":
        """The same gate with ``qubits[i]`` in place of its i-th wire."""
        return Gate(self.kind, tuple(qubits), self.angle, self.angles, self.table)

    def shifted(self, offset: int) -> "Gate":
        """The same gate with every qubit moved up by ``offset``.  A plain
        int keeps the qubits plain, distinct ints, so they are not checked
        again; only an offset that takes one below 0 raises
        ``CircuitError``."""
        if type(offset) is not int:
            return self.on([q + offset for q in self.qubits])
        if min(self.qubits) + offset < 0:
            raise CircuitError(f"gate {self.kind} on {self.qubits} shifted by {offset} reaches below qubit 0")
        return _unchecked(self, qubits=tuple([q + offset for q in self.qubits]))

    def inverse(self) -> "Gate":
        """The adjoint gate, of the same kind; a new gate unless self-inverse.
        A caller repeating an inverse declares a ``Repeat``."""
        if self.kind in (X, H, CNOT, SWAP):
            return self
        if self.kind in (RY, PHASE, CP):
            return _unchecked(self, angle=-self.angle)
        if self.kind == MULTIPLEXED_RY:
            return _unchecked(self, angles=tuple([-a for a in self.angles]))
        inv = [0] * len(self.table)
        for src, dst in enumerate(self.table):
            inv[dst] = src
        return _unchecked(self, table=tuple(inv))


def _real(value) -> float:
    """``value`` as a float, the one check of every angle and confidence
    level: an int, float or numpy real, not a bool; anything else raises
    ``CircuitError``.  A NaN passes, and fails the norm check of the run
    that meets it."""
    if type(value) is bool or not isinstance(value, (int, float, np.integer, np.floating)):
        raise CircuitError(f"expected a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise CircuitError(f"{value!r} is too large for a float") from None


def _reals(values) -> np.ndarray:
    """``values`` as a read-only flat float64 copy, the one check of a
    block's angles or phases: integers or floats, as ``_real`` takes them;
    bools, complex numbers, objects or strings raise ``CircuitError``."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise CircuitError(f"angles must be real numbers, got an array of {array.dtype}")
    array = array.astype(np.float64).ravel()
    array.setflags(write=False)
    return array


def _unchecked(item, **changes):
    """A copy of the checked circuit item ``item`` with ``changes`` made to
    its fields, made without its ``__post_init__``: for changes that keep
    it valid, such as an adjoint's angles, table or flag, or qubits moved
    by a plain int.  Values cached on ``item`` are copied too, so a change
    must leave what they are computed from as it was."""
    out = object.__new__(type(item))
    out.__dict__.update(item.__dict__, **changes)
    return out


def _inverted(gates: Sequence[Gate]) -> tuple[Gate, ...]:
    """The adjoint of a gate list: each gate's inverse, in reverse order."""
    return tuple(g.inverse() for g in reversed(gates))


class _Block:
    """The protocol of the declared blocks ``Reflection``, ``Repeat``,
    ``Diagonal``, ``Pyramid`` and ``Qft``, whose fields describe the
    forward block, ``inverted`` (a bool) alone marking its adjoint:
    ``gates`` is the forward expansion ``_forward``, or its adjoint;
    ``inverse()`` flips ``inverted`` on a copy that keeps what is cached;
    ``shifted`` makes the block anew from its fields, each tuple field
    (qubits or items) moved.  Blocks are equal when their fields are,
    arrays by value, and hash by ``qubits`` and ``inverted``, so a -0.0 for
    a 0.0 changes neither.  ``Reflection``, ``Repeat`` and ``Qft``, with no
    array, keep their dataclass's ``==`` and hash."""

    def __post_init__(self):
        if type(self.inverted) is not bool:
            raise CircuitError(f"inverted must be a bool, got {self.inverted!r}")

    @property
    def gates(self) -> tuple[Gate, ...]:
        return _inverted(self._forward) if self.inverted else self._forward

    def inverse(self):
        return _unchecked(self, inverted=not self.inverted)

    def shifted(self, offset: int):
        moved = lambda v: v + offset if type(v) is int else v.shifted(offset)
        values = (getattr(self, f.name) for f in fields(self))
        return type(self)(*(tuple(map(moved, v)) if type(v) is tuple else v for v in values))

    def __eq__(self, other) -> bool:
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return type(other) is type(self) and all(np.array_equal(a, b) if type(a) is np.ndarray else a == b for a, b in pairs)

    def __hash__(self) -> int:
        return hash((self.qubits, self.inverted))


@dataclass(frozen=True)
class Reflection(_Block):
    """A declared block, met only in a ``Repeat``'s period: ``F (I - 2 P)
    F^dagger``, a Grover operator's reflection about the encoded state
    (Brassard et al., quant-ph/0005055), with ``F`` the circuit items
    ``items`` and ``P`` the projector onto the states where ``reflected``
    reads 0 and ``controls`` read 1.  Its forward expansion is
    ``F``-inverse, an X on each reflected qubit, a phase of pi where they
    and the controls read 1, the X layer and ``F``, and ``inverted`` marks
    its adjoint.  Its part of a period's matrix is made without it, from
    the columns of ``F`` that ``P`` keeps (``_period_matrix``)."""

    items: tuple
    reflected: tuple[int, ...]
    controls: tuple[int, ...] = ()
    inverted: bool = False

    def __post_init__(self):
        super().__post_init__()
        items, reflected, controls = tuple(self.items), _check_qubits(self.reflected), _check_qubits(self.controls)
        if not reflected or not set(map(type, items)) <= _ITEM_TYPES:
            raise CircuitError("a reflection needs a reflected qubit, and an F of gates and declared blocks")
        touched = {q for i in items for q in i.qubits}.union(reflected)
        _check_qubits((*touched, *controls))  # no control on F or a reflected qubit
        qubits = tuple(sorted(touched.union(controls)))
        for name, value in zip(("items", "reflected", "controls", "qubits"), (items, reflected, controls, qubits)):
            object.__setattr__(self, name, value)

    @cached_property
    def _forward(self) -> tuple[Gate, ...]:
        f = tuple(itertools.chain.from_iterable(i.gates for i in self.items))
        flips = tuple(map(x, self.reflected))
        qubits = (*self.controls, *self.reflected)
        return (*_inverted(f), *flips, Gate(CP if len(qubits) > 1 else PHASE, qubits, angle=np.pi), *flips, *f)


@dataclass(frozen=True)
class Repeat(_Block):
    """A declared block: the tuple ``period`` of gates and ``Reflection``
    blocks applied ``count`` times in a row.  On at most ``_POWER_QUBITS``
    qubits its plan step, for any count, is one power of the period's
    matrix (``_period_matrix``); a wider repeat runs gate by gate.

    With ``controls`` it is a ladder (phase estimation's controlled
    powers): the period is written controlled on ``controls[0]`` and
    declared the identity where that wire reads 0, which only a test can
    check (``build_unitary`` of the period).  It may touch the wire only as
    a control of a CNOT, CP, ``mry`` or reflection, or by a P on it alone
    (``_control_one``); any other gate on it raises ``CircuitError``.  Rung
    j is the period moved onto ``controls[j]`` and applied ``count * 2**j``
    times; the forward expansion lists the rungs in order.  Its plan step
    powers the matrix of the period's control-1 block (``_repeat_step``),
    on at most ``_POWER_QUBITS`` qubits once the control is left out.

    Its fields describe the forward repeat; ``inverted`` marks its adjoint.
    It keeps the block its step powers (``_block``: a ladder's control-1
    block, or a plain repeat's period and 1.0) and the powers a plan made
    of its matrix (``_powers``), which an adjoint shares and runs the
    adjoints of."""

    period: tuple[Gate | Reflection, ...]
    count: int
    controls: tuple[int, ...] = ()
    inverted: bool = False

    def __post_init__(self):
        super().__post_init__()
        if type(self.period) is not tuple or not self.period or not set(map(type, self.period)) <= {Gate, Reflection}:
            raise CircuitError("a repeat holds a non-empty tuple of gates and reflections")
        if not _is_integer(self.count) or self.count < 1:
            raise CircuitError(f"repeat count must be an integer >= 1, got {self.count!r}")
        controls = _check_qubits(self.controls)
        object.__setattr__(self, "controls", controls)
        if controls:
            touched = {q for g in self.period for q in g.qubits}
            if controls[0] not in touched:
                raise CircuitError(f"a ladder's period must act on its control {controls[0]}")
            _check_qubits((*touched.difference(controls[:1]), *controls))
        object.__setattr__(self, "_block", _control_one(self.period, controls[0]) if controls else (self.period, 1.0))
        object.__setattr__(self, "_powers", {})

    @property
    def _forward(self) -> tuple[Gate, ...]:
        period = tuple(itertools.chain.from_iterable(g.gates for g in self.period))
        if not self.controls:
            return period * self.count
        first = self.controls[0]
        rungs = (
            tuple(_unchecked(g, qubits=tuple(c if q == first else q for q in g.qubits)) if first in g.qubits else g for g in period)
            * (self.count << j)
            for j, c in enumerate(self.controls)
        )
        return tuple(itertools.chain.from_iterable(rungs))

    @cached_property
    def qubits(self) -> tuple[int, ...]:
        return tuple(sorted({q for g in self.period for q in g.qubits}.union(self.controls)))


def _control_one(period: Sequence[Gate | Reflection], control: int) -> tuple[list[Gate | Reflection], complex]:
    """The control-1 block of ``period``, a ladder's period that acts on
    ``control`` only as a control: its items with ``control`` dropped, and
    the scalar that the phases on ``control`` alone multiply together.  A
    CP or a reflection loses the control (a CP on one qubit is a P), a CNOT
    from it is an X on its target, and an ``mry`` over it keeps the angles
    of the patterns where it reads 1.  Any other item on ``control`` raises
    ``CircuitError``."""
    gates: list[Gate | Reflection] = []
    scalar = 1.0
    for g in period:
        qubits = g.qubits
        if control not in qubits:
            gates.append(g)
            continue
        rest = tuple(q for q in qubits if q != control)
        if type(g) is Reflection:
            if control not in g.controls:
                raise CircuitError(f"a reflection on {qubits} acts on the ladder's control {control} not as a control")
            gates.append(replace(g, controls=tuple(q for q in g.controls if q != control)))
        elif g.kind == PHASE:
            scalar *= gate_blocks(g)[1]
        elif g.kind == CP:
            gates.append(_unchecked(g, kind=PHASE if len(rest) == 1 else CP, qubits=rest))
        elif g.kind == CNOT and qubits[0] == control:
            gates.append(_unchecked(g, kind=X, qubits=rest))
        elif g.kind == MULTIPLEXED_RY and qubits[-1] != control:
            bit = 1 << qubits.index(control)
            gates.append(_unchecked(g, qubits=rest, angles=tuple(a for j, a in enumerate(g.angles) if j & bit)))
        else:
            raise CircuitError(f"gate {g.kind} on {qubits} acts on the ladder's control {control} not as a control")
    return gates, scalar


@dataclass(frozen=True, eq=False)
class Diagonal(_Block):
    """A declared block: the diagonal unitary that multiplies basis state
    ``|b>`` of ``qubits`` (bit j of b = ``qubits[j]``) by
    ``exp(1j*(phases[b] - mean(phases)))``, or its adjoint when
    ``inverted``.  ``phases`` is kept as a read-only float64 array.

    Its forward expansion is one multiplexed RZ per qubit, written as ``H,
    P(pi/2), mry, P(-pi/2), H`` (RZ = H S^dag RY S H): the RZ on
    ``qubits[t]`` is multiplexed over ``qubits[t+1:]`` by the phase
    differences of adjacent pairs, and the pair means pass on to the next
    qubit (Bullock & Markov, quant-ph/0303039).  That diagonal is exactly
    the one above, global phase included.  Its plan step, which needs no
    expansion, is one elementwise multiply by it.
    """

    phases: np.ndarray
    qubits: tuple[int, ...]
    inverted: bool = False

    def __post_init__(self):
        super().__post_init__()
        phases = _reals(self.phases)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "qubits", _check_qubits(self.qubits))
        if not self.qubits or phases.size != 1 << len(self.qubits):
            raise CircuitError(f"a diagonal needs 2**k phases on k >= 1 qubits, got {phases.size} on {self.qubits}")

    @cached_property
    def _forward(self) -> tuple[Gate, ...]:
        work = self.phases
        gates: list[Gate] = []
        for t, q in enumerate(self.qubits):
            deltas, work = work[1::2] - work[0::2], (work[0::2] + work[1::2]) / 2.0
            gates += [h(q), p(np.pi / 2, q), multiplexed_ry(deltas, self.qubits[t + 1 :], q), p(-np.pi / 2, q), h(q)]
        return tuple(gates)


@dataclass(frozen=True, eq=False)
class Pyramid(_Block):
    """A declared block: the cascade of uniformly controlled RY rotations
    that loads an angle tree (Grover & Rudolph, quant-ph/0208112; Mottonen
    et al., quant-ph/0407010), or its adjoint when ``inverted``.
    ``angles`` is the tree in heap order, ``2**k - 1`` angles for k
    ``qubits``, kept as a read-only float64 array.

    Stage j rotates ``qubits[k-1-j]`` by level j of the tree,
    ``angles[2**j - 1 : 2**(j+1) - 1]``, multiplexed over ``qubits[k-j:]``.
    Its forward expansion is one ``mry`` per stage.  On ascending qubits at
    width 0 its plan step is the state it prepares (``_state``); elsewhere
    it is planned as its stages (``_execution_plan``)."""

    angles: np.ndarray
    qubits: tuple[int, ...]
    inverted: bool = False

    def __post_init__(self):
        super().__post_init__()
        angles = _reals(self.angles)
        object.__setattr__(self, "angles", angles)
        qubits = _check_qubits(self.qubits)
        object.__setattr__(self, "qubits", qubits)
        if not 1 <= len(qubits) <= MAX_QUBITS or angles.size != (1 << len(qubits)) - 1:
            raise CircuitError(f"a pyramid needs 2**k - 1 angles on 1 <= k <= {MAX_QUBITS} qubits, "
                               f"got {angles.size} on {qubits}")

    @cached_property
    def _forward(self) -> tuple[Gate, ...]:
        q, k = self.qubits, len(self.qubits)
        return tuple(multiplexed_ry(self.angles[(1 << j) - 1 : (2 << j) - 1], q[k - j :], q[k - 1 - j]) for j in range(k))

    @cached_property
    def _state(self) -> np.ndarray:
        """The state the forward pyramid makes from ``|0...0>`` on ascending
        fresh qubits, byte-equal to growing it stage by stage: ``[c, s]`` of
        the root, then level by level each amplitude times its pattern's
        ``c`` and ``s``, the new qubit's bit lowest, from one ``cos`` and
        one ``sin`` over the half-angles as ``gate_blocks`` makes them.  A
        growth's products are complex; these are real, their imaginary part
        +0 once written into the buffer, unless a factor's sign bit is set,
        which can leave a -0 there.  Read-only; a reflection about a load's
        state reads it again."""
        half = self.angles / 2.0
        m = half.size
        cs = np.empty(2 * m)
        c, s = np.cos(half, out=cs[:m]), np.sin(half, out=cs[m:])
        # a set sign bit (a negative, -0.0 or a NaN) reads as a negative int64
        dtype = np.complex128 if cs.view(np.int64).min() < 0 else np.float64
        state = np.array([c[0], s[0]], dtype=dtype)
        for w in (1 << j for j in range(1, len(self.qubits))):
            grown = np.empty((w, 2), dtype=dtype)
            np.multiply(state, c[w - 1 : 2 * w - 1], out=grown[:, 0])
            np.multiply(state, s[w - 1 : 2 * w - 1], out=grown[:, 1])
            state = grown.reshape(-1)
        state.setflags(write=False)
        return state


@dataclass(frozen=True)
class Qft(_Block):
    """A declared block: the quantum Fourier transform on ``qubits``,
    ``|x> -> 2**(-k/2) * sum_y exp(2*pi*i*x*y/2**k) |y>`` with
    ``qubits[0]`` as the low bit of ``x`` and ``y``, or its inverse when
    ``inverted``.  Its plan step is one orthonormal FFT
    (``_execution_plan``)."""

    qubits: tuple[int, ...]
    inverted: bool = False

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "qubits", _check_qubits(self.qubits))
        if not self.qubits:
            raise CircuitError("a qft acts on at least one qubit")

    @cached_property
    def _forward(self) -> tuple[Gate, ...]:
        """From the top local bit down, an H, then a CP of ``pi/2**d`` from
        each lower bit at distance d; then swaps that reverse the bit
        order."""
        qubits, k = self.qubits, len(self.qubits)
        gates: list[Gate] = []
        for i in range(k - 1, -1, -1):
            gates.append(h(qubits[i]))
            for j in range(i - 1, -1, -1):
                gates.append(cp(np.pi / (1 << (i - j)), qubits[j], qubits[i]))
        for j in range(k // 2):
            gates.append(swap(qubits[j], qubits[k - 1 - j]))
        return tuple(gates)


_ITEM_TYPES = frozenset((Gate, Repeat, Diagonal, Qft, Pyramid))


def x(q: int) -> Gate:
    return Gate(X, (q,))


def h(q: int) -> Gate:
    return Gate(H, (q,))


def ry(theta: float, q: int) -> Gate:
    return Gate(RY, (q,), angle=theta)


def p(theta: float, q: int) -> Gate:
    return Gate(PHASE, (q,), angle=theta)


def cnot(control: int, target: int) -> Gate:
    return Gate(CNOT, (control, target))


def cp(theta: float, control: int, target: int) -> Gate:
    return Gate(CP, (control, target), angle=theta)


def swap(a: int, b: int) -> Gate:
    return Gate(SWAP, (a, b))


def cswap(control: int, a: int, b: int) -> Gate:
    """Controlled SWAP (Fredkin): ``a`` and ``b`` trade values when
    ``control`` reads 1."""
    return controlled_swap((control,), 1, a, b)


def controlled_swap(controls: Sequence[int], pattern: int, a: int, b: int) -> Gate:
    """``a`` and ``b`` trade values when ``controls`` read ``pattern``
    (bit i = ``controls[i]``): a PERMUTATION on ``(*controls, a, b)`` that
    exchanges the local indices where ``a`` and ``b`` differ under that
    pattern and fixes every other."""
    k = len(controls)
    table = [i ^ (3 << k) if i % (1 << k) == pattern and (i >> k) in (1, 2) else i for i in range(4 << k)]
    return permutation(table, (*controls, a, b))


def cry(theta: float, control: int, target: int) -> Gate:
    """Controlled RY: the multiplexer that rotates by ``theta`` when
    ``control`` reads 1, so it lowers, and counts, as two CNOTs."""
    return multiplexed_ry([0.0, theta], [control], target)


def multiplexed_ry(angles: Sequence[float], controls: Sequence[int], target: int) -> Gate:
    return Gate(MULTIPLEXED_RY, (*controls, target), angles=angles.tolist() if type(angles) is np.ndarray else angles)


def permutation(table: Sequence[int], qubits: Sequence[int]) -> Gate:
    return Gate(PERMUTATION, tuple(qubits), table=table)


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


@dataclass(frozen=True, eq=False)
class Circuit:
    """An ordered list of circuit items over ``n_qubits`` wires, with named
    registers.  ``items`` holds gates and declared blocks (``Repeat``,
    whose period may hold a ``Reflection``, ``Diagonal``, ``Qft``,
    ``Pyramid``); gates and all five blocks answer one protocol: ``qubits``,
    ``gates``, ``inverse()`` and ``shifted(offset)``.  Any other item
    raises ``CircuitError``.  The circuit stores only its items.
    ``gates``, the flat list with each block replaced by its expansion, is
    made on first read.  Two circuits are equal when their widths, flat
    lists, registers and query counts are.

    ``query_count`` counts oracle queries declared by circuit builders (e.g.
    a simulated qRAM access), an integer >= 0 kept as a plain int; it is
    not derived from the gate list.
    """

    n_qubits: int
    items: tuple[Gate | Repeat | Diagonal | Qft | Pyramid, ...] = ()
    registers: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    query_count: int = 0

    def __post_init__(self):
        n = self.n_qubits
        if not _is_integer(n) or n < 1:
            raise CircuitError(f"circuit needs an integer number of qubits >= 1, got {n!r}")
        if not _is_integer(self.query_count) or self.query_count < 0:
            raise CircuitError(f"a query count is an integer >= 0, got {self.query_count!r}")
        items = tuple(self.items)
        if not set(map(type, items)) <= _ITEM_TYPES:
            bad = next(i for i in items if type(i) not in _ITEM_TYPES)
            raise CircuitError(f"circuit item {bad!r} is neither a gate nor a declared block")
        qubits = [q for i in items for q in i.qubits]
        if qubits and max(qubits) >= n:
            bad = next(g for i in items for g in i.gates if max(g.qubits) >= n)
            raise CircuitError(f"gate {bad.kind} touches qubit outside 0..{n - 1}")
        if not isinstance(self.registers, Mapping):
            raise CircuitError(f"registers map names to qubit tuples, got {self.registers!r}")
        regs = {name: _check_qubits(qs, n) for name, qs in self.registers.items()}
        used = [q for qs in regs.values() for q in qs]
        if len(set(used)) != len(used):
            raise CircuitError(f"registers overlap: {regs}")
        object.__setattr__(self, "n_qubits", int(n))
        object.__setattr__(self, "query_count", int(self.query_count))
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "registers", regs)

    def __eq__(self, other) -> bool:
        if type(other) is not Circuit:
            return NotImplemented
        key = lambda c: (c.n_qubits, c.gates, c.registers, c.query_count)
        return key(self) == key(other)

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        """The flat gate list, each item's ``gates`` in order; made on first read."""
        return tuple(itertools.chain.from_iterable(i.gates for i in self.items))

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
            gates += gray_walk(RY, g.angles, g.qubits[:-1], g.qubits[-1]) if g.kind == MULTIPLEXED_RY else [g]
        return Circuit(self.n_qubits, gates, self.registers, self.query_count)

    @cached_property
    def _steps(self) -> tuple:
        """What ``apply_circuit`` runs: ``_execution_plan`` of the items
        from width n, computed once per circuit."""
        return _execution_plan(self.items, self.n_qubits)

    @cached_property
    def _grown_steps(self) -> tuple:
        """What ``run`` runs: ``_execution_plan`` of the items from width 0,
        growing the state from ``|0...0>``; computed once per circuit."""
        return _execution_plan(self.items, 0)

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
        """This circuit's items, then ``other``'s, with both circuits'
        registers; a name bound to different qubits raises ``CircuitError``."""
        if other.n_qubits != self.n_qubits:
            raise CircuitError("cannot concatenate circuits of different widths")
        for name in self.registers.keys() & other.registers.keys():
            if self.registers[name] != other.registers[name]:
                raise CircuitError(f"register {name!r} is bound to different qubits in the two circuits")
        registers = {**self.registers, **other.registers}
        return Circuit(self.n_qubits, self.items + other.items, registers, self.query_count + other.query_count)

    def inverse(self) -> "Circuit":
        items = tuple(i.inverse() for i in reversed(self.items))
        return Circuit(self.n_qubits, items, self.registers, self.query_count)

    def shifted(self, offset: int, n_qubits: int) -> "Circuit":
        """The same items embedded at ``offset`` in a ``n_qubits``-wide circuit."""
        items = tuple(i.shifted(offset) for i in self.items)
        regs = {k: tuple(q + offset for q in v) for k, v in self.registers.items()}
        return Circuit(n_qubits, items, regs, self.query_count)


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state over ``n_qubits`` qubits."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_width(self.n_qubits)
        object.__setattr__(self, "n_qubits", int(self.n_qubits))
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
        object.__setattr__(state, "n_qubits", int(n_qubits))
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


def _check_qubits(qubits: Sequence[int], n: int | None = None) -> tuple[int, ...]:
    """``qubits`` as a tuple of plain ints, the one check of every gate's,
    block's and register's wires: ``CircuitError`` for a qubit that is no
    integer (nor a bool), a repeated qubit, a negative qubit, and given a
    width ``n``, a qubit from ``n`` up.  A tuple of plain ints is returned
    as it is; every gate comes here, so a loop reads the types: 90-160 ns
    at 1-4 qubits on a 2-vCPU Xeon, against 350-410 ns for a set of them."""
    if type(qubits) is tuple:
        for q in qubits:
            if type(q) is not int or q < 0:
                break
        else:
            if len(qubits) > 1 and len(set(qubits)) != len(qubits):
                raise CircuitError(f"qubits {qubits} repeat a qubit")
            if n is not None and qubits and max(qubits) >= n:
                raise CircuitError(f"qubits {qubits} outside 0..{n - 1}")
            return qubits
    try:
        qubits = tuple(qubits)
    except TypeError:
        raise CircuitError(f"qubits must be a sequence of integers, got {qubits!r}") from None
    if not all(map(_is_integer, qubits)):
        raise CircuitError(f"qubits must be integers, got {qubits!r}")
    if min(qubits, default=0) < 0:
        raise CircuitError(f"qubits {qubits} include a negative qubit")
    return _check_qubits(tuple(map(int, qubits)), n)


@lru_cache(maxsize=256)
def _view_shape(qubits: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Shape of the low-rank view of an n-qubit buffer that gives each of
    ``qubits`` its own length-2 axis and merges the qubits between them:
    gap, qubit, gap, ..., qubit, gap, with the qubits in descending order
    (``_axes``).  A gap may have length 1, which keeps every selection a
    view, even at n = 1."""
    _check_qubits(qubits, n)
    shape, above = [], n
    for q in sorted(qubits, reverse=True):
        shape += [1 << (above - 1 - q), 2]
        above = q
    shape.append(1 << above)
    return tuple(shape)


@lru_cache(maxsize=256)
def _axes(qubits: tuple[int, ...]) -> tuple[int, ...]:
    """The axis of each of ``qubits``, in their order, in the
    ``_view_shape`` view of them: one past twice the number of higher
    qubits."""
    return tuple(1 + 2 * sum(r > q for r in qubits) for q in qubits)


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
    pass.  That pass views the buffer without the view's length-1 gaps and
    with adjacent control axes merged, as numpy iterates at a cost per
    axis; its layout is that shape, the target's axis in it, and the
    transpose (None for the identity) and shape that lay a vector with one
    entry per control pattern out over its axes, the target's dropped
    (``_laid_out``)."""
    shape = _view_shape(qubits, n)
    *controls, target = _axes(qubits)
    # Pattern j's control bit i is controls[i]: reshaped to (2,)*k, the
    # patterns' axes run controls[-1] .. controls[0].  Sort them into view
    # order and give the gaps of the broadcast view length-1 axes.
    order = tuple(sorted(range(len(controls)), key=controls[::-1].__getitem__))
    if order == tuple(range(len(controls))):
        order = None
    merged, coef_shape = [], []
    for a, size in enumerate(shape):
        if a == target:
            t = len(merged)
            merged.append(2)
        elif a in controls and a - 2 in controls and shape[a - 1] == 1:  # no gap between them
            merged[-1] *= 2
            coef_shape[-1] *= 2
        elif size > 1:
            merged.append(size)
            coef_shape.append(2 if a in controls else 1)
    return shape, target, tuple(controls), (tuple(merged), t, order, tuple(coef_shape))


def _laid_out(vectors: Sequence[np.ndarray], order: tuple[int, ...] | None, coef_shape: tuple[int, ...]) -> list:
    """Each of ``vectors``, one entry per control pattern, laid out over
    the control axes of a ``_layout`` broadcast pass by its ``order`` and
    ``coef_shape``."""
    if order is None:
        return [v.reshape(coef_shape) for v in vectors]
    return [v.reshape((2,) * len(order)).transpose(order).reshape(coef_shape) for v in vectors]


@lru_cache(maxsize=256)
def _moved_rows(table: tuple[int, ...]) -> tuple[tuple[np.ndarray, ...], ...]:
    """Rows ``(dst, src)`` that a permutation ``table`` moves, as read-only
    index arrays for the qubit axes of a ``_qubit_major`` block (one per
    bit of the local index, the top bit first): row ``src`` goes to row
    ``dst``, and the rows the table fixes stay."""
    table = np.array(table)
    src = np.flatnonzero(table != np.arange(table.size))
    shifts = np.arange(table.size.bit_length() - 2, -1, -1)[:, None]
    rows = (np.stack([table[src], src])[:, None] >> shifts) & 1  # (dst/src, qubit axis, moved row)
    rows.setflags(write=False)
    return tuple(rows[0]), tuple(rows[1])


def _qubit_major(
    psi: np.ndarray, shape: tuple[int, ...], qubits: tuple[int, ...], slabs: tuple[tuple, ...]
) -> Iterator[np.ndarray]:
    """Each slab of the ``_view_shape`` view ``shape`` of ``psi``, as a
    view with the axes of ``qubits`` first, ``qubits[-1]`` leading, and the
    gap axes after them: a ``(2**k, rest)`` reshape of a slab indexes its
    rows by the local index, bit i = ``qubits[i]``."""
    view = psi.reshape(shape)
    order = [*_axes(qubits)[::-1], *range(0, len(shape), 2)]
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
        dst, src = _moved_rows(gate.table or _SWAP_TABLE)
        shape = _view_shape(gate.qubits, n)
        for block in _qubit_major(psi, shape, gate.qubits, _slabs(shape, 1 << n)):
            block[dst] = block[src]
        return psi
    shape, t, controls, broadcast = _layout(gate.qubits, n)
    form, values = gate_blocks(gate)
    half = (1 << n) >> len(gate.qubits)
    if form == "ry":
        c, s = values
        if controls and half < _BLOCK_LOOP_MIN and np.count_nonzero(s) > 1:
            shape, t, order, coef_shape = broadcast
            cos, neg, sin = _laid_out((c, -s, s), order, coef_shape)
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
    """A ``Repeat``'s power, or a ladder's rung, as one dense update on
    the ``_view_shape`` view of the qubits it touches: ``matrix`` is its
    2**k-square unitary with local bit i = ``qubits[i]``, and each slab of
    ``slabs`` indexes a piece of the view that holds every value of those
    k qubits.  When ``controlled``, ``qubits[-1]`` is a control, and the
    matrix acts on ``qubits[:-1]`` only where the control reads 1."""

    matrix: np.ndarray
    qubits: tuple[int, ...]
    shape: tuple[int, ...]
    slabs: tuple[tuple, ...]
    controlled: bool = False

    def apply(self, psi: np.ndarray) -> None:
        """Each ``_qubit_major`` slab of the buffer, or its control-1 half,
        gathered into a (dim, rest) matrix, multiplied, and written back."""
        dim = self.matrix.shape[0]
        for block in _qubit_major(psi, self.shape, self.qubits, self.slabs):
            if self.controlled:
                block = block[1]
            block[...] = (self.matrix @ block.reshape(dim, -1)).reshape(block.shape)


class _Ladder(NamedTuple):
    """A ladder ``Repeat`` as one step: its rungs, each a controlled
    ``_Power``, in the order they run."""

    rungs: tuple[_Power, ...]

    def apply(self, psi: np.ndarray) -> None:
        for rung in self.rungs:
            rung.apply(psi)


class _Doubling(NamedTuple):
    """A ladder and the H layer that inserts its m controls on top
    (``_layer_ladder``), as one step from ``psi[:2**start]`` to
    ``psi[:2**width]``, m = ``width - start``.  The H gates make every row
    of the ``(2**m, 2**start)`` view the old state times ``1/sqrt(2)`` m
    times, so rung j makes rows ``2**j .. 2**(j+1) - 1`` as its power of
    the control-1 block (held transposed in ``matrices``) times rows
    ``0 .. 2**j - 1``: phase estimation's ``sum_y |y> Q**y F|0>`` (Brassard et al.,
    quant-ph/0005055) in m products."""

    start: int
    width: int
    matrices: tuple[np.ndarray, ...]

    def apply(self, psi: np.ndarray) -> None:
        low = psi[: 1 << self.start]
        for _ in range(self.width - self.start):  # as H growths would multiply row 0
            np.multiply(low, _H_ENTRIES[0], out=low)
        rows = psi[: 1 << self.width].reshape(-1, low.size)
        for j, matrix in enumerate(self.matrices):
            np.matmul(rows[: 1 << j], matrix, out=rows[1 << j : 2 << j])


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
    """A ``Qft`` on ``qubits`` as one orthonormal FFT per slab of the
    ``_view_shape`` view ``shape``: each ``_qubit_major`` slab reads as a
    (2**k, rest) matrix whose row is the local index, and its columns are
    transformed by ``numpy.fft.ifft`` (the QFT's ``exp(+2*pi*i*x*y/2**k)``)
    or, when ``inverted``, ``fft``."""

    qubits: tuple[int, ...]
    shape: tuple[int, ...]
    slabs: tuple[tuple, ...]
    inverted: bool

    def apply(self, psi: np.ndarray) -> None:
        dim = 1 << len(self.qubits)
        transform = np.fft.fft if self.inverted else np.fft.ifft
        for block in _qubit_major(psi, self.shape, self.qubits, self.slabs):
            block[...] = transform(block.reshape(dim, -1), axis=0, norm="ortho").reshape(block.shape)


class _Grow(NamedTuple):
    """The compact state of the touched qubits grown from ``psi[:2**start]``
    to ``psi[:2**width]`` by qubits inserted among them
    (``_execution_plan``).  In the view ``shape``, ``zero`` indexes the
    part where every inserted qubit reads 0 and, when a gate inserts one,
    ``one`` the part where it reads 1: they get the old state times ``u0``
    and ``u1`` (``_scaled``; scalars, or a multiplexer's vectors laid over
    its control axes).  With no ``one``, the rest reads 0.  The old state
    is read in place when every inserted qubit is above it (``in_place``:
    the ``zero`` part is then ``psi[:2**start]``), else from one copy, at
    most half the new width."""

    start: int
    width: int
    shape: tuple[int, ...]
    zero: tuple
    one: tuple | None
    u0: object
    u1: object
    in_place: bool

    def apply(self, psi: np.ndarray) -> None:
        s = 1 << self.start
        view = psi[: 1 << self.width].reshape(self.shape)
        low = view[self.zero]
        old = low if self.in_place else psi[:s].copy().reshape(low.shape)
        if self.one is not None:
            _scaled(view[self.one], old, self.u1)
        elif self.in_place:
            psi[s : 1 << self.width] = 0.0
        else:
            view[...] = 0.0
        _scaled(low, old, self.u0)


def _scaled(out: np.ndarray, old: np.ndarray, u) -> None:
    """``out[...] = u * old``: for a scalar 1 a copy, none when ``out`` is
    ``old``, and for a 0 a fill.  Any other factor multiplies as
    ``apply_gate``'s 2x2 update does on a half that reads 0, whose second
    product is with a zero, so only the sign of a zero can differ from
    it."""
    if type(u) is np.ndarray or u not in (0, 1):
        np.multiply(old, u, out=out)
    elif not u:
        out.fill(0.0)
    elif out is not old:
        out[...] = old


class _Prepared(NamedTuple):
    """A compact state made in the plan (``Pyramid._state``), written over
    the buffer at width 0 as ``psi[:2**width]``."""

    width: int
    state: np.ndarray

    def apply(self, psi: np.ndarray) -> None:
        psi[: 1 << self.width] = self.state


def _first_column(gate: Gate) -> tuple:
    """What a growth by ``gate`` on its fresh target needs (``_grow_step``):
    for an ``mry`` with controls its ``c`` and ``s`` vectors, and for a
    one-qubit gate ``(u00, u10)``, as it maps |0> to ``u00|0> + u10|1>``.
    A phase leaves |0> as it is, but a phase that is no number (a NaN
    angle) is kept as both factors, so that the norm check still sees
    it."""
    if gate.kind == PERMUTATION:
        return (0.0, 1.0) if gate.table[0] else (1.0, 0.0)
    form, values = gate_blocks(gate)
    if form == "flip":
        return 0.0, 1.0
    if form == "dense":
        return values[0], values[2]
    if form == "phase":
        return (1.0, 0.0) if np.isfinite(values) else (values, values)
    c, s = values
    return (float(c[0]), float(s[0])) if len(gate.qubits) == 1 else (c, s)


def _grow_step(start: int, width: int, qubits: tuple[int, ...], column: tuple | None = None) -> _Grow:
    """The ``_Grow`` from ``start`` to ``width`` compact qubits that inserts
    the qubits at positions ``qubits`` of the new width reading 0, or,
    given the ``_first_column`` of a one-qubit or ``mry`` gate on
    ``qubits`` whose controls are there already, its target as the gate
    maps it from |0>: a multiplexer's ``c`` and ``s`` laid over the control
    axes as ``apply_gate``'s broadcast pass lays them."""
    if column is None:
        # the odd axes of a _view_shape are its qubits', here all inserted
        shape = _view_shape(qubits, width)
        zero = [0 if a % 2 else slice(None) for a, size in enumerate(shape) if size > 1]
        kept = tuple(size for size in shape if size > 1)
        return _Grow(start, width, kept, (*zero, ...), None, 1.0, None, min(qubits) >= start)
    shape, t, order, coef_shape = _layout(qubits, width)[3]
    u0, u1 = column if len(qubits) == 1 else _laid_out(column, order, coef_shape)
    whole = (slice(None),) * t
    return _Grow(start, width, shape, (*whole, 0, ...), (*whole, 1, ...), u0, u1, qubits[-1] >= start)


def _execution_plan(items: Sequence[Gate | Repeat | Diagonal | Qft | Pyramid], width: int) -> tuple:
    """The steps that run a circuit's ``items`` on the compact state of its
    first ``width`` qubits, every other qubit reading 0: ``apply_circuit``
    plans from width n, ``run`` from width 0.  Each gate runs on its own
    through ``apply_gate``, one ``_Multiply`` per ``Diagonal``, one
    ``_Fourier`` per ``Qft``, and one ``_repeat_step`` per ``Repeat`` on at
    most ``_POWER_QUBITS`` qubits, a ladder's control left out: a
    ``_Power`` of a plain repeat's matrix, or a ``_Ladder`` of powers of a
    ladder's control-1 block, squared from one matrix that
    ``_period_matrix`` builds and the repeat keeps (``_power``) for its
    adjoint and any later plan.

    The state is kept as the compact state of the touched qubits T, in
    ascending order, in ``psi[:2**|T|]`` (``run``).  A non-inverted
    ``Pyramid`` on ascending qubits met while T is empty is one
    ``_Prepared`` step, the state it prepares (``Pyramid._state``), and T
    becomes its qubits.  Any other ``Pyramid``, and a wider ``Repeat``, go
    back onto the items to plan as their gates, one gate at a time.  An
    item that touches a qubit outside T first inserts it (``_Grow``): a
    one-qubit gate on it, or an ``mry`` on it whose controls are all in T,
    is itself the growth, and any other item inserts its fresh qubits
    reading 0.  Every other step runs at width |T| with its qubits
    relabelled by their rank in T, which is the identity while T is
    ``0..|T|-1``.  An H layer that inserts qubits on top of T, followed at
    once by a ladder on T whose controls they are, is one ``_Doubling``,
    found at its first H, with no growth (``_layer_ladder``).  If T is not
    ``0..|T|-1`` at the end, one last growth inserts the qubits below its
    top that no item touched."""
    steps: list = []
    touched = list(range(width))  # ascending: bit r of the compact state is qubit touched[r]
    prefix = True  # touched is range(width), so no qubit is relabelled
    pending = list(items)[::-1]  # the next item last
    while pending:
        item = pending.pop()
        kind = type(item)
        qubits = item.qubits
        if kind is Pyramid and not width and not item.inverted and list(qubits) == sorted(qubits):
            touched, width = list(qubits), len(qubits)
            prefix = touched[-1] == width - 1
            steps.append(_Prepared(width, item._state))
            continue
        if kind is Pyramid or kind is Repeat and len(qubits) - len(item.controls) > _POWER_QUBITS:
            pending += item.gates[::-1]  # each gate planned as it is
            continue
        if not prefix or max(qubits) >= width:
            known = range(width) if prefix else touched
            fresh = [q for q in qubits if q not in known]
            if fresh:
                ladder = _layer_ladder(item, pending, touched)
                if ladder:  # the H layer and its ladder are one step
                    del pending[-len(ladder.controls) :]
                    matrices = tuple(_power(ladder, ladder.count << j).T for j in range(len(ladder.controls)))
                    start, touched = width, touched + list(ladder.controls)
                    width = len(touched)
                    prefix = touched[-1] == width - 1
                    steps.append(_Doubling(start, width, matrices))
                    continue
                grows = kind is Gate and fresh == [qubits[-1]] and (len(qubits) == 1 or item.kind == MULTIPLEXED_RY)
                start, touched = width, sorted(touched + fresh)
                width = len(touched)
                prefix = touched[-1] == width - 1
                inserted = tuple(map(touched.index, qubits if grows else fresh))
                steps.append(_grow_step(start, width, inserted, _first_column(item) if grows else None))
                if grows:
                    continue
            if not prefix:
                qubits = tuple(map(touched.index, qubits))
        if kind is Diagonal:
            steps.append(_multiply_step(item, qubits, width))
        elif kind is Qft:
            shape = _view_shape(qubits, width)
            steps.append(_Fourier(qubits, shape, _slabs(shape, 1 << width), item.inverted))
        elif kind is Gate:
            steps.append(item if prefix else _unchecked(item, qubits=qubits))
        else:
            steps.append(_repeat_step(item, dict(zip(item.qubits, qubits)).__getitem__, width))
    if not prefix:
        top = touched[-1] + 1
        steps.append(_grow_step(width, top, tuple(q for q in range(top) if q not in touched)))
    return tuple(steps)


def _layer_ladder(item, pending: list, touched: list[int]) -> Repeat | None:
    """The ladder right after the H gates ``item`` and the next items of
    ``pending`` (the next item last), if it is not inverted, its controls
    are those H gates' qubits in order, its qubits are ``touched`` then
    those, so each H inserts a qubit above the ones before, and it acts on
    at most ``_POWER_QUBITS`` besides its controls.  Else None."""
    layer = []
    for g in itertools.chain((item,), reversed(pending)):
        if type(g) is not Gate or g.kind != H:
            break
        layer.append(g.qubits[0])
    ladder = pending[-len(layer)] if 0 < len(layer) <= len(pending) else None
    fits = type(ladder) is Repeat and not ladder.inverted and len(touched) <= _POWER_QUBITS
    return ladder if fits and ladder.controls == tuple(layer) and list(ladder.qubits) == touched + layer else None


def _power(item: Repeat, count: int) -> np.ndarray:
    """``item``'s forward block (``Repeat._block``) to the power ``count``,
    kept in ``item._powers``: the ``_period_matrix`` of the block off the
    controls, then ``power(count - count//2) @ power(count//2)``.
    ``Q**(2**j)`` is then one squaring of ``Q**(2**(j-1))``, byte-equal to
    ``np.linalg.matrix_power(Q, 2**j)``, which squares in the same order."""
    powers = item._powers
    if not powers:
        gates, scalar = item._block
        powers[1] = _period_matrix(gates, [q for q in item.qubits if q not in item.controls]) * scalar
    if count not in powers:
        powers[count] = _power(item, count - count // 2) @ _power(item, count // 2)
    return powers[count]


def _repeat_step(item: Repeat, place, n: int) -> _Power | _Ladder:
    """The step of a few-qubit repeat at width n, ``place`` mapping its
    qubits into the state: one ``_Power`` of a plain repeat's matrix to
    its count, or a ``_Ladder`` of a ladder's control-1 block raised to
    each rung's count (``_power``).  An inverted repeat runs the adjoints
    of those powers, a ladder's rungs in reverse."""

    def power(count: int) -> np.ndarray:
        matrix = _power(item, count)
        # kept contiguous: a transposed view planned amp->EW n = 3, m = 4 0.14 ms faster but ran 0.23 ms slower
        return np.ascontiguousarray(matrix.conj().T) if item.inverted else matrix

    others = tuple(place(q) for q in item.qubits if q not in item.controls)
    if not item.controls:
        return _power_step(power(item.count), others, n)
    rungs = [_power_step(power(item.count << j), (*others, place(c)), n, controlled=True) for j, c in enumerate(item.controls)]
    return _Ladder(tuple(rungs[::-1] if item.inverted else rungs))


def _power_step(matrix: np.ndarray, qubits: tuple[int, ...], n: int, controlled: bool = False) -> _Power:
    """The ``_Power`` of ``matrix`` on ``qubits`` of an n-qubit state."""
    shape = _view_shape(qubits, n)
    return _Power(matrix, qubits, shape, _slabs(shape, 1 << n), controlled)


def _multiply_step(block: Diagonal, qubits: tuple[int, ...], n: int) -> _Multiply:
    """``block``'s diagonal, ``exp(1j*(phases - mean))`` (negated when
    inverted), laid out over the ``_view_shape`` axes of ``qubits``, the
    block's qubits at width n.  The mean is ``np.mean``'s pairwise sum and
    division without its wrapper, and the factors are moved only when the
    qubits' axes are not in view order already, as they are for
    ``range(n)``."""
    phases = block.phases
    phases = phases - np.add.reduce(phases) / phases.size
    factors = np.exp(-1j * phases if block.inverted else 1j * phases)
    shape = _view_shape(qubits, n)
    kept = [a for a, size in enumerate(shape) if size > 1]
    coef_shape = tuple(shape[a] if a % 2 else 1 for a in kept)
    # Reshaped to (2,)*k, the factors' axes run qubits[-1] .. qubits[0];
    # sort them into view order.
    axes = _axes(qubits)[::-1]
    order = sorted(range(len(axes)), key=axes.__getitem__)
    if order != list(range(len(axes))):
        factors = np.ascontiguousarray(factors.reshape((2,) * len(axes)).transpose(order))
    return _Multiply(factors.reshape(coef_shape), tuple(shape[a] for a in kept))


def _period_matrix(period: Sequence[Gate | Reflection], qubits: Sequence[int]) -> np.ndarray:
    """The product of ``period``'s matrices on the 2**k-dimensional space
    of ``qubits`` (local bit i = ``qubits[i]``), first item rightmost, made
    on the identity ``u`` item by item: a P or CP scales the rows where its
    qubits read 1, any other gate runs on the rows (``_unitary``), and a
    reflection makes ``u`` into ``u - 2 F_P (F_P^dagger u)``, ``F_P`` the
    columns of ``F`` that ``P`` keeps.  For an ``F`` of a ``Pyramid`` on
    ``qubits`` and any ``Diagonal`` blocks, reflected about ``|0...0>``,
    ``F_P`` is ``F|0...0>`` as ``run`` makes it: the pyramid's kept state
    (``Pyramid._state``) times their factors.  Else ``F``'s gates run on
    the columns, so planning runs no other circuit."""
    k, at = len(qubits), {q: i for i, q in enumerate(qubits)}
    u = np.eye(1 << k, dtype=np.complex128)
    for item in period:
        if type(item) is Gate:
            if item.kind not in (PHASE, CP):
                _unitary((item,), qubits, u)
                continue
            rows = [slice(None)] * k  # bit i of a row index is axis k - 1 - i
            for q in item.qubits:
                rows[k - 1 - at[q]] = 1
            phase = gate_blocks(item)[1]
            if phase != 1:  # as apply_gate skips it
                view = u.reshape((2,) * k + (-1,))[tuple(rows)]
                view[...] = phase * view
            continue
        zero = sum(1 << at[q] for q in item.reflected)
        pyramid, *diagonals = item.items or (None,)
        if zero == (1 << k) - 1 and type(pyramid) is Pyramid and not pyramid.inverted \
                and pyramid.qubits == tuple(qubits) and all(type(i) is Diagonal for i in diagonals):
            f_p = pyramid._state.astype(np.complex128)
            for i in diagonals:
                _multiply_step(i, tuple(map(at.get, i.qubits)), k).apply(f_p)
            f_p = f_p[:, None]
        else:
            one = sum(1 << at[q] for q in item.controls)
            columns = [b for b in range(1 << k) if not b & zero and b & one == one]
            f_p = np.zeros((1 << k, len(columns)), dtype=np.complex128)
            f_p[columns, range(len(columns))] = 1.0
            _unitary([g for i in item.items for g in i.gates], qubits, f_p)
        u -= f_p @ (2.0 * (f_p.conj().T @ u))
    return u


def _unitary(gates: Sequence[Gate], qubits: Sequence[int], u: np.ndarray | None = None) -> np.ndarray:
    """The product of ``gates``' matrices on the 2**k-dimensional space of
    ``qubits`` (local bit i = ``qubits[i]``), first gate rightmost, times
    ``u``, a C-contiguous ``(2**k, 2**c)`` matrix (the identity if None),
    built in ``u``: ``apply_gate`` runs each gate once on the row bits of
    ``u`` flattened, at width k + c (``qubits[i]`` becomes bit ``c + i``),
    so every column goes through the gates and the matrix is the only
    large allocation."""
    k = len(qubits)
    u = np.eye(1 << k, dtype=np.complex128) if u is None else u
    c = u.shape[1].bit_length() - 1
    row = {q: c + i for i, q in enumerate(qubits)}.__getitem__
    flat = u.reshape(-1)
    for g in gates:
        apply_gate(flat, _unchecked(g, qubits=tuple(map(row, g.qubits))), k + c)
    return u


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Run ``circuit`` on a copy of ``state``, by its execution plan from
    width n (``Circuit._steps``): gates through ``apply_gate``, and each
    declared block by its step (``_execution_plan``): a few-qubit
    ``Repeat`` as matrix powers, a ``Diagonal`` as one multiply, a ``Qft``
    as one FFT.  A circuit of gates alone is then byte-equal to applying
    its gates one by one.  Any qubit of ``state`` may read 1, so every
    step acts on the whole state.

    The copy and the squared norm it is checked against are one pass over
    the state each; on ``|0...0>`` call ``run``, which needs neither and
    grows the state instead.  Raises ``CircuitError`` if the squared norm
    moved by more than ``NORM_ATOL`` or is no longer a number (a NaN
    angle).
    """
    if circuit.n_qubits != state.n_qubits:
        raise CircuitError(
            f"circuit width {circuit.n_qubits} != state width {state.n_qubits}"
        )
    n = circuit.n_qubits
    return _run_steps(state.amplitudes.copy(), n, circuit._steps, n, state.norm_sq)


def run(circuit: Circuit) -> StateVector:
    """``circuit`` applied to ``|0...0>``, checked as ``apply_circuit``
    checks it, by the plan that grows the state from width 0
    (``Circuit._grown_steps``).

    The state is kept as the compact state of the qubits touched so far,
    in ascending order, in ``psi[:2**|T|]``; every other qubit reads 0.  A
    one-qubit gate on a fresh qubit, or an ``mry`` on one whose controls
    are touched, writes the two halves of the grown state from the old one
    (``_Grow``): an angle load is n such doublings.  An amplitude load's
    ``Pyramid``, met before any qubit is touched, is one step instead, its
    state made in the plan and written over ``psi[:2**k]`` (``_Prepared``),
    and so are phase estimation's H layer and ladder above it, with no
    growth (``_Doubling``).
    Every other step runs on the compact state with its qubits relabelled
    by rank.  At the end the amplitudes above the last width are
    zero-filled, after one strided growth that inserts the untouched
    qubits below it, if any.  On a 2-vCPU Xeon an angle load at n = 18
    planned in 0.11-0.16 ms and ran in 0.58-0.65 ms this way (medians of
    40).

    The result agrees with ``apply_circuit`` on ``zero_state`` within
    ``EQUIV_ATOL``.  It is byte-equal to the gate-by-gate ``apply_gate``
    run when every step is a growth or a prepared state, but for the sign
    of a zero, and an amplitude load, whose phase pass is the same multiply
    in both plans, is byte-equal to ``apply_circuit``.  The width is
    checked (``_check_width``) before the buffer is allocated."""
    n = circuit.n_qubits
    _check_width(n)
    psi = np.empty(1 << n, dtype=np.complex128)
    psi[0] = 1.0
    return _run_steps(psi, n, circuit._grown_steps, 0, 1.0)


def _run_steps(psi: np.ndarray, n: int, steps: tuple, width: int, norm_sq: float) -> StateVector:
    """Run the plan ``steps`` (``_execution_plan`` from ``width``) on the
    n-qubit buffer ``psi`` in place: each step on the compact state
    ``psi[:2**width]``, and each ``_Grow``, ``_Prepared`` or ``_Doubling``
    on the buffer, widening it.  The amplitudes above the last width are
    then zero-filled.  Return the state that takes the buffer over; ``CircuitError`` if its
    squared norm is no longer ``norm_sq`` within ``NORM_ATOL``."""
    view = psi[: 1 << width]
    for step in steps:
        kind = type(step)
        if kind is Gate:
            apply_gate(view, step, width)
        elif kind is _Grow or kind is _Prepared or kind is _Doubling:
            step.apply(psi)
            width = step.width
            view = psi[: 1 << width]
        else:
            step.apply(view)
    psi[1 << width :] = 0.0
    out = StateVector._owning(n, psi)
    drift = abs(out.norm_sq - norm_sq)
    if not drift <= NORM_ATOL:
        raise CircuitError(f"circuit changed the squared norm by {drift:.3g} > {NORM_ATOL}")
    return out


def build_unitary(circuit: Circuit) -> np.ndarray:
    """Full ``2**n x 2**n`` matrix of ``circuit``, for n <= 12: each gate
    applied once, by ``apply_gate``, to every column of the identity at
    once, in place (``_unitary``), as ``_period_matrix`` builds a block's
    matrix.

    Raises ``CircuitError`` if a column's squared norm is off 1 by more
    than ``NORM_ATOL`` or is no longer a number (a NaN angle), as
    ``apply_circuit`` does for one state.
    """
    if circuit.n_qubits > MAX_UNITARY_QUBITS:
        raise CapacityError(
            f"unitary of {circuit.n_qubits} qubits exceeds the cap of {MAX_UNITARY_QUBITS}"
        )
    u = _unitary(circuit.gates, range(circuit.n_qubits))
    # real and imaginary parts are views: no matrix-sized temporaries
    norm_sq = np.einsum("ij,ij->j", u.real, u.real) + np.einsum("ij,ij->j", u.imag, u.imag)
    drift = np.abs(norm_sq - 1.0).max()
    if not drift <= NORM_ATOL:
        raise CircuitError(f"a column's squared norm moved by {drift:.3g} > {NORM_ATOL}")
    return u


def marginal_probabilities(state: StateVector, register: Sequence[int]) -> np.ndarray:
    """Outcome distribution of ``register``; bit ``j`` of the outcome is
    ``register[j]``.

    One call is one pass over ``probabilities``, and a register on the
    lowest qubits costs the most: numpy then sums in inner rows of 2-8
    amplitudes (at n = 18 on a 2-vCPU Xeon, 1.4-5.4 ms for one of qubits
    0-3 against 0.1-0.2 ms from qubit 8 up).  For every single-qubit
    marginal of a state, call ``qubit_marginals`` once instead (0.4 ms
    for all 18)."""
    n = state.n_qubits
    register = _check_qubits(register, n)
    if not register:
        raise CircuitError("marginal over an empty register")
    # Summing out the gaps of the _view_shape view leaves the register's
    # axes, axis (a - 1) // 2 for view axis a; the outcome's top bit,
    # register[-1], must come first.
    shape = _view_shape(register, n)
    marginal = state.probabilities.reshape(shape).sum(axis=tuple(range(0, len(shape), 2)))
    return marginal.transpose([(a - 1) // 2 for a in _axes(register)[::-1]]).reshape(-1)


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


def check_seed(seed: int) -> None:
    """Raise ``CircuitError`` unless ``seed`` is an integer >= 0: the one
    check of every seed.  A ``None`` seed would draw fresh entropy, and no
    run could be repeated."""
    if not _is_integer(seed) or seed < 0:
        raise CircuitError(f"seed must be an integer >= 0, got {seed!r}")


def seeded_generator(seed: int) -> np.random.Generator:
    """numpy's PCG64 generator seeded with ``seed``, the source of every
    draw, once ``check_seed`` passes."""
    check_seed(seed)
    return np.random.Generator(np.random.PCG64(seed))


def _cdf(state: StateVector, shots: int) -> np.ndarray:
    """The cdf that draws from ``state`` look uniforms up in, as
    ``Generator.choice`` makes it; ``CircuitError`` if the squared norm is
    0, infinite or NaN."""
    check_shots(shots, 1)
    probs = state.probabilities
    total = probs.sum()
    if not 0.0 < total < np.inf:
        raise CircuitError(f"cannot sample a state of squared norm {total}")
    cdf = np.divide(probs, total)
    np.cumsum(cdf, out=cdf)  # in place: one 2**n buffer, not two
    cdf /= cdf[-1]
    return cdf


def _draws(state: StateVector, shots: int, seed: int) -> np.ndarray:
    """``shots`` basis-state indices drawn from ``state`` with PCG64(seed)
    (``seeded_generator``), in draw order.

    The draws are byte-equal to ``Generator(PCG64(seed)).choice(size,
    shots, p=probs / probs.sum())``: this is the inverse-CDF lookup
    (``_cdf``) that ``choice`` runs, without its re-checks of ``p`` (NaN
    and sign scans, a compensated sum), none of which can fail on
    ``|amplitudes|**2`` over a finite, positive total."""
    cdf = _cdf(state, shots)
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
    plain item stores over that register's outcomes.  They and the records
    are made with the cyclic garbage collector paused, and it is switched
    back on only if it was on: a record holds a dict of ints and two ints,
    so no cycle can pass through one, and a collector pass over thousands
    of fresh records frees nothing.  Left on, it scanned and promoted the
    records of every call, and ran a full collection every ~6 calls at
    n = 18 and 8192 shots.  There, on a 2-vCPU Xeon, the outcomes, dicts
    and records take 0.9-1.0 ms (1.5-1.8 ms with the collector on) and the
    draw (``_draws``) 1.3-1.6 ms."""
    registers = {name: _check_qubits(qs, state.n_qubits) for name, qs in registers.items()}
    draws = _draws(state, shots, seed)
    collecting = gc.isenabled()
    gc.disable()
    try:
        dicts = [{} for _ in range(shots)]
        for name, qs in registers.items():
            for bits, outcome in zip(dicts, _outcomes(draws, qs).tolist()):
                bits[name] = outcome
        # ``tuple.__new__(ShotRecord, fields)`` is what ``ShotRecord._make``
        # runs, without a Python-level call per shot.
        fields = zip(dicts, range(shots), itertools.repeat(seed))
        return list(map(tuple.__new__, itertools.repeat(ShotRecord), fields))
    finally:
        if collecting:
            gc.enable()


def sample_counts(state: StateVector, register: Sequence[int], shots: int, seed: int) -> np.ndarray:
    """How often each outcome of ``register`` occurs in ``shots`` draws:
    ``counts[y]`` over the same draws as ``sample_shots`` with the same
    ``(shots, seed)``, without making a record per shot.  Bit ``j`` of
    ``y`` is ``register[j]``.  A histogram has no order, so the uniforms
    are sorted in place and looked up in turn (``_cdf``), not put back in
    draw order as ``_draws`` puts them."""
    register = _check_qubits(register, state.n_qubits)
    cdf = _cdf(state, shots)
    uniforms = seeded_generator(seed).random(shots)
    uniforms.sort()
    return np.bincount(_outcomes(cdf.searchsorted(uniforms, side="right"), register), minlength=1 << len(register))


def fidelity(a: StateVector, b: StateVector) -> float:
    """``|<a|b>|**2``; 1 iff the states agree up to global phase."""
    if a.n_qubits != b.n_qubits:
        raise CircuitError("fidelity of states with different qubit counts")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
