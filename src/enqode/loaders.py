"""Circuit builders that realize each encoding from classical data.

Every loader returns the circuit together with a resource report so the
width/depth/CNOT trade-offs of the different encodings can be measured
rather than taken on faith.

Amplitude-family loaders emit one native multiplexed rotation
(``sim.multiplexed_ry``) per stage of the angle tree.  For complex input a
diagonal phase pass follows: one multiplexed RZ per qubit, written as a
multiplexed RY between ``H, S`` and ``S^dag, H`` (RZ = H S^dag RY S H), so
a complex load of n qubits holds 2n multiplexers.  Reports describe the
lowered circuit (``sim.Circuit.lowered``), in which each multiplexer is
the standard Gray-code walk of RY + CNOT gates, so ``cnot_count`` stays
meaningful (a full multiplexer over k controls costs exactly 2^k CNOTs);
``sim.Circuit`` counts them without building that circuit.  The phase
pass fixes each phase up to one global phase, which this package never
compares.

Each loader checks its input's domain (ranges, normalization, duplicates)
with ``encodings.check``, the check ``reference_state`` runs, and keeps
only its own shape rules.
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
class ResourceReport:
    width: int
    depth: int
    cnot_count: int
    classical_preprocessing_ops: int

    def to_dict(self) -> dict:
        return {
            "width": self.width,
            "depth": self.depth,
            "cnots": self.cnot_count,
            "classical_preprocessing_ops": self.classical_preprocessing_ops,
        }


@dataclass(frozen=True)
class LoaderOutput:
    circuit: Circuit
    report: ResourceReport
    data_register: tuple[int, ...]
    ancilla_register: tuple[int, ...]


def _report(circuit: Circuit, preprocessing: int = 0) -> ResourceReport:
    return ResourceReport(circuit.width, circuit.depth, circuit.cnot_count, preprocessing)


def _output(circuit: Circuit, data, ancilla=(), preprocessing: int = 0) -> LoaderOutput:
    return LoaderOutput(circuit, _report(circuit, preprocessing), tuple(data), tuple(ancilla))


# --------------------------------------------------------------------------
# Diagonal phase pass
# --------------------------------------------------------------------------


def _phase_stage_angles(omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One halving step of the diagonal-phase recursion: per-pair phase
    differences to multiplex onto the low qubit, and the means left for the
    remaining qubits."""
    return omega[1::2] - omega[0::2], (omega[0::2] + omega[1::2]) / 2.0


def _emit_diagonal_phases(gates: list[Gate], omega: np.ndarray, qubits) -> int:
    """Imprint ``exp(i*omega[b])`` on basis state ``|b>`` of ``qubits`` (bit
    j of b = qubits[j]), up to one global phase.  Returns the number of
    classical angle computations performed."""
    qubits = list(qubits)
    work = np.asarray(omega, dtype=np.float64)
    ops = 0
    for t, q in enumerate(qubits):
        deltas, work = _phase_stage_angles(work)
        ops += deltas.size
        # RZ(delta) multiplexed over the higher qubits, as H S^dag RY S H.
        gates += [
            sim.h(q),
            sim.p(np.pi / 2, q),
            sim.multiplexed_ry(deltas, qubits[t + 1 :], q),
            sim.p(-np.pi / 2, q),
            sim.h(q),
        ]
    return ops


def _phase_pass(gates: list[Gate], a: np.ndarray, n: int) -> int:
    """Append the diagonal phase pass for ``a`` on qubits ``0..n-1`` unless
    every phase is within ``PHASE_ATOL`` of 0.  Returns the number of
    classical angle computations performed."""
    omega = np.angle(a)
    if np.any(np.abs(omega) > PHASE_ATOL):
        return _emit_diagonal_phases(gates, omega, range(n))
    return 0


# --------------------------------------------------------------------------
# Point-wise loaders
# --------------------------------------------------------------------------


def load_basis(x: int, m: int) -> LoaderOutput:
    """X gates on the set bits of ``x``; depth at most 1."""
    enc.check(enc.Basis(m), x)
    gates = [sim.x(q) for q in range(m) if (x >> q) & 1]
    return _output(Circuit(m, gates, {"data": tuple(range(m))}), range(m))


def load_angle(thetas) -> LoaderOutput:
    """One RY(2*theta) per qubit; depth 1."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    enc.check(enc.Angle(thetas.size), thetas)
    gates = [sim.ry(2.0 * t, q) for q, t in enumerate(thetas)]
    n = thetas.size
    return _output(Circuit(n, gates, {"data": tuple(range(n))}), range(n))


def load_fourier(x: int, m: int) -> LoaderOutput:
    """H then a phase gate per qubit; qubit k gets the binary fraction of
    the trailing ``m - k`` bits of ``x``.  Depth 2."""
    enc.check(enc.Fourier(m), x)
    gates = []
    for k in range(m):
        span = 1 << (m - k)
        gates.append(sim.h(k))
        gates.append(sim.p(2.0 * np.pi * (x % span) / span, k))
    return _output(Circuit(m, gates, {"data": tuple(range(m))}), range(m))


# --------------------------------------------------------------------------
# Amplitude-family loaders
# --------------------------------------------------------------------------


def _amplitude_input(a) -> tuple[np.ndarray, int, AngleTree, int]:
    """Validate an amplitude vector and build its angle tree.

    Returns the vector as complex128, its qubit count ``n``, the angle tree
    of its moduli and the classical operations spent on the tree.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.complex128))
    if a.size < 2 or a.size & (a.size - 1):
        raise EncodingError(f"amplitude count {a.size} is not a power of two (>= 2)")
    n = a.size.bit_length() - 1
    enc.check(enc.Amplitude(n), a)
    angle_tree = tree_to_angles(build_state_tree(np.abs(a)))
    preprocessing = sum(lvl.size for lvl in angle_tree.levels) + (2 * a.size - 1)
    return a, n, angle_tree, preprocessing


def _amplitude_stages(gates: list[Gate], angle_levels, n: int) -> None:
    """Sequential multiplexed-RY stages: stage k rotates qubit n-1-k,
    multiplexed over the already-fixed higher qubits."""
    for k, level in enumerate(angle_levels):
        gates.append(sim.multiplexed_ry(level, range(n - k, n), n - 1 - k))


def load_amplitude(a) -> LoaderOutput:
    """Multiplexed-RY pyramid driven by the angle tree, then a diagonal
    phase pass for complex inputs.  CNOT count grows as O(2^n)."""
    a, n, angle_tree, preprocessing = _amplitude_input(a)
    gates: list[Gate] = []
    _amplitude_stages(gates, angle_tree.levels, n)
    preprocessing += _phase_pass(gates, a, n)
    circuit = Circuit(n, gates, {"data": tuple(range(n))})
    return _output(circuit, range(n), preprocessing=preprocessing)


def load_equally_weighted(xs, m: int) -> LoaderOutput:
    """Uniform superposition over a set of basis states.

    The full set is a plain H layer; a singleton reduces to a basis load;
    anything else goes through the amplitude loader on the normalized
    indicator vector (correctness over the swap-network asymptotics).
    """
    xs = sorted(int(v) for v in np.atleast_1d(np.asarray(xs, dtype=np.int64)))
    enc.check(enc.EquallyWeighted(m), xs)
    if len(xs) == 1 << m:
        gates = [sim.h(q) for q in range(m)]
        return _output(Circuit(m, gates, {"data": tuple(range(m))}), range(m))
    if len(xs) == 1:
        return load_basis(xs[0], m)
    indicator = np.zeros(1 << m)
    indicator[xs] = 1.0 / np.sqrt(len(xs))
    return load_amplitude(indicator)


def _heap_qubit(n: int, level: int, pos: int) -> int:
    """Ancilla qubit hosting tree node (level, pos); heap order, after the
    n data qubits."""
    return n + (1 << level) + pos - 1


_CSWAP_TABLE = (0, 1, 2, 5, 4, 3, 6, 7)  # bit0 control: swap bits 1 and 2


def _fredkin(control: int, a: int, b: int) -> Gate:
    return sim.permutation(_CSWAP_TABLE, (control, a, b))


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

    gates: list[Gate] = []
    for k, level in enumerate(angle_tree.levels):
        for pos, theta in enumerate(level):
            gates.append(sim.ry(float(theta), _heap_qubit(n, k, pos)))
    # combine bottom-up: node (l, p) routes its chosen child's canonical
    # path onto the left-child positions
    for level in range(n - 2, -1, -1):
        for pos in range(1 << level):
            control = _heap_qubit(n, level, pos)
            for d in range(n - 1 - level):
                left = _heap_qubit(n, level + 1 + d, (2 * pos) << d)
                right = _heap_qubit(n, level + 1 + d, ((2 * pos + 1) << d))
                gates.append(_fredkin(control, left, right))
    for t in range(n):
        gates.append(sim.cnot(_heap_qubit(n, t, 0), n - 1 - t))
    preprocessing += _phase_pass(gates, a, n)

    data = tuple(range(n))
    ancilla = tuple(range(n, width))
    circuit = Circuit(width, gates, {"data": data, "ancilla": ancilla})
    return _output(circuit, data, ancilla, preprocessing)


def load_bidirectional(a, s: int) -> LoaderOutput:
    """Split-level hybrid: angle-tree levels below ``s`` run sequentially
    on the data register, the rest as a parallel forest of 2^s subtrees
    combined divide-and-conquer style and routed onto the data register by
    top-index-controlled swaps.  Width n + 2^n - 2^s, so s = n is exactly
    the plain amplitude loader and s = 1 has divide-and-conquer shape.
    """
    a, n, angle_tree, preprocessing = _amplitude_input(a)
    if not 1 <= s <= n:
        raise EncodingError(f"split level {s} outside 1..{n}")
    if n > MAX_DC_QUBITS:
        raise CapacityError(f"bidirectional needs up to {n + (1 << n)} qubits; n capped at {MAX_DC_QUBITS}")
    width = n + (1 << n) - (1 << s)

    def forest_qubit(level: int, pos: int) -> int:
        return n + (1 << level) - (1 << s) + pos

    gates: list[Gate] = []
    _amplitude_stages(gates, angle_tree.levels[:s], n)
    for k in range(s, n):
        for pos, theta in enumerate(angle_tree.levels[k]):
            gates.append(sim.ry(float(theta), forest_qubit(k, pos)))
    for level in range(n - 2, s - 1, -1):
        for pos in range(1 << level):
            control = forest_qubit(level, pos)
            for d in range(n - 1 - level):
                gates.append(
                    _fredkin(
                        control,
                        forest_qubit(level + 1 + d, (2 * pos) << d),
                        forest_qubit(level + 1 + d, (2 * pos + 1) << d),
                    )
                )
    # route the canonical path of forest root p onto the low data qubits,
    # conditioned on the top register holding p
    top = list(range(n - s, n))
    for p in range(1 << s):
        for d in range(n - s):
            path = forest_qubit(s + d, p << d)
            target = n - 1 - s - d
            dim = 1 << (s + 2)
            table = list(range(dim))
            for y in range(4):
                local = p | (y << s)
                swapped = p | ((((y >> 1) | ((y & 1) << 1))) << s)
                table[local] = swapped
            gates.append(sim.permutation(table, (*top, path, target)))
    preprocessing += _phase_pass(gates, a, n)

    data = tuple(range(n))
    ancilla = tuple(range(n, width))
    circuit = Circuit(width, gates, {"data": data, "ancilla": ancilla})
    return _output(circuit, data, ancilla, preprocessing)


# --------------------------------------------------------------------------
# Simulated qRAM
# --------------------------------------------------------------------------


def qram_oracle(xs, value_qubits: int) -> Circuit:
    """Query-access oracle |i>|y> -> |i>|y + x_i mod 2^v>, acting on every
    address in quantum parallel; a single permutation gate accounted as one
    oracle query.  A one-entry table needs no index qubits."""
    xs = [int(v) for v in np.atleast_1d(np.asarray(xs, dtype=np.int64))]
    n_idx = (len(xs) - 1).bit_length()
    enc.check(enc.QRam(n_idx, value_qubits), xs)
    width = n_idx + value_qubits
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
