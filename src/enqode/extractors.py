"""Classical-information extraction from encoded states.

Covers the whole ladder: deterministic basis readout, mode readout with
repetition, naive amplitude estimation with normal-approximation
confidence intervals, canonical amplitude estimation by phase estimation
on the Grover operator, and the swap test.

Query accounting: one "query" is one application of the state-preparation
unitary ``F`` (forward or inverse).  A Grover application contains
``F`` and ``F``-inverse, so it costs 2 queries; an amplitude-estimation
shot with ``m`` precision qubits uses ``2**m - 1`` Grover applications.
"""
from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import sim
from .converters import qft_circuit
from .errors import CircuitError, NotDeterministicError
from .sim import Circuit, Gate, StateVector

QAE_CONFIDENCE = 8.0 / np.pi**2


@dataclass(frozen=True)
class EstimateResult:
    estimate: float
    error_target: float
    confidence: float
    shots_used: int
    oracle_queries: int
    method: str

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "ci": self.error_target,
            "shots": self.shots_used,
            "queries": self.oracle_queries,
            "method": self.method,
        }


def _flag_qubit(f: Circuit, flag: int | None) -> int:
    if flag is not None:
        return flag
    reg = f.registers.get("flag")
    return reg[0] if reg else f.n_qubits - 1


# --------------------------------------------------------------------------
# Basis-family readouts
# --------------------------------------------------------------------------


def basis_readout(state: StateVector, register) -> int:
    """Single-measurement readout; valid only when the register's marginal
    is concentrated on one outcome."""
    probs = sim.marginal_probabilities(state, register)
    top = sim.certain_outcome(probs)
    if top is None:
        raise NotDeterministicError(
            f"register marginal peaks at {np.max(probs):.6f} < 1; not a deterministic readout"
        )
    return top


@dataclass(frozen=True)
class ModeReadout:
    mode: int
    histogram: dict[int, int]


def mode_readout(
    state: StateVector, register, shots: int, seed: int, strategy: str = "mode"
) -> ModeReadout:
    """Most frequent outcome over ``shots`` samples; ties break toward the
    smaller integer.  ``strategy="median"`` uses the sample median instead
    (no failure bound asserted for it)."""
    counts = sim.sample_counts(state, register, shots, seed)
    hist = {y: int(counts[y]) for y in np.flatnonzero(counts).tolist()}
    if strategy == "median":
        # np.median of the sorted outcomes: the mean of the two middle ones
        # (equal when shots is odd), truncated.
        lo, hi = np.searchsorted(np.cumsum(counts), [(shots - 1) // 2, shots // 2], side="right").tolist()
        winner = (lo + hi) // 2
    elif strategy == "mode":
        winner = int(np.argmax(counts))  # first maximum: the smaller outcome on ties
    else:
        raise CircuitError(f"unknown readout strategy {strategy!r}")
    return ModeReadout(winner, hist)


# --------------------------------------------------------------------------
# Naive amplitude estimation
# --------------------------------------------------------------------------


def required_shots(epsilon: float, alpha: float, p: float) -> int:
    """Shots for absolute error ``epsilon`` at confidence ``alpha`` when
    the flag probability is ``p`` (normal asymptotics)."""
    z = NormalDist().inv_cdf((1.0 + alpha) / 2.0)
    return int(np.ceil(p * (1.0 - p) * z * z / (epsilon * epsilon)))


def naive_amplitude_estimate(
    f: Circuit, shots: int, alpha: float, seed: int, flag: int | None = None
) -> EstimateResult:
    """Frequency of flag = 1 over ``shots`` repetitions of ``F``, with a
    normal-approximation confidence interval."""
    if shots < 1:
        raise CircuitError("shots must be >= 1")
    flag = _flag_qubit(f, flag)
    state = sim.run(f)
    p = float(sim.marginal_probabilities(state, [flag])[1])
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = int(rng.binomial(shots, p))
    p_hat = hits / shots
    z = NormalDist().inv_cdf((1.0 + alpha) / 2.0)
    half_width = z * np.sqrt(p_hat * (1.0 - p_hat) / shots)
    return EstimateResult(p_hat, float(half_width), alpha, shots, shots, "naive")


# --------------------------------------------------------------------------
# Grover operator and amplitude estimation
# --------------------------------------------------------------------------


def _mcx_gate(controls, target: int) -> Gate:
    """Multi-controlled X as a permutation gate (the gate set has no
    Toffoli)."""
    qubits = (*controls, target)
    k = len(qubits)
    full = (1 << (k - 1)) - 1
    table = [
        b ^ (1 << (k - 1)) if (b & full) == full else b for b in range(1 << k)
    ]
    return sim.permutation(table, qubits)


def _reflection_about_zero(reflection_qubits, extra_controls=()) -> list[Gate]:
    """Gates for phase -1 on |0...0> of ``reflection_qubits`` (optionally
    further controlled): X-conjugated multi-controlled Z."""
    refl = tuple(reflection_qubits)
    pivot = refl[-1]
    gates = [sim.x(q) for q in refl]
    gates.append(sim.h(pivot))
    gates.append(_mcx_gate((*extra_controls, *refl[:-1]), pivot))
    gates.append(sim.h(pivot))
    gates.extend(sim.x(q) for q in refl)
    return gates


def grover_operator(f: Circuit, flag: int | None = None, reflection_qubits=None) -> Circuit:
    """Q = F . (reflection about |0..0>) . F-inverse . (flag phase flip),
    with the overall sign fixed so the eigenphases are exactly ``+-2*theta``
    where ``sin(theta)**2`` is the flag-1 probability of ``F|0>``."""
    flag = _flag_qubit(f, flag)
    refl = tuple(reflection_qubits) if reflection_qubits is not None else tuple(range(f.n_qubits))
    # S_flag: phase -1 on flag = 1
    gates: list[Gate] = [sim.p(np.pi, flag)]
    gates.extend(f.inverse().gates)
    gates.extend(_reflection_about_zero(refl))
    gates.extend(f.gates)
    # global -1: (X P(pi))^2 = -I on any one qubit
    gates.extend([sim.p(np.pi, flag), sim.x(flag), sim.p(np.pi, flag), sim.x(flag)])
    return Circuit(f.n_qubits, gates, f.registers, f.query_count)


def _controlled_grover_gates(
    f: Circuit, flag: int, control: int, reflection_qubits, width: int
) -> list[Gate]:
    """Controlled Q: only the reflections (and the global sign) need the
    control; F and F-inverse cancel on the control-0 branch."""
    refl = tuple(reflection_qubits)
    gates: list[Gate] = [sim.cp(np.pi, control, flag)]
    gates.extend(f.inverse().shifted(0, width).gates)
    gates.extend(sim.x(q) for q in refl)
    pivot = refl[-1]
    gates.append(sim.h(pivot))
    gates.append(_mcx_gate((control, *refl[:-1]), pivot))
    gates.append(sim.h(pivot))
    gates.extend(sim.x(q) for q in refl)
    gates.extend(f.shifted(0, width).gates)
    gates.append(sim.p(np.pi, control))  # controlled global -1
    return gates


def qpe_gates(f: Circuit, flag: int, m: int, reflection_qubits=None, width: int | None = None) -> list[Gate]:
    """Phase estimation on Q(F): H layer, controlled powers of Q, inverse
    Fourier transform on the ``m`` phase qubits sitting above ``f``."""
    w = f.n_qubits
    width = width if width is not None else w + m
    refl = tuple(reflection_qubits) if reflection_qubits is not None else tuple(range(w))
    gates: list[Gate] = [sim.h(w + j) for j in range(m)]
    for j in range(m):
        cq = _controlled_grover_gates(f, flag, w + j, refl, width)
        for _ in range(1 << j):
            gates.extend(cq)
    gates.extend(qft_circuit(m).inverse().shifted(w, width).gates)
    return gates


def qae_circuit(f: Circuit, m: int, flag: int | None = None) -> Circuit:
    """The full amplitude-estimation circuit: F's registers plus an
    ``m``-qubit phase register."""
    flag = _flag_qubit(f, flag)
    width = f.n_qubits + m
    gates = list(f.shifted(0, width).gates)
    gates.extend(qpe_gates(f, flag, m, width=width))
    regs = dict(f.registers)
    regs["qae_phase"] = tuple(range(f.n_qubits, width))
    return Circuit(width, gates, regs, f.query_count)


def qae_outcome_distribution(f: Circuit, m: int, flag: int | None = None) -> np.ndarray:
    """Exact distribution of the phase-register outcome ``y`` (no
    sampling); the estimator is ``sin(pi*y/2**m)**2``."""
    circ = qae_circuit(f, m, flag)
    return sim.marginal_probabilities(sim.run(circ), circ.registers["qae_phase"])


def outcome_to_mu(y: int, m: int) -> float:
    return float(np.sin(np.pi * y / (1 << m)) ** 2)


def qae_estimate(
    f: Circuit, m: int, shots: int, seed: int, flag: int | None = None
) -> EstimateResult:
    """Canonical amplitude estimation: sample the phase register ``shots``
    times, take the modal outcome (smallest on ties), and map it through
    the sine-squared grid.

    One shot costs ``2**m - 1`` Grover applications = ``2*(2**m - 1)``
    F-queries.
    """
    circ = qae_circuit(f, m, flag)
    state = sim.run(circ)
    readout = mode_readout(state, circ.registers["qae_phase"], shots, seed)
    grover_apps = (1 << m) - 1
    return EstimateResult(
        outcome_to_mu(readout.mode, m),
        2.0**-m,
        QAE_CONFIDENCE,
        shots,
        2 * shots * grover_apps,
        "qae",
    )


# --------------------------------------------------------------------------
# Swap test
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SwapTestResult:
    p0_estimate: float
    overlap_estimate: float
    p0_exact: float
    shots_used: int


def swap_test(load_a: Circuit, load_b: Circuit, shots: int, seed: int) -> SwapTestResult:
    """Hadamard test of state overlap: P(ancilla = 0) = 1/2 + |<a|b>|^2/2.

    ``shots = 0`` skips sampling and reports the exact probability.
    """
    n = load_a.n_qubits
    if load_b.n_qubits != n:
        raise CircuitError("swap test needs equal register sizes")
    width = 2 * n + 1
    anc = 2 * n
    gates = list(load_a.shifted(0, width).gates)
    gates.extend(load_b.shifted(n, width).gates)
    gates.append(sim.h(anc))
    for q in range(n):
        gates.append(sim.permutation((0, 1, 2, 5, 4, 3, 6, 7), (anc, q, n + q)))
    gates.append(sim.h(anc))
    circ = Circuit(width, gates, {"a": tuple(range(n)), "b": tuple(range(n, 2 * n)), "anc": (anc,)})
    state = sim.run(circ)
    p0 = float(sim.marginal_probabilities(state, [anc])[0])
    if shots == 0:
        p0_hat = p0
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        p0_hat = float(rng.binomial(shots, p0)) / shots
    overlap = float(np.sqrt(max(0.0, 2.0 * p0_hat - 1.0)))
    return SwapTestResult(p0_hat, overlap, p0, shots)
