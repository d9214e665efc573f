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
from .converters import _check_m, qft_circuit  # noqa: F401  (benchmarks/tracing.py wraps extractors.qft_circuit)
from .errors import CircuitError, NotDeterministicError
from .sim import Circuit, StateVector

QAE_CONFIDENCE = 8.0 / np.pi**2


@dataclass(frozen=True)
class EstimateResult:
    estimate: float
    error_target: float
    confidence: float
    shots_used: int
    oracle_queries: int
    method: str


def _flag_qubit(f: Circuit, flag: int | None) -> int:
    """The flag qubit of ``f``: ``flag``, else its ``flag`` register's
    qubit, else its top qubit.  The one check of a flag: ``CircuitError``,
    naming it, unless it is an integer (not a bool) in ``0..n-1`` for ``f``
    of n qubits."""
    if flag is None:
        reg = f.registers.get("flag")
        return reg[0] if reg else f.n_qubits - 1
    if not sim._is_integer(flag) or not 0 <= flag < f.n_qubits:
        raise CircuitError(f"flag {flag!r} is not a qubit of F, 0..{f.n_qubits - 1}")
    return int(flag)


def _reflected_qubits(f: Circuit, reflection_qubits) -> tuple[int, ...]:
    """The qubits that Q's reflection about |0..0> reads:
    ``reflection_qubits``, else all of ``f``'s.  The one check of them:
    ``CircuitError``, naming the argument, unless it is a non-empty
    sequence of distinct integers (not bools) in ``0..n-1`` for ``f`` of n
    qubits."""
    if reflection_qubits is None:
        return tuple(range(f.n_qubits))
    try:
        qubits = sim._check_qubits(reflection_qubits, f.n_qubits)
    except CircuitError:
        qubits = ()
    if not qubits:
        raise CircuitError(
            f"reflection_qubits {reflection_qubits!r} is not a non-empty sequence of distinct qubits of F, "
            f"0..{f.n_qubits - 1}"
        )
    return qubits


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
    (no failure bound asserted for it).  The strategy is checked before
    anything is drawn."""
    if strategy not in ("mode", "median"):
        raise CircuitError(f"unknown readout strategy {strategy!r}")
    counts = sim.sample_counts(state, register, shots, seed)
    nz = np.flatnonzero(counts)
    hist = dict(zip(nz.tolist(), counts[nz].tolist()))
    if strategy == "median":
        # np.median of the sorted outcomes: the mean of the two middle ones
        # (equal when shots is odd), truncated.
        lo, hi = np.searchsorted(np.cumsum(counts), [(shots - 1) // 2, shots // 2], side="right").tolist()
        winner = (lo + hi) // 2
    else:
        winner = int(np.argmax(counts))  # first maximum: the smaller outcome on ties
    return ModeReadout(winner, hist)


# --------------------------------------------------------------------------
# Naive amplitude estimation
# --------------------------------------------------------------------------


def _z(alpha: float) -> float:
    """The two-sided normal quantile for confidence ``alpha``: the one
    check of every confidence level, which raises ``CircuitError`` unless
    it is a real number (``sim._real``) and 0 < alpha < 1."""
    if not 0 < sim._real(alpha) < 1:
        raise CircuitError(f"confidence alpha must be in (0, 1), got {alpha!r}")
    return NormalDist().inv_cdf((1.0 + alpha) / 2.0)


def required_shots(epsilon: float, alpha: float, p: float) -> int:
    """Shots for absolute error ``epsilon`` at confidence ``alpha`` when
    the flag probability is ``p`` (normal asymptotics).  Raises
    ``CircuitError`` unless ``epsilon`` and ``p`` are real numbers
    (``sim._real``), epsilon > 0 and 0 <= p <= 1, and the count is finite."""
    epsilon, p = sim._real(epsilon), sim._real(p)
    if not (epsilon > 0 and 0 <= p <= 1):
        raise CircuitError(f"required_shots needs epsilon > 0 and 0 <= p <= 1; got {epsilon}, {p}")
    z = _z(alpha)
    square = epsilon * epsilon
    shots = p * (1.0 - p) * z * z / square if square else np.inf
    if not np.isfinite(shots):
        raise CircuitError(f"required_shots({epsilon!r}, {alpha!r}, {p!r}) is no finite count of shots")
    return int(np.ceil(shots))


def naive_amplitude_estimate(
    f: Circuit, shots: int, alpha: float, seed: int, flag: int | None = None
) -> EstimateResult:
    """Frequency of flag = 1 over ``shots`` repetitions of ``F``, with a
    normal-approximation confidence interval.  ``shots``, ``alpha``,
    ``seed`` and the flag are checked before anything is simulated."""
    sim.check_shots(shots, 1)
    sim.check_seed(seed)
    z = _z(alpha)
    flag = _flag_qubit(f, flag)
    state = sim.run(f)
    p = min(float(sim.marginal_probabilities(state, [flag])[1]), 1.0)  # a sure flag may sum to 1 + 2**-52
    hits = int(sim.seeded_generator(seed).binomial(shots, p))
    p_hat = hits / shots
    half_width = z * np.sqrt(p_hat * (1.0 - p_hat) / shots)
    return EstimateResult(p_hat, float(half_width), alpha, shots, shots, "naive")


# --------------------------------------------------------------------------
# Grover operator and amplitude estimation
# --------------------------------------------------------------------------


def _grover_gates(f_items, flag: int, reflected) -> tuple:
    """The period of Q = F . (reflection about |0..0>) . F-inverse . (flag
    phase flip), given F's items and the qubits the reflection reads: the
    flag's phase of pi and one ``sim.Reflection``, ``F (2 P - I)
    F^dagger``, whose sign makes the eigenphases exactly ``+-2*theta``.
    ``grover_operator`` repeats it and ``qpe_gates`` ladders it."""
    return sim.p(np.pi, flag), sim.Reflection(f_items, reflected)


def grover_operator(f: Circuit, flag: int | None = None, reflection_qubits=None) -> Circuit:
    """Q = F . (reflection about |0..0>) . F-inverse . (flag phase flip)
    (``_grover_gates``), whose eigenphases are ``+-2*theta`` where
    ``sin(theta)**2`` is the flag-1 probability of ``F|0>``.  It is one
    ``sim.Repeat`` of count 1 whose period holds a ``sim.Reflection``, so
    its plan step is one matrix on at most ``sim._POWER_QUBITS`` qubits.  A
    caller repeating Q r times declares ``sim.Repeat(period, r)`` of that
    period (one matrix power).  The flag and the reflected qubits are
    checked (``_flag_qubit``, ``_reflected_qubits``)."""
    flag = _flag_qubit(f, flag)
    reflected = _reflected_qubits(f, reflection_qubits)
    return Circuit(f.n_qubits, [sim.Repeat(_grover_gates(f.items, flag, reflected), 1)], f.registers, f.query_count)


def qpe_gates(f: Circuit, flag: int | None, m: int, reflection_qubits=None) -> list:
    """Phase estimation on Q(F): H layer, controlled powers of Q, inverse
    Fourier transform on the ``m`` phase qubits sitting above ``f``.  The m
    powers ``Q**(2**j)``, each controlled on phase qubit j, are one ladder
    ``sim.Repeat`` of the period ``grover_operator`` repeats
    (``_grover_gates``).  The simulator powers that period, the flag's
    phase as a row scale and the reflection from the state F's pyramid
    prepares, without multiplying F's gates.  ``run``'s plan sees at the
    first H that the layer leads into its ladder and makes both one step
    from the loaded state, with no growth for the H gates: where phase
    qubits ``0..j-1`` hold y, it writes ``Q**(2**j)`` times the rows of y
    into the rows of ``y + 2**j``, so row y is ``Q**y F|0>``.  The inverse
    transform is one ``sim.Qft`` block.  The flag and the reflected qubits
    are checked (``_flag_qubit``, ``_reflected_qubits``); no circuit is
    built here, and F is never inverted: the reflection holds F's items."""
    _check_m(m)
    flag = _flag_qubit(f, flag)
    w = f.n_qubits
    reflected = _reflected_qubits(f, reflection_qubits)
    phase = tuple(range(w, w + m))
    gates: list = [sim.h(q) for q in phase]
    gates.append(sim.Repeat(_grover_gates(f.items, flag, reflected), 1, phase))
    gates.append(sim.Qft(phase, True))
    return gates


def qae_circuit(f: Circuit, m: int, flag: int | None = None) -> Circuit:
    """The full amplitude-estimation circuit: F's items, then phase
    estimation on an ``m``-qubit phase register above them (``qpe_gates``),
    with F's registers plus ``qae_phase``.  Its flat ``gates`` list each
    controlled power ``Q**(2**j)`` as 2**j copies of controlled Q."""
    gates = [*f.items, *qpe_gates(f, flag, m)]
    regs = dict(f.registers)
    regs["qae_phase"] = tuple(range(f.n_qubits, f.n_qubits + m))
    return Circuit(f.n_qubits + m, gates, regs, f.query_count)


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
    F-queries.  ``m``, ``shots`` and ``seed`` are checked before anything
    is simulated.
    """
    sim.check_shots(shots, 1)
    sim.check_seed(seed)
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
    """P(ancilla = 0), sampled and exact, and the overlap it implies, of
    the loaders' whole states, ancillas included (``swap_test``)."""

    p0_estimate: float
    overlap_estimate: float
    p0_exact: float
    shots_used: int


def swap_test(load_a: Circuit, load_b: Circuit, shots: int, seed: int) -> SwapTestResult:
    """Hadamard test of state overlap: P(ancilla = 0) = 1/2 + |<a|b>|^2/2,
    ``|a>`` and ``|b>`` the loaders' whole states, ancillas included.  Two
    ``load_bidirectional(., 1)`` loads entangle them with the data, so at
    n = 3 one pair reads 0.18 where the data overlap ``(a.b)**2`` is 0.53.

    ``shots = 0`` skips sampling and reports the exact probability; the
    seed is checked either way.
    """
    sim.check_shots(shots, 0)
    rng = sim.seeded_generator(seed)
    n = load_a.n_qubits
    if load_b.n_qubits != n:
        raise CircuitError("swap test needs equal register sizes")
    width = 2 * n + 1
    anc = 2 * n
    gates = list(load_a.shifted(0, width).items)
    gates.extend(load_b.shifted(n, width).items)
    gates.append(sim.h(anc))
    gates.extend(sim.cswap(anc, q, n + q) for q in range(n))
    gates.append(sim.h(anc))
    circ = Circuit(width, gates, {"a": tuple(range(n)), "b": tuple(range(n, 2 * n)), "anc": (anc,)})
    state = sim.run(circ)
    p0 = min(float(sim.marginal_probabilities(state, [anc])[0]), 1.0)  # equal loads may sum to 1 + 2**-52
    if shots == 0:
        p0_hat = p0
    else:
        p0_hat = float(rng.binomial(shots, p0)) / shots
    overlap = float(np.sqrt(max(0.0, 2.0 * p0_hat - 1.0)))
    return SwapTestResult(p0_hat, overlap, p0, shots)
