"""Encoding-to-encoding conversion circuits.

* ``qft_circuit`` converts basis to Fourier encoding (and back via its
  inverse): one ``sim.Qft`` block, whose matrix is the DFT ``2**(-m/2) *
  exp(2*pi*i*j*k/2**m)``.  The simulator runs it as one FFT; its flat
  expansion ends in the qubit-reversal swaps, so it is that DFT too.
* ``convert_ew_to_amplitude`` turns a digit table held in an
  equally-weighted/qRAM-style state into an amplitude encoding, by
  post-selection; success probability is ``mean(d_i^2)``.
* ``convert_amplitude_to_ew`` runs phase estimation against the loading
  unitary to write each amplitude's digits next to its index.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sim
from .errors import CapacityError, CircuitError, EncodingError
from .loaders import qram_oracle
from .sim import Circuit, StateVector

MAX_QFT_QUBITS = 12


def _check_m(m: int) -> None:
    """The one check of a Fourier or phase register's size: ``CircuitError``
    unless ``m`` is an integer, ``CapacityError`` unless it is in
    ``1..MAX_QFT_QUBITS``."""
    if not sim._is_integer(m):
        raise CircuitError(f"register size m must be an integer, got {m!r}")
    if not 1 <= m <= MAX_QFT_QUBITS:
        raise CapacityError(f"register size {m} outside 1..{MAX_QFT_QUBITS}")


def qft_circuit(m: int) -> Circuit:
    """Fourier transform on ``m`` qubits, basis to Fourier encoding:
    ``|x> -> 2**(-m/2) * sum_y exp(2*pi*i*x*y/2**m) |y>`` with qubit 0 the
    low bit.  It is one ``sim.Qft`` block: the simulator runs it as one
    orthonormal FFT, and ``gates`` lists its H + controlled-phase ladder
    ending in qubit-reversal swaps, so the closed form holds verbatim for
    both."""
    _check_m(m)
    return Circuit(m, [sim.Qft(tuple(range(m)))], {"data": tuple(range(m))})


def qft_inverse_circuit(m: int) -> Circuit:
    return qft_circuit(m).inverse()


# --------------------------------------------------------------------------
# Equally-weighted digits -> amplitude (post-selected)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConversionResult:
    """Outcome of the post-selected digit-to-amplitude protocol.

    ``state`` is the renormalized branch matching the drawn outcome; on
    success the digit register has been returned to zero by the single
    ``U_D``-inverse call and the index register holds the normalized
    amplitude encoding of the digits.
    """

    state: StateVector
    success: bool
    success_prob_estimate: float
    index_register: tuple[int, ...]
    digit_register: tuple[int, ...]
    flag_qubit: int


def _oracle_digit_table(u_d: Circuit, m: int) -> list[int]:
    """Verify ``u_d`` maps |i>|0> -> |i>|v_i> and return the v table."""
    n_idx = u_d.n_qubits - m
    if n_idx < 1:
        raise EncodingError(f"loader width {u_d.n_qubits} leaves no index register for m={m}")
    table = []
    for i in range(1 << n_idx):
        out = sim.apply_circuit(sim.basis_state(u_d.n_qubits, i), u_d)
        top = sim.certain_outcome(out.probabilities)
        if top is None or (top & ((1 << n_idx) - 1)) != i:
            raise EncodingError(
                "digit loader must act as a value oracle |i>|0> -> |i>|v_i>; "
                f"basis input {i} came out superposed or moved"
            )
        table.append(top >> n_idx)
    return table


def _ew_prep_circuit(u_d: Circuit, m: int) -> Circuit:
    """Uniform index layer, the digit oracle ``u_d``, then one multiplexer
    over the ``m`` digit qubits tilting a new top ancilla by
    ``2*arcsin(v / 2**m)`` for digit value ``v``."""
    n_idx = u_d.n_qubits - m
    width = u_d.n_qubits + 1
    angles = [2.0 * np.arcsin(v / float(1 << m)) for v in range(1 << m)]
    gates: list = [sim.h(q) for q in range(n_idx)]
    gates.extend(u_d.shifted(0, width).items)
    gates.append(sim.multiplexed_ry(angles, range(n_idx, n_idx + m), width - 1))
    return Circuit(width, gates, query_count=u_d.query_count)


def convert_ew_to_amplitude(u_d: Circuit, m: int, seed: int) -> ConversionResult:
    """Convert ``N**-0.5 * sum_i |i>|v_i>`` into ``sum_i d_i |i>`` with
    ``d_i = v_i / 2**m``.

    ``u_d`` must act as a digit oracle on basis states (the uniform index
    layer is applied here).  Digit-multiplexed rotations tilt an ancilla
    by ``2*arcsin(d_i)``; the ancilla is then measured, and on outcome 1
    (probability ``mean(d_i**2)``, drawn from the seeded generator against
    the exact simulated probability) one call to the inverse loader clears
    the digit register.  ``m`` is checked (``_check_m``) before anything is
    simulated.
    """
    _check_m(m)
    _oracle_digit_table(u_d, m)
    prep = _ew_prep_circuit(u_d, m)
    width = prep.n_qubits
    anc = width - 1
    n_idx = u_d.n_qubits - m
    index_reg = tuple(range(n_idx))
    digit_reg = tuple(range(n_idx, n_idx + m))

    prepared = sim.run(prep)
    psi = prepared.amplitudes
    idx = np.arange(psi.size)
    ones = (idx >> anc) & 1 == 1
    p_success = float(prepared.probabilities[ones].sum())

    success = bool(sim.seeded_generator(seed).random() < p_success)

    branch = psi.copy()
    branch[~ones if success else ones] = 0.0
    branch /= np.linalg.norm(branch)
    state = StateVector(width, branch)
    if success:
        state = sim.apply_circuit(state, u_d.inverse().shifted(0, width))
    return ConversionResult(state, success, p_success, index_reg, digit_reg, anc)


def ew_conversion_success_frequency(u_d: Circuit, m: int, trials: int, seed: int) -> int:
    """Number of successes over ``trials`` seeded repetitions of the
    protocol (the state is simulated once; only the measurement is
    repeated)."""
    sim.check_shots(trials, 0)
    probe = convert_ew_to_amplitude(u_d, m, seed)
    return int(np.sum(sim.seeded_generator(seed).random(trials) < probe.success_prob_estimate))


# --------------------------------------------------------------------------
# Amplitude -> equally-weighted digits (phase-estimation based)
# --------------------------------------------------------------------------


def digit_of_phase_outcome(y: int, m: int) -> int:
    """Digit value assigned to phase outcome ``y``.

    Grid convention: outcome ``y`` estimates ``theta = pi*y/2**m`` with
    ``d = sin(theta)``; the emitted digit value is
    ``min(2**m - 1, round(2**m * sin(pi*y/2**m)))``, automatically mirror
    symmetric in ``y <-> 2**m - y``.
    """
    return min((1 << m) - 1, int(round((1 << m) * np.sin(np.pi * y / (1 << m)))))


def convert_amplitude_to_ew(u_a: Circuit, m: int) -> Circuit:
    """Approximate ``sum_i d_i|i>`` by ``N**-0.5 * sum_i |i>|digits(d_i)>``.

    Phase estimation runs on the Grover operator of a comparison unitary
    (a fresh ``u_a`` register tested for equality against the index), the
    phase outcome is mapped to digits through a reversible table oracle,
    and the phase machinery is uncomputed.  Exact whenever every
    ``arcsin(d_i)/pi`` lies on the ``2**-m`` grid.

    Registers: index ``[0,n)``, work ``[n,2n)``, flag ``2n``, phase
    ``[2n+1, 2n+1+m)``, digits last.  ``O(2**m)`` controlled applications
    of ``u_a`` in total.
    """
    from .extractors import qpe_gates  # circular at module load otherwise

    _check_m(m)
    n = u_a.n_qubits
    if n + m > 12:
        raise CapacityError(f"index qubits + m = {n + m} exceeds the cap of 12")
    w = 2 * n + 1
    width = w + 2 * m
    index_reg = tuple(range(n))
    work_reg = tuple(range(n, 2 * n))
    flag = 2 * n
    phase_reg = tuple(range(w, w + m))
    out_reg = tuple(range(w + m, w + 2 * m))

    # F: load onto the work register, flip the flag iff work == index.
    eq_qubits = tuple(range(2 * n + 1))
    eq_table = []
    for local in range(1 << (2 * n + 1)):
        i = local & ((1 << n) - 1)
        wk = (local >> n) & ((1 << n) - 1)
        eq_table.append(local ^ (1 << (2 * n)) if i == wk else local)
    f_circ = Circuit(w, u_a.shifted(n, w).items + (sim.permutation(eq_table, eq_qubits),))

    gates: list = [sim.h(q) for q in index_reg]
    # estimate block: F once, then phase estimation on its Grover operator
    estimate = list(f_circ.shifted(0, width).items)
    estimate.extend(qpe_gates(f_circ, flag, m, reflection_qubits=work_reg + (flag,)))
    gates.extend(estimate)
    # reversible digit write |y>|z> -> |y>|z + g(y) mod 2^m>: the qRAM
    # oracle of the digit table g, indexed by the phase register
    digits = [digit_of_phase_outcome(y, m) for y in range(1 << m)]
    gates.extend(qram_oracle(digits, m).shifted(w, width).gates)
    # uncompute the whole estimate block so only index (x) digits remain
    gates.extend(g.inverse() for g in reversed(estimate))

    return Circuit(
        width,
        gates,
        {
            "index": index_reg,
            "work": work_reg,
            "flag": (flag,),
            "phase": phase_reg,
            "digits": out_reg,
        },
        query_count=u_a.query_count,
    )
