"""Extractor tests against closed forms.

Amplitude estimation is checked against the outcome distribution of
Brassard, Hoyer, Mosca and Tapp (quant-ph/0005055), the swap test against
``1/2 + |<a|b>|^2 / 2``, and the shot count against its normal-asymptotics
formula.  The closed forms take only the flag probability of ``F|0>`` or
the overlap of the two loaded states as input.
"""
import re
from statistics import NormalDist

import numpy as np
import pytest

from enqode import extractors as ext
from enqode import loaders, sim
from enqode.errors import CircuitError, NotDeterministicError


def bhmt_distribution(a: float, m: int) -> np.ndarray:
    """P(y) = (F(y/M - w) + F(y/M + w)) / 2 with sin^2(pi w) = a and the
    Fejer kernel F(d) = sin^2(M pi d) / (M^2 sin^2(pi d)), F = 1 at integers."""
    big_m = 1 << m
    omega = np.arcsin(np.sqrt(a)) / np.pi

    def fejer(delta):
        s = np.sin(np.pi * delta)
        on_grid = np.abs(s) < 1e-12
        s = np.where(on_grid, 1.0, s)
        return np.where(on_grid, 1.0, np.sin(big_m * np.pi * delta) ** 2 / (big_m * s) ** 2)

    y = np.arange(big_m) / big_m
    return 0.5 * (fejer(y - omega) + fejer(y + omega))


def flag_probability(f: sim.Circuit, flag: int) -> float:
    """P(flag = 1) of F|0>, summed from the amplitudes by hand."""
    amps = sim.run(f).amplitudes
    idx = np.arange(amps.size)
    return float(np.sum(np.abs(amps[(idx >> flag) & 1 == 1]) ** 2))


def random_loader(rng, n: int, complex_values: bool = False) -> sim.Circuit:
    a = np.abs(rng.normal(size=1 << n))
    if complex_values:
        a = a * np.exp(1j * rng.uniform(-np.pi, np.pi, size=a.size))
    return loaders.load_amplitude(a / np.linalg.norm(a)).circuit


class TestAmplitudeEstimation:
    @pytest.mark.parametrize("m", range(1, 6))
    def test_outcome_distribution_matches_bhmt(self, m):
        rng = np.random.default_rng(100 + m)
        for n, flag in ((1, 0), (2, 1), (2, 0)):
            f = random_loader(rng, n)
            np.testing.assert_allclose(
                ext.qae_outcome_distribution(f, m, flag=flag),
                bhmt_distribution(flag_probability(f, flag), m),
                atol=1e-12,
            )

    def test_on_grid_amplitude_is_exact(self):
        # a = sin^2(pi/8) lies on the m = 3 grid: outcomes 1 and 7 only.
        f = sim.Circuit(1, [sim.ry(2 * np.pi / 8, 0)])
        probs = ext.qae_outcome_distribution(f, 3)
        np.testing.assert_allclose(probs, [0, 0.5, 0, 0, 0, 0, 0, 0.5], atol=1e-12)
        assert ext.qae_estimate(f, 3, shots=16, seed=1).estimate == pytest.approx(np.sin(np.pi / 8) ** 2)

    def test_rejects_non_integer_shots(self):
        f = sim.Circuit(1, [sim.ry(0.3, 0)])
        with pytest.raises(CircuitError):
            ext.qae_estimate(f, 2, shots=2.5, seed=1)
        with pytest.raises(CircuitError):
            ext.mode_readout(sim.run(f), (0,), 2.5, 1)

    def test_checks_m_shots_and_seed_before_simulating(self, monkeypatch):
        f = sim.Circuit(1, [sim.ry(0.3, 0)])
        monkeypatch.setattr(sim, "run", lambda circuit: pytest.fail("simulated before checking its input"))
        for m, shots, seed in ((3, 0, 0), (3, 8, -1), (3, 8, 1.5), (2.5, 8, 0), (True, 8, 0), (2.0, 8, 0)):
            with pytest.raises(CircuitError):
                ext.qae_estimate(f, m, shots, seed)


def test_flag_outside_f_is_refused_by_name():
    # F's width, a phase qubit, a negative qubit, a bool and a float used
    # to fail by accident, on a repeated or out-of-range qubit, or not at
    # all; each of these functions now names the flag.
    f = random_loader(np.random.default_rng(5), 2)
    for flag in (f.n_qubits, f.n_qubits + 1, -1, True, 1.0):
        for call in (
            lambda: ext.qae_estimate(f, 3, 16, 0, flag=flag),
            lambda: ext.qae_circuit(f, 3, flag),
            lambda: ext.grover_operator(f, flag),
            lambda: ext.naive_amplitude_estimate(f, 16, 0.9, 0, flag=flag),
        ):
            with pytest.raises(CircuitError, match=re.escape(f"flag {flag!r} is not a qubit of F")):
                call()
    assert ext.qae_circuit(f, 3, np.int64(0)) == ext.qae_circuit(f, 3, 0)


def test_reflection_qubits_outside_f_are_refused_by_name():
    # A phase qubit used to fail as a repeated qubit of the ladder, and
    # F's width as a gate outside the circuit; both functions now name
    # the argument.
    f = random_loader(np.random.default_rng(5), 2)
    for qubits in ((), (0, 0), (-1,), True, (True,), (f.n_qubits,), (0, f.n_qubits + 1), 3):
        for call in (
            lambda: ext.grover_operator(f, reflection_qubits=qubits),
            lambda: ext.qpe_gates(f, None, 2, reflection_qubits=qubits),
        ):
            with pytest.raises(CircuitError, match=re.escape(f"reflection_qubits {qubits!r} is not")):
                call()
    period = ext.grover_operator(f, reflection_qubits=[np.int64(1), 0]).items[0].period
    assert period[1].reflected == (1, 0)
    assert ext.qpe_gates(f, None, 2, range(f.n_qubits)) == ext.qpe_gates(f, None, 2)


def test_phase_estimation_inverts_f_once(monkeypatch):
    # F is never inverted per controlled power: building the circuit
    # inverts no circuit (the reflection holds F's items), and the flat
    # expansion inverts F's gates once, for the one period of the ladder.
    calls, inverted = [], []
    inverse, invert = sim.Circuit.inverse, sim._inverted
    monkeypatch.setattr(sim.Circuit, "inverse", lambda self: calls.append(self.n_qubits) or inverse(self))
    monkeypatch.setattr(sim, "_inverted", lambda gates: inverted.append(tuple(gates)) or invert(gates))
    f = loaders.load_amplitude(np.sqrt([0.1, 0.2, 0.3, 0.05, 0.05, 0.1, 0.15, 0.05])).circuit
    c = ext.qae_circuit(f, 6)
    assert calls == [] and inverted == []
    c.gates
    assert inverted.count(f.gates) == 1


class TestSwapTest:
    def test_exact_probability_matches_overlap(self):
        rng = np.random.default_rng(7)
        for n in (1, 2):
            fa, fb = random_loader(rng, n, True), random_loader(rng, n, True)
            overlap = abs(np.vdot(sim.run(fa).amplitudes, sim.run(fb).amplitudes)) ** 2
            res = ext.swap_test(fa, fb, shots=0, seed=0)
            assert res.p0_exact == pytest.approx(0.5 + overlap / 2, abs=1e-12)
            assert res.p0_estimate == res.p0_exact
            assert res.overlap_estimate == pytest.approx(np.sqrt(overlap), abs=1e-6)

    def test_sampled_estimate(self):
        rng = np.random.default_rng(13)
        shots = 4000
        for n in (1, 2):
            fa, fb = random_loader(rng, n, True), random_loader(rng, n, True)
            for seed in (0, 1, 2):
                res = ext.swap_test(fa, fb, shots, seed)
                assert res == ext.swap_test(fa, fb, shots, seed)
                assert res.shots_used == shots and res.p0_estimate != res.p0_exact
                sigma = np.sqrt(res.p0_exact * (1.0 - res.p0_exact) / shots)
                assert abs(res.p0_estimate - res.p0_exact) <= 4 * sigma
                assert res.overlap_estimate == np.sqrt(max(0.0, 2 * res.p0_estimate - 1))

    def test_rejects_unequal_widths(self):
        for shots in (0, 10):
            with pytest.raises(CircuitError, match="equal register sizes"):
                ext.swap_test(sim.Circuit(1, [sim.h(0)]), sim.Circuit(2), shots, 1)

    def test_rejects_bad_shot_counts(self):
        f = sim.Circuit(1, [sim.h(0)])
        for shots in (-1, 2.5):
            with pytest.raises(CircuitError):
                ext.swap_test(f, f, shots, 1)
            with pytest.raises(CircuitError):
                ext.naive_amplitude_estimate(f, shots, 0.95, 1)


class TestNaiveEstimate:
    def test_interval_coverage_matches_confidence(self):
        # Normal-approximation intervals at alpha = 0.95 over 400 seeds: the
        # number covering the exact flag probability is Binomial(400, ~0.95);
        # 4 standard deviations either side.
        alpha, seeds = 0.95, 400
        f = random_loader(np.random.default_rng(3), 2)
        p = flag_probability(f, 0)  # 0.61
        covered = 0
        for seed in range(seeds):
            res = ext.naive_amplitude_estimate(f, 2000, alpha, seed, flag=0)
            assert (res.shots_used, res.oracle_queries, res.confidence) == (2000, 2000, alpha)
            covered += abs(res.estimate - p) <= res.error_target
        sigma = np.sqrt(seeds * alpha * (1 - alpha))
        assert abs(covered - alpha * seeds) <= 4 * sigma

    def test_checks_shots_alpha_and_seed_before_simulating(self, monkeypatch):
        # a bad seed used to be refused only after F was run
        f = sim.Circuit(1, [sim.ry(0.3, 0)])
        monkeypatch.setattr(sim, "run", lambda circuit: pytest.fail("simulated before checking its input"))
        for shots, alpha, seed in ((0, 0.9, 0), (8, 1.0, 0), (8, 0.9, -1), (8, 0.9, 1.5), (8, 0.9, None)):
            with pytest.raises(CircuitError):
                ext.naive_amplitude_estimate(f, shots, alpha, seed)

    def test_confidence_level_outside_unit_interval_rejected(self):
        # alpha = 1.0 or 1.5 used to raise StatisticsError, and alpha = -0.1
        # returned a negative error_target
        f = random_loader(np.random.default_rng(3), 2)
        for alpha in (0.0, 1.0, 1.5, -0.1, float("nan")):
            with pytest.raises(CircuitError, match="confidence alpha"):
                ext.naive_amplitude_estimate(f, 100, alpha, 0, flag=0)
            with pytest.raises(CircuitError, match="confidence alpha"):
                ext.required_shots(0.1, alpha, 0.5)

    def test_numbers_that_are_not_real_or_give_no_finite_count_are_refused(self):
        # these used to raise a bare TypeError, and an epsilon whose square
        # underflows a ZeroDivisionError
        f = random_loader(np.random.default_rng(3), 2)
        for make in (
            lambda: ext.required_shots("a", 0.9, 0.5),
            lambda: ext.required_shots(0.1, None, 0.5),
            lambda: ext.required_shots(0.1, 0.9, "p"),
            lambda: ext.required_shots(0.1, True, 0.5),
            lambda: ext.naive_amplitude_estimate(f, 10, "x", 0),
        ):
            with pytest.raises(CircuitError, match="real number"):
                make()
        for eps, p in ((1e-200, 0.5), (1e-160, 0.5), (1e-200, 0.0)):
            with pytest.raises(CircuitError, match="no finite count"):
                ext.required_shots(eps, 0.9, p)
        assert ext.required_shots(np.float32(0.01), np.float64(0.95), 1) == 0


class TestReadouts:
    def test_required_shots_formula(self):
        # The textbook 95% / +-1% worst case: 0.25 * 1.96^2 / 1e-4 -> 9604.
        assert ext.required_shots(0.01, 0.95, 0.5) == 9604
        for eps, alpha, p in ((0.05, 0.9, 0.2), (0.001, 0.99, 0.7), (0.1, 0.5, 0.01)):
            z = NormalDist().inv_cdf((1 + alpha) / 2)
            assert ext.required_shots(eps, alpha, p) == int(np.ceil(p * (1 - p) * z * z / eps**2))
        for eps, alpha, p in ((0.0, 0.95, 0.5), (-0.1, 0.95, 0.5), (0.1, 1.0, 0.5), (0.1, 0.95, 1.5)):
            with pytest.raises(CircuitError):
                ext.required_shots(eps, alpha, p)

    def test_mode_breaks_ties_toward_smaller_outcome(self):
        # |+> on qubit 1 of |x1 1>: outcomes 1 and 3, equally likely.
        state = sim.state_from_amplitudes([0, 2**-0.5, 0, 2**-0.5])
        ties = 0
        for seed in range(20):
            res = ext.mode_readout(state, (0, 1), shots=2, seed=seed)
            if res.histogram == {1: 1, 3: 1}:
                ties += 1
                assert res.mode == 1
            else:
                assert res.histogram == {res.mode: 2}
        assert ties > 0

    def test_mode_and_median_match_shot_records(self):
        # Odd and even shot counts; with 2 shots of outcomes 1 and 3 the two
        # middle outcomes differ and the median (2) is neither.
        spread = sim.run(random_loader(np.random.default_rng(17), 3))
        tie = sim.state_from_amplitudes([0, 2**-0.5, 0, 2**-0.5])
        for state, reg, shots in ((spread, (2, 0), 64), (spread, (1, 2, 0), 65), (tie, (0, 1), 2)):
            for seed in range(5):
                outcomes = [r.measured_bits["r"] for r in sim.sample_shots(state, {"r": reg}, shots, seed)]
                hist = {y: outcomes.count(y) for y in set(outcomes)}
                best = max(hist.values())
                mode = ext.mode_readout(state, reg, shots, seed)
                assert mode.histogram == hist
                assert mode.mode == min(y for y, v in hist.items() if v == best)
                median = ext.mode_readout(state, reg, shots, seed, strategy="median")
                assert median.mode == int(np.median(sorted(outcomes)))
                assert median.histogram == hist

    def test_histogram_lists_outcomes_in_ascending_order(self):
        state = sim.run(random_loader(np.random.default_rng(19), 3))
        counts = sim.sample_counts(state, (0, 1, 2), 256, 4)
        histogram = ext.mode_readout(state, (0, 1, 2), 256, 4).histogram
        assert list(histogram.items()) == [(y, int(counts[y])) for y in range(8) if counts[y]]
        assert {type(v) for v in histogram.values()} == {int}

    def test_unknown_strategy_rejected(self):
        with pytest.raises(CircuitError, match="unknown readout strategy"):
            ext.mode_readout(sim.zero_state(1), (0,), 4, 1, strategy="mean")

    def test_checks_strategy_before_sampling(self, monkeypatch):
        # an unknown strategy used to be refused only after every shot was drawn
        monkeypatch.setattr(sim, "sample_counts", lambda *a: pytest.fail("sampled before checking the strategy"))
        for strategy in ("mean", "Mode", "", None):
            with pytest.raises(CircuitError, match="unknown readout strategy"):
                ext.mode_readout(sim.zero_state(1), (0,), 4, 1, strategy=strategy)

    def test_basis_readout(self):
        assert ext.basis_readout(sim.basis_state(3, 5), (0, 2)) == 3
        with pytest.raises(NotDeterministicError):
            ext.basis_readout(sim.state_from_amplitudes([2**-0.5, 2**-0.5]), (0,))
