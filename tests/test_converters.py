import numpy as np
import pytest

from enqode import converters as conv
from enqode import encodings as enc
from enqode import loaders, sim
from enqode.errors import CapacityError, CircuitError, EncodingError


def dft_matrix(m: int) -> np.ndarray:
    dim = 1 << m
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(2j * np.pi * j * k / dim) / np.sqrt(dim)


class TestQft:
    def test_m1_is_hadamard(self):
        u = sim.build_unitary(conv.qft_circuit(1))
        np.testing.assert_allclose(u, dft_matrix(1), atol=1e-12)

    def test_m2_matrix(self):
        expected = 0.5 * np.array(
            [[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]]
        )
        np.testing.assert_allclose(sim.build_unitary(conv.qft_circuit(2)), expected, atol=1e-12)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_dft(self, m):
        np.testing.assert_allclose(
            sim.build_unitary(conv.qft_circuit(m)), dft_matrix(m), atol=1e-10
        )

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=16) + 1j * rng.normal(size=16)
        a /= np.linalg.norm(a)
        s = sim.state_from_amplitudes(a)
        c = conv.qft_circuit(4).concat(conv.qft_inverse_circuit(4))
        assert sim.fidelity(sim.apply_circuit(s, c), s) >= 1 - 1e-10

    def test_converts_basis_to_fourier(self):
        for m in range(1, 7):
            qft = conv.qft_circuit(m)
            for x in range(1 << m):
                out = sim.apply_circuit(sim.basis_state(m, x), qft)
                ref = enc.reference_state(enc.Fourier(m), x)
                np.testing.assert_allclose(out.amplitudes, ref.amplitudes, atol=1e-10)

    def test_size_cap(self):
        with pytest.raises(CapacityError):
            conv.qft_circuit(13)

    @pytest.mark.parametrize("m", [2.0, 1.5, True, "2", None])
    def test_size_is_an_integer(self, m):
        with pytest.raises(CircuitError):
            conv.qft_circuit(m)
        with pytest.raises(CircuitError):
            conv.convert_amplitude_to_ew(loaders.load_amplitude([0.6, 0.8]).circuit, m)


class TestEwToAmplitude:
    def test_success_probability_formula(self):
        # d = (0.75, 0.25): success = (0.5625 + 0.0625)/2
        ud = loaders.qram_oracle([3, 1], 2)
        res = conv.convert_ew_to_amplitude(ud, 2, seed=5)
        assert res.success_prob_estimate == pytest.approx(0.3125, abs=1e-12)

    def test_prep_lowering_equivalent(self):
        prep = conv._ew_prep_circuit(loaders.qram_oracle([3, 1, 0, 2], 2), 2)
        assert [g.kind for g in prep.gates].count(sim.MULTIPLEXED_RY) == 1
        low = prep.lowered()
        assert all(g.kind != sim.MULTIPLEXED_RY for g in low.gates)
        np.testing.assert_allclose(sim.run(low).amplitudes, sim.run(prep).amplitudes, rtol=0, atol=1e-12)

    def test_uniform_quarter_digits(self):
        # d = (0.5, 0.5, 0.5, 0.5): success 0.25, output uniform
        ud = loaders.qram_oracle([2, 2, 2, 2], 2)
        res = conv.convert_ew_to_amplitude(ud, 2, seed=3)
        assert res.success_prob_estimate == pytest.approx(0.25, abs=1e-12)
        for seed in range(50):
            r = conv.convert_ew_to_amplitude(ud, 2, seed)
            if r.success:
                probs = sim.marginal_probabilities(r.state, r.index_register)
                np.testing.assert_allclose(probs, [0.25] * 4, atol=1e-9)
                break
        else:
            pytest.fail("no successful seed found at p=0.25 in 50 tries")

    def test_max_digits_success_approaches_one(self):
        # d_i = 1 - 2^-m everywhere; the all-ones limit of the protocol
        for m in (2, 3):
            v = (1 << m) - 1
            ud = loaders.qram_oracle([v] * 4, m)
            res = conv.convert_ew_to_amplitude(ud, m, seed=0)
            assert res.success_prob_estimate == pytest.approx((v / (1 << m)) ** 2, abs=1e-12)

    def test_cleaned_state_fidelity(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n_idx, m = int(rng.integers(1, 3)), int(rng.integers(2, 4))
            vs = rng.integers(0, 1 << m, size=1 << n_idx)
            if not np.any(vs):
                vs[0] = 1
            ud = loaders.qram_oracle(list(vs), m)
            d = vs / float(1 << m)
            target = d / np.linalg.norm(d)
            for seed in range(200):
                r = conv.convert_ew_to_amplitude(ud, m, seed)
                if r.success:
                    break
            else:
                pytest.fail("no success in 200 seeds")
            # index register should be clean: digits |0>, flag |1>
            anc_hi = 1 << r.flag_qubit
            idx_amps = np.array(
                [r.state.amplitudes[i | anc_hi] for i in range(1 << n_idx)]
            )
            assert abs(np.vdot(idx_amps, target)) ** 2 >= 1 - 1e-6

    def test_success_frequency_matches_binomial(self):
        ud = loaders.qram_oracle([3, 1], 2)
        hits = conv.ew_conversion_success_frequency(ud, 2, trials=10_000, seed=9)
        p = 0.3125
        sigma = np.sqrt(p * (1 - p) * 10_000)
        assert abs(hits - p * 10_000) <= 3 * sigma
        for trials in (-1, 2.5):
            with pytest.raises(CircuitError):
                conv.ew_conversion_success_frequency(ud, 2, trials, seed=9)

    def test_rejects_non_oracle_loader(self):
        # an H layer is not a value oracle
        bad = sim.Circuit(3, [sim.h(0), sim.h(1), sim.h(2)])
        with pytest.raises(EncodingError):
            conv.convert_ew_to_amplitude(bad, 2, seed=0)

    def test_rejects_loader_without_index_register(self):
        with pytest.raises(EncodingError, match="leaves no index register"):
            conv.convert_ew_to_amplitude(loaders.qram_oracle([1], 2), 2, seed=0)

    @pytest.mark.parametrize(
        "m, error", [(1.5, CircuitError), (2.0, CircuitError), (True, CircuitError), (0, CapacityError), (-1, CapacityError)]
    )
    def test_digit_register_size_is_checked_before_simulating(self, monkeypatch, m, error):
        # 1.5 and 2.0 raised a bare TypeError; True, 0 and -1 ran the oracle
        # check and failed with an EncodingError about the oracle
        for name in ("run", "apply_circuit"):
            monkeypatch.setattr(sim, name, lambda *args: pytest.fail("simulated before checking m"))
        with pytest.raises(error):
            conv.convert_ew_to_amplitude(loaders.qram_oracle([2, 3], 2), m, seed=0)

    def test_determinism(self):
        ud = loaders.qram_oracle([2, 3], 2)
        a = conv.convert_ew_to_amplitude(ud, 2, seed=4)
        b = conv.convert_ew_to_amplitude(ud, 2, seed=4)
        assert a.success == b.success
        np.testing.assert_array_equal(a.state.amplitudes, b.state.amplitudes)


def reduced_fidelity_index_digits(circuit, psi, n, m, ideal_pairs):
    """<t|rho|t> for the (index, digits) registers against a pure target."""
    w = 2 * n + 1
    a = psi.amplitudes.reshape(1 << m, 1 << (w + m - n), 1 << n)
    t = np.zeros((1 << n, 1 << m), dtype=complex)
    for i, g in ideal_pairs:
        t[i, g] = (1 << n) ** -0.5
    contr = np.einsum("oji,io->j", a, t.conj())
    return float(np.sum(np.abs(contr) ** 2))


class TestAmplitudeToEw:
    def test_on_grid_exact(self):
        # theta = pi/4 for both branches sits on the m=3 grid
        d = np.array([np.sqrt(0.5), np.sqrt(0.5)])
        circ = conv.convert_amplitude_to_ew(loaders.load_amplitude(d).circuit, 3)
        psi = sim.run(circ)
        g = conv.digit_of_phase_outcome(2, 3)
        fid = reduced_fidelity_index_digits(circ, psi, 1, 3, [(0, g), (1, g)])
        assert fid >= 1 - 1e-6
        # phase machinery fully uncomputed
        assert sim.marginal_probabilities(psi, circ.registers["phase"])[0] >= 1 - 1e-9
        assert sim.marginal_probabilities(
            psi, circ.registers["work"] + circ.registers["flag"]
        )[0] >= 1 - 1e-9

    def test_uniform_digits_equal_across_branches(self):
        d = np.full(4, 0.5)
        circ = conv.convert_amplitude_to_ew(loaders.load_amplitude(d).circuit, 4)
        psi = sim.run(circ)
        joint = sim.marginal_probabilities(
            psi, circ.registers["index"] + circ.registers["digits"]
        )
        conds = joint.reshape(1 << 4, 4)
        conds = conds / conds.sum(axis=0)
        assert np.max(np.abs(conds - conds[:, [0]])) < 1e-9

    def test_fidelity_improves_on_average(self):
        rng = np.random.default_rng(123)
        fids = {4: [], 6: []}
        for _ in range(4):
            d = rng.random(2)
            d /= np.linalg.norm(d)
            ua = loaders.load_amplitude(d).circuit
            for m in (4, 6):
                circ = conv.convert_amplitude_to_ew(ua, m)
                psi = sim.run(circ)
                ideal = []
                for i, di in enumerate(d):
                    ystar = int(round(np.arcsin(di) / np.pi * (1 << m))) % (1 << m)
                    ideal.append((i, conv.digit_of_phase_outcome(ystar, m)))
                fids[m].append(reduced_fidelity_index_digits(circ, psi, 1, m, ideal))
        assert np.mean(fids[6]) > np.mean(fids[4])

    def test_size_cap(self):
        with pytest.raises(CapacityError):
            conv.convert_amplitude_to_ew(sim.Circuit(8, [sim.h(0)]), 5)

    def test_equality_table_matches_the_per_entry_loop(self):
        # F's comparator flips the flag (qubit 2n) where index == work
        for n in (1, 2, 3):
            circ = conv.convert_amplitude_to_ew(loaders.load_amplitude(np.full(1 << n, 2 ** (-n / 2))).circuit, 2)
            eq = next(i for i in circ.items if type(i) is sim.Gate and i.kind == sim.PERMUTATION)
            mask = (1 << n) - 1
            loop = [x ^ (1 << 2 * n) if x & mask == (x >> n) & mask else x for x in range(1 << (2 * n + 1))]
            assert eq.qubits == tuple(range(2 * n + 1)) and eq.table == tuple(loop)


def test_ew_success_vanishes_with_n():
    """Analytic check: for i.i.d. digits with mean below one, mean(d^2)
    stays bounded away from 1 while the uniform-superposition weight of any
    one index vanishes; the success probability formula mean(d_i^2) is
    nonincreasing for representative growing tables."""
    rng = np.random.default_rng(21)
    base = rng.uniform(0.1, 0.6, size=64)
    probs = []
    for n in (4, 16, 64):
        d = base[:n]
        probs.append(float(np.mean(d**2)))
    # monotone check on the analytic formula over N in {4, 16, 64}
    assert probs[0] >= probs[1] >= probs[2] or probs[2] < 0.36
