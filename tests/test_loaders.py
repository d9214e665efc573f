import numpy as np
import pytest

from enqode import encodings as enc
from enqode import loaders, sim
from enqode.errors import CapacityError, EncodingError


def fid_with(output: loaders.LoaderOutput, target: np.ndarray) -> float:
    state = sim.run(output.circuit)
    return float(np.abs(np.vdot(state.amplitudes, target)) ** 2)


class TestLoadBasis:
    def test_bit_pattern(self):
        out = loaders.load_basis(5, 3)
        assert sorted(g.qubits[0] for g in out.circuit.gates) == [0, 2]
        assert sim.run(out.circuit).amplitudes[5] == 1.0

    def test_zero_is_empty(self):
        out = loaders.load_basis(0, 4)
        assert out.circuit.gates == ()
        assert out.report.depth == 0

    def test_depth_one(self):
        assert loaders.load_basis(7, 3).report.depth == 1

    def test_range_error(self):
        with pytest.raises(EncodingError):
            loaders.load_basis(8, 3)

    def test_matches_reference(self):
        for m, x in [(1, 1), (3, 5), (4, 11)]:
            target = enc.reference_state(enc.Basis(m), x).amplitudes
            assert fid_with(loaders.load_basis(x, m), target) == pytest.approx(1.0)


class TestLoadAngle:
    def test_zero(self):
        np.testing.assert_allclose(sim.run(loaders.load_angle([0.0]).circuit).amplitudes, [1, 0])

    def test_half_pi(self):
        np.testing.assert_allclose(
            sim.run(loaders.load_angle([np.pi / 2]).circuit).amplitudes, [0, 1], atol=1e-12
        )

    def test_tensor_product(self):
        thetas = [np.pi / 4, np.pi / 6]
        target = enc.reference_state(enc.Angle(2), enc.reals(thetas)).amplitudes
        assert fid_with(loaders.load_angle(thetas), target) == pytest.approx(1.0)

    def test_domain(self):
        for bad in ([2.0], [np.nan]):
            with pytest.raises(EncodingError):
                loaders.load_angle(bad)


class TestLoadFourier:
    def test_zero_uniform(self):
        out = sim.run(loaders.load_fourier(0, 2).circuit)
        np.testing.assert_allclose(out.amplitudes, [0.5] * 4, atol=1e-12)

    def test_one_qubit_minus(self):
        out = sim.run(loaders.load_fourier(1, 1).circuit)
        np.testing.assert_allclose(out.amplitudes, [2**-0.5, -(2**-0.5)], atol=1e-12)

    def test_depth_two(self):
        assert loaders.load_fourier(3, 4).report.depth == 2

    def test_matches_reference_all_x(self):
        for m in range(1, 6):
            for x in range(1 << m):
                target = enc.reference_state(enc.Fourier(m), x).amplitudes
                assert fid_with(loaders.load_fourier(x, m), target) >= 1 - 1e-10

    def test_range(self):
        with pytest.raises(EncodingError):
            loaders.load_fourier(4, 2)


class TestLoadAmplitude:
    def test_basis_vector(self):
        assert fid_with(loaders.load_amplitude([1, 0, 0, 0]), np.eye(4)[0]) == pytest.approx(1.0)

    def test_uniform(self):
        target = np.full(4, 0.5)
        assert fid_with(loaders.load_amplitude(target), target) == pytest.approx(1.0)

    def test_random_complex(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 4):
            a = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            a /= np.linalg.norm(a)
            assert fid_with(loaders.load_amplitude(a), a) >= 1 - 1e-9

    def test_normalization_enforced(self):
        for a in ([1.0, 1.0], [np.nan, 1, 0, 0], [np.inf, 0, 0, 0]):
            with pytest.raises(EncodingError):
                loaders.load_amplitude(a)

    def test_cnot_count_exact(self):
        # a full RY pyramid costs 2^n - 2 CNOTs for real input
        for n in (2, 3, 4, 5):
            a = np.full(1 << n, (1 << n) ** -0.5)
            assert loaders.load_amplitude(a).report.cnot_count == (1 << n) - 2

    def test_cnot_scaling_slope(self):
        rng = np.random.default_rng(3)
        ns = np.arange(2, 11)
        logs = []
        for n in ns:
            a = rng.random(1 << int(n))
            a /= np.linalg.norm(a)
            logs.append(np.log2(loaders.load_amplitude(a).report.cnot_count))
        slope = np.polyfit(ns, logs, 1)[0]
        assert 0.9 <= slope <= 1.1

    def test_multiplexer_matches_native_gate(self):
        # Gray-decomposed multiplexer == the simulator's native mry gate
        rng = np.random.default_rng(4)
        for k in (1, 2, 3):
            angles = rng.uniform(-np.pi, np.pi, 1 << k)
            controls = list(range(1, k + 1))
            gates = sim.gray_walk(sim.RY, angles, controls, 0)
            dec = sim.build_unitary(sim.Circuit(k + 1, gates))
            native = sim.build_unitary(
                sim.Circuit(k + 1, [sim.multiplexed_ry(angles, controls, 0)])
            )
            np.testing.assert_allclose(dec, native, atol=1e-10)

    def test_diagonal_pass_matches_numpy_diagonal(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            omega = rng.uniform(-np.pi, np.pi, 1 << n)
            gates = []
            loaders._emit_diagonal_phases(gates, omega, range(n))
            u = sim.build_unitary(sim.Circuit(n, gates))
            target = np.diag(np.exp(1j * omega))
            np.testing.assert_allclose(u, target * (u[0, 0] / target[0, 0]), atol=1e-10)


class TestLoadEquallyWeighted:
    def test_full_set_is_h_layer(self):
        out = loaders.load_equally_weighted(range(8), 3)
        assert all(g.kind == sim.H for g in out.circuit.gates)
        assert out.report.depth == 1

    def test_singleton_is_basis_load(self):
        out = loaders.load_equally_weighted([3], 2)
        assert sim.run(out.circuit).amplitudes[3] == 1.0
        assert all(g.kind == sim.X for g in out.circuit.gates)

    def test_bell_pair(self):
        out = loaders.load_equally_weighted([0, 3], 2)
        target = np.array([2**-0.5, 0, 0, 2**-0.5])
        assert fid_with(out, target) >= 1 - 1e-9

    def test_random_sets(self):
        rng = np.random.default_rng(6)
        for m in (2, 3, 4):
            size = int(rng.integers(2, 1 << m))
            xs = rng.choice(1 << m, size=size, replace=False)
            target = enc.reference_state(enc.EquallyWeighted(m), enc.integers(xs)).amplitudes
            assert fid_with(loaders.load_equally_weighted(xs, m), target) >= 1 - 1e-9

    def test_duplicates_rejected(self):
        with pytest.raises(EncodingError):
            loaders.load_equally_weighted([1, 1], 2)


class TestLoadDivideConquer:
    def test_basis_vector(self):
        out = loaders.load_divide_conquer([1, 0, 0, 0])
        marg = sim.marginal_probabilities(sim.run(out.circuit), out.data_register)
        np.testing.assert_allclose(marg, [1, 0, 0, 0], atol=1e-9)

    def test_uniform(self):
        out = loaders.load_divide_conquer([0.5] * 4)
        marg = sim.marginal_probabilities(sim.run(out.circuit), out.data_register)
        np.testing.assert_allclose(marg, [0.25] * 4, atol=1e-9)

    def test_marginals_random(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            a = rng.normal(size=1 << n)
            a /= np.linalg.norm(a)
            out = loaders.load_divide_conquer(a)
            marg = sim.marginal_probabilities(sim.run(out.circuit), out.data_register)
            np.testing.assert_allclose(marg, np.abs(a) ** 2, atol=1e-9)

    def test_width(self):
        for n in (2, 3, 4, 5):
            a = np.full(1 << n, (1 << n) ** -0.5)
            assert loaders.load_divide_conquer(a).report.width == n + (1 << n)

    def test_depth_quadratic_fit(self):
        depths = []
        ns = np.arange(2, 6)
        for n in ns:
            a = np.full(1 << int(n), float(1 << int(n)) ** -0.5)
            depths.append(loaders.load_divide_conquer(a).report.depth)
        x = ns.astype(float) ** 2
        c = float(np.dot(x, depths) / np.dot(x, x))
        resid = np.asarray(depths) - c * x
        r2 = 1 - np.sum(resid**2) / np.sum((depths - np.mean(depths)) ** 2)
        assert r2 >= 0.95

    def test_cap(self):
        a = np.full(64, 64**-0.5)
        with pytest.raises(CapacityError):
            loaders.load_divide_conquer(a)


class TestLoadBidirectional:
    def test_top_split_is_amplitude_loader(self):
        rng = np.random.default_rng(8)
        a = rng.random(8)
        a /= np.linalg.norm(a)
        out = loaders.load_bidirectional(a, 3)
        assert out.report.width == 3
        assert fid_with(out, a) >= 1 - 1e-9

    def test_uniform_s1(self):
        out = loaders.load_bidirectional(np.full(8, 8**-0.5), 1)
        marg = sim.marginal_probabilities(sim.run(out.circuit), out.data_register)
        np.testing.assert_allclose(marg, np.full(8, 0.125), atol=1e-9)

    def test_marginals_random_all_splits(self):
        rng = np.random.default_rng(9)
        for n in (2, 3):
            for s in range(1, n + 1):
                a = rng.normal(size=1 << n)
                a /= np.linalg.norm(a)
                out = loaders.load_bidirectional(a, s)
                marg = sim.marginal_probabilities(sim.run(out.circuit), out.data_register)
                np.testing.assert_allclose(marg, np.abs(a) ** 2, atol=1e-9)

    def test_width_nonincreasing_depth_endpoints(self):
        n = 4
        a = np.full(1 << n, float(1 << n) ** -0.5)
        outs = [loaders.load_bidirectional(a, s) for s in range(1, n + 1)]
        widths = [o.report.width for o in outs]
        assert widths == sorted(widths, reverse=True)
        assert outs[0].report.depth <= outs[-1].report.depth
        assert widths[0] >= widths[-1]

    def test_split_range(self):
        with pytest.raises(EncodingError):
            loaders.load_bidirectional([1, 0], 3)


def assert_lowering_equivalent(c: sim.Circuit) -> None:
    low = c.lowered()
    assert all(g.kind != sim.MULTIPLEXED_RY for g in low.gates)
    assert low.n_qubits == c.n_qubits and low.registers == c.registers
    np.testing.assert_allclose(sim.run(low).amplitudes, sim.run(c).amplitudes, rtol=0, atol=1e-12)


class TestLowering:
    def test_load_amplitude(self):
        # n multiplexers for the RY pyramid; complex input adds one RZ
        # multiplexer (an RY between H S and S^dag H) per qubit.
        rng = np.random.default_rng(12)
        for n in range(1, 9):
            real = rng.random(1 << n)
            cplx = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            for stages, a in ((n, real), (2 * n, cplx)):
                c = loaders.load_amplitude(a / np.linalg.norm(a)).circuit
                assert sum(g.kind == sim.MULTIPLEXED_RY for g in c.gates) == stages
                assert_lowering_equivalent(c)

    def test_load_bidirectional(self):
        rng = np.random.default_rng(13)
        for n in (2, 3):
            for s in range(1, n + 1):
                a = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                assert_lowering_equivalent(loaders.load_bidirectional(a / np.linalg.norm(a), s).circuit)

    def test_pinned_reports(self):
        # (depth, cnot_count) of the lowered circuits, as before builders
        # emitted native multiplexers.
        uniform = [loaders.load_amplitude(np.full(1 << n, (1 << n) ** -0.5)).report for n in (2, 3, 4, 5)]
        assert [(r.depth, r.cnot_count) for r in uniform] == [(4, 2), (11, 6), (26, 14), (57, 30)]
        bidir = [loaders.load_bidirectional(np.full(16, 0.25), s).report for s in (1, 2, 3, 4)]
        assert [(r.depth, r.cnot_count) for r in bidir] == [(10, 0), (12, 2), (19, 6), (26, 14)]


class TestQramOracle:
    def test_identity_table(self):
        c = loaders.qram_oracle([0, 1, 2, 3], 2)
        for i in range(4):
            st = sim.apply_circuit(sim.basis_state(4, i), c)
            assert st.amplitudes[i | (i << 2)] == pytest.approx(1.0)

    def test_superposed_query(self):
        c = loaders.qram_oracle([2, 0, 3, 1], 2)
        prep = sim.Circuit(4, [sim.h(0), sim.h(1)])
        st = sim.apply_circuit(sim.run(prep), c)
        for i, v in enumerate([2, 0, 3, 1]):
            assert st.amplitudes[i | (v << 2)] == pytest.approx(0.5)

    def test_overflow(self):
        with pytest.raises(EncodingError):
            loaders.qram_oracle([5, 5], 2)

    def test_query_count(self):
        assert loaders.qram_oracle([0, 1], 1).query_count == 1

    def test_one_entry_table_has_no_index_qubits(self):
        c = loaders.qram_oracle([3], 2)
        assert c.n_qubits == 2 and c.registers["index"] == ()
        ref = enc.reference_state(enc.QRam(0, 2), enc.integers([3]))
        assert sim.fidelity(sim.run(c), ref) == pytest.approx(1.0)

    def test_table_length_not_power_of_two(self):
        for xs in ([], [0, 1, 2]):
            with pytest.raises(EncodingError):
                loaders.qram_oracle(xs, 2)

    def test_offset_add_semantics(self):
        c = loaders.qram_oracle([3, 1], 2)
        st = sim.apply_circuit(sim.basis_state(3, 0 | (2 << 1)), c)  # |i=0,y=2>
        assert st.amplitudes[0 | (((2 + 3) % 4) << 1)] == pytest.approx(1.0)


def test_all_loaders_match_reference_fidelity():
    """Loader output vs the encodings ground truth, randomized."""
    rng = np.random.default_rng(10)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        x = int(rng.integers(0, 1 << m))
        assert (
            fid_with(loaders.load_basis(x, m), enc.reference_state(enc.Basis(m), x).amplitudes)
            >= 1 - 1e-9
        )
        assert (
            fid_with(
                loaders.load_fourier(x, m), enc.reference_state(enc.Fourier(m), x).amplitudes
            )
            >= 1 - 1e-9
        )
        thetas = rng.uniform(0, np.pi / 2, size=m)
        assert (
            fid_with(
                loaders.load_angle(thetas),
                enc.reference_state(enc.Angle(m), enc.reals(thetas)).amplitudes,
            )
            >= 1 - 1e-9
        )
        n = int(rng.integers(1, 5))
        a = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        a /= np.linalg.norm(a)
        assert (
            fid_with(
                loaders.load_amplitude(a),
                enc.reference_state(enc.Amplitude(n), enc.normalized(a)).amplitudes,
            )
            >= 1 - 1e-9
        )
