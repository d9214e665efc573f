"""Core simulator tests.

The independent oracle here builds the full matrix of every gate via
explicit Kronecker products (``kron_embed``) and multiplies it out, never
going through the simulator's in-place bit-sliced application.
"""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enqode import loaders, sim
from enqode.errors import CapacityError, CircuitError
from enqode.tolerances import EQUIV_ATOL

RNG = np.random.default_rng(20240811)


def kron_embed(local: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Embed a local unitary (bit i = qubits[i]) into the full 2^n space."""
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=np.complex128)
    rest = [q for q in range(n) if q not in qubits]
    for col in range(dim):
        loc = 0
        for i, q in enumerate(qubits):
            loc |= ((col >> q) & 1) << i
        for loc_out in range(local.shape[0]):
            amp = local[loc_out, loc]
            if amp == 0:
                continue
            row = 0
            for i, q in enumerate(qubits):
                row |= ((loc_out >> i) & 1) << q
            for q in rest:
                row |= ((col >> q) & 1) << q
            full[row, col] += amp
    return full


def oracle_apply(state: np.ndarray, circuit: sim.Circuit) -> np.ndarray:
    psi = state.copy()
    for g in circuit.gates:
        psi = kron_embed(sim.gate_matrix(g), g.qubits, circuit.n_qubits) @ psi
    return psi


def random_gate(rng, n: int) -> sim.Gate:
    """A random gate of any kind that fits on ``n`` qubits (single-qubit
    kinds only at n = 1); ``mry`` takes up to 3 controls."""
    kinds = ["x", "h", "ry", "p", "perm"]
    if n >= 2:
        kinds += ["cnot", "cp", "swap", "cry", "mry"]
    kind = rng.choice(kinds)
    qs = rng.permutation(n)
    if kind in ("x", "h"):
        return sim.Gate(kind, (int(qs[0]),))
    if kind in ("ry", "p"):
        return sim.Gate(kind, (int(qs[0]),), angle=float(rng.uniform(-np.pi, np.pi)))
    if kind in ("cnot", "swap"):
        return sim.Gate(kind, (int(qs[0]), int(qs[1])))
    if kind in ("cp", "cry"):
        return sim.Gate(kind, (int(qs[0]), int(qs[1])), angle=float(rng.uniform(-np.pi, np.pi)))
    if kind == "mry":
        k = int(rng.integers(1, min(4, n)))
        return sim.multiplexed_ry(
            rng.uniform(-np.pi, np.pi, size=1 << k), [int(q) for q in qs[:k]], int(qs[k])
        )
    k = int(rng.integers(1, min(4, n + 1)))
    table = rng.permutation(1 << k)
    return sim.permutation([int(t) for t in table], [int(q) for q in qs[:k]])


def random_state(rng, n: int) -> sim.StateVector:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return sim.StateVector(n, amps / np.linalg.norm(amps))


class TestZeroState:
    def test_one_qubit(self):
        np.testing.assert_array_equal(sim.zero_state(1).amplitudes, [1, 0])

    def test_two_qubits(self):
        np.testing.assert_array_equal(sim.zero_state(2).amplitudes, [1, 0, 0, 0])

    def test_cap(self):
        with pytest.raises(CapacityError):
            sim.zero_state(25)
        with pytest.raises(CapacityError):
            sim.zero_state(0)


class TestApplyCircuit:
    def test_hadamard(self):
        c = sim.Circuit(1, [sim.h(0)])
        out = sim.apply_circuit(sim.zero_state(1), c)
        np.testing.assert_allclose(out.amplitudes, [2**-0.5, 2**-0.5], atol=1e-12)

    def test_empty_circuit_is_identity(self):
        s = random_state(RNG, 3)
        out = sim.apply_circuit(s, sim.Circuit(3))
        np.testing.assert_array_equal(out.amplitudes, s.amplitudes)

    def test_bell_state_matches_hand_matrix_product(self):
        # 4x4 oracle: CNOT(0->1) . (I (x) H) applied to e_0.
        h_full = kron_embed(sim.gate_matrix(sim.h(0)), (0,), 2)
        cx_full = kron_embed(sim.gate_matrix(sim.cnot(0, 1)), (0, 1), 2)
        expected = cx_full @ h_full @ np.array([1, 0, 0, 0], dtype=np.complex128)
        c = sim.Circuit(2, [sim.h(0), sim.cnot(0, 1)])
        out = sim.apply_circuit(sim.zero_state(2), c)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)
        np.testing.assert_allclose(out.amplitudes, [2**-0.5, 0, 0, 2**-0.5], atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(CircuitError):
            sim.apply_circuit(sim.zero_state(2), sim.Circuit(3, [sim.x(0)]))

    def test_every_kind_matches_kron_oracle(self, monkeypatch):
        # _SLAB = 1 cuts every update into the most slabs, 2**30 into none.
        for slab, n in itertools.product((1, 1 << 30), range(1, 7)):
            monkeypatch.setattr(sim, "_SLAB", slab)
            top = n - 1
            # gates on the outermost wires, in both roles
            edges = [sim.h(0), sim.ry(0.4, top), sim.p(-1.1, 0), sim.x(top)]
            if n >= 2:
                edges += [
                    sim.cnot(0, top),
                    sim.cnot(top, 0),
                    sim.cp(0.7, top, 0),
                    sim.cry(-0.3, 0, top),
                    sim.swap(0, top),
                    sim.multiplexed_ry([0.2, -0.9], [top], 0),
                ]
            if n >= 4:
                edges.append(sim.multiplexed_ry(RNG.uniform(-np.pi, np.pi, 8), [top, 1, 0], 2))
            for trial in range(12):
                s = random_state(RNG, n)
                gates = [random_gate(RNG, n) for _ in range(6)]
                c = sim.Circuit(n, edges + gates if trial == 0 else gates)
                expected = oracle_apply(np.array(s.amplitudes), c)
                np.testing.assert_allclose(sim.apply_circuit(s, c).amplitudes, expected, atol=1e-10)
                psi = np.array(s.amplitudes)
                assert all(sim.apply_gate(psi, g, n) is psi for g in c.gates)
                np.testing.assert_allclose(psi, expected, atol=1e-10)

    @pytest.mark.parametrize("loop_min", [1, 1 << 30])
    def test_mry_placements_match_kron_oracle(self, monkeypatch, loop_min):
        # 0-5 controls above, below and around the target, on qubits 0 and
        # n-1 too; loop_min forces one update per block (1) or one broadcast
        # pass over all blocks (2**30), each with and without slabs.
        monkeypatch.setattr(sim, "_BLOCK_LOOP_MIN", loop_min)
        n = 6
        for slab, k in itertools.product((1, 1 << 30), range(6)):
            monkeypatch.setattr(sim, "_SLAB", slab)
            placements = [(list(range(1, k + 1)), 0), (list(range(n - 1 - k, n - 1)), n - 1)]
            for _ in range(3):
                qs = [int(q) for q in RNG.permutation(n)]
                placements.append((qs[:k], qs[k]))
            for controls, target in placements:
                c = sim.Circuit(n, [sim.multiplexed_ry(RNG.uniform(-np.pi, np.pi, 1 << k), controls, target)])
                s = random_state(RNG, n)
                np.testing.assert_allclose(
                    sim.apply_circuit(s, c).amplitudes, oracle_apply(np.array(s.amplitudes), c), atol=EQUIV_ATOL
                )

    def test_slabs_are_bit_identical(self, monkeypatch):
        # Slabs split the same elementwise arithmetic into pieces, so results
        # must not move by a bit.  Gates keep their plan, so each setting
        # gets its own copy of every circuit.
        def final_states(slab, seed):
            monkeypatch.setattr(sim, "_SLAB", slab)
            rng = np.random.default_rng(seed)
            out = []
            for _ in range(100):
                n = int(rng.integers(8, 11))
                c = sim.Circuit(n, [random_gate(rng, n) for _ in range(20)])
                out.append(sim.apply_circuit(random_state(rng, n), c).amplitudes)
            return out

        for a, b in zip(final_states(1, 61), final_states(1 << 30, 61)):
            assert a.tobytes() == b.tobytes()
        # n = 16 (halves of 2**15 amplitudes): an RY on every qubit,
        # qubits 0, 1, 2 and n-1 among them, at the default slab size.
        thetas = RNG.uniform(0.0, np.pi / 2, 16)
        slabbed = sim.run(loaders.load_angle(thetas).circuit).amplitudes
        monkeypatch.setattr(sim, "_SLAB", 1 << 30)
        assert slabbed.tobytes() == sim.run(loaders.load_angle(thetas).circuit).amplitudes.tobytes()

    def test_result_owns_a_read_only_buffer(self):
        s = random_state(RNG, 4)
        before = s.amplitudes.tobytes()
        out = sim.apply_circuit(s, sim.Circuit(4, [sim.h(0), sim.cnot(0, 3)]))
        for amps in (out.amplitudes, sim.zero_state(3).amplitudes, sim.basis_state(3, 5).amplitudes):
            with pytest.raises(ValueError):
                amps[0] = 1.0
        assert not np.shares_memory(out.amplitudes, s.amplitudes)
        assert s.amplitudes.tobytes() == before

    def test_one_gate_at_several_widths(self):
        for gate in (sim.cnot(1, 0), sim.multiplexed_ry([0.3, -1.2], [0], 1), sim.swap(0, 1)):
            for n in (2, 4, 3, 2):
                s = random_state(RNG, n)
                c = sim.Circuit(n, [gate])
                np.testing.assert_allclose(
                    sim.apply_circuit(s, c).amplitudes, oracle_apply(np.array(s.amplitudes), c), atol=EQUIV_ATOL
                )

    def test_identity_gates_leave_buffer_untouched(self):
        n = 5
        psi = np.array(random_state(RNG, n).amplitudes)
        before = psi.tobytes()
        for gate in (
            sim.multiplexed_ry(np.zeros(8), [4, 0, 2], 1),
            sim.multiplexed_ry([0.0], [], 3),
            sim.cry(0.0, 1, 0),
            sim.permutation(range(8), [3, 0, 4]),
        ):
            assert sim.apply_gate(psi, gate, n) is psi
            assert psi.tobytes() == before

    def test_blocks_are_handled_by_shape(self, monkeypatch):
        # The kernel reads only the blocks: identity, diagonal, bit-flip and
        # dense blocks, in every pairing, under one control.
        ph = np.exp(1j * RNG.uniform(-np.pi, np.pi, 4))
        shapes = [
            np.eye(2),
            np.diag(ph[:2]),
            np.array([[0, 1], [1, 0]]),
            np.array([[0, ph[2]], [ph[3], 0]]),
            sim.gate_matrix(sim.ry(0.9, 0)),
        ]
        for b0 in shapes:
            for b1 in shapes:
                blocks = np.array([b0, b1], dtype=np.complex128)
                monkeypatch.setattr(sim, "gate_blocks", lambda g, blocks=blocks: blocks)
                # a fresh gate: a gate keeps the plan read on its first use
                c = sim.Circuit(3, [sim.cnot(2, 0)])
                s = random_state(RNG, 3)
                np.testing.assert_allclose(
                    sim.apply_circuit(s, c).amplitudes, oracle_apply(np.array(s.amplitudes), c), atol=EQUIV_ATOL
                )

    def test_wide_mry_needs_no_dense_matrix(self):
        # 10 controls at n = 11: blocks take 16 KiB, a dense 2^11-square
        # matrix would take 64 MiB.
        n = 11
        gate = sim.multiplexed_ry(RNG.uniform(-np.pi, np.pi, 1 << 10), range(1, n), 0)
        psi = np.array(sim.zero_state(n).amplitudes)
        tracemalloc.start()
        try:
            sim.apply_gate(psi, gate, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        np.testing.assert_allclose(np.linalg.norm(psi), 1.0, atol=1e-12)

    def test_apply_gate_rejects_bad_input(self):
        psi = sim.zero_state(2).amplitudes  # read-only
        for bad in (psi, psi.real.copy(), np.zeros(8, dtype=np.complex128), np.zeros(8, complex)[::2]):
            with pytest.raises(CircuitError):
                sim.apply_gate(bad, sim.h(0), 2)
        for gate in (sim.x(2), sim.cnot(0, 5), sim.swap(0, 2)):
            with pytest.raises(CircuitError):
                sim.apply_gate(psi.copy(), gate, 2)

    def test_norm_drift_raises(self, monkeypatch):
        true_blocks = sim.gate_blocks
        monkeypatch.setattr(sim, "gate_blocks", lambda g: 1.01 * true_blocks(g))
        with pytest.raises(CircuitError):
            sim.apply_circuit(sim.zero_state(2), sim.Circuit(2, [sim.h(0)]))

    def test_nan_angle_raises(self):
        # a NaN norm drift must fail the drift check, not slip past it
        with pytest.raises(CircuitError):
            sim.run(sim.Circuit(2, [sim.h(1), sim.ry(np.nan, 0)]))


class TestStateVector:
    def test_probabilities_are_cached_and_read_only(self):
        for n in (1, 5, 9):
            s = random_state(RNG, n)
            probs = s.probabilities
            assert probs.tobytes() == (np.abs(s.amplitudes) ** 2).tobytes()
            assert s.probabilities is probs
            with pytest.raises(ValueError):
                probs[0] = 0.5


class TestBuildUnitary:
    def test_cap_before_allocation(self):
        with pytest.raises(CapacityError):
            sim.build_unitary(sim.Circuit(13, [sim.h(0)]))


class TestGateUnitarity:
    @pytest.mark.parametrize("kind", ["x", "h", "ry", "p", "cnot", "cp", "swap", "cry", "mry", "perm"])
    def test_unitary(self, kind):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            for _ in range(8):
                g = random_gate(rng, n)
                if g.kind != kind:
                    continue
                u = kron_embed(sim.gate_matrix(g), g.qubits, n)
                np.testing.assert_allclose(u @ u.conj().T, np.eye(1 << n), atol=1e-10)

    def test_permutation_rejects_non_bijection(self):
        with pytest.raises(CircuitError):
            sim.permutation([0, 0, 1, 2], [0, 1])


class TestNormAndComposition:
    def test_norm_preserved_on_random_circuits(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            s = random_state(rng, n)
            c = sim.Circuit(n, [random_gate(rng, n) for _ in range(int(rng.integers(1, 51)))])
            assert abs(sim.apply_circuit(s, c).norm_sq - 1.0) <= 1e-9

    def test_composition(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            s = random_state(rng, n)
            c1 = sim.Circuit(n, [random_gate(rng, n) for _ in range(5)])
            c2 = sim.Circuit(n, [random_gate(rng, n) for _ in range(5)])
            joined = sim.apply_circuit(s, c1.concat(c2))
            stepped = sim.apply_circuit(sim.apply_circuit(s, c1), c2)
            np.testing.assert_allclose(joined.amplitudes, stepped.amplitudes, atol=1e-10)

    def test_inverse_undoes(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            s = random_state(rng, n)
            c = sim.Circuit(n, [random_gate(rng, n) for _ in range(8)])
            back = sim.apply_circuit(sim.apply_circuit(s, c), c.inverse())
            np.testing.assert_allclose(back.amplitudes, s.amplitudes, atol=1e-10)


class TestMarginals:
    def test_bell_single_qubit(self):
        bell = sim.state_from_amplitudes([2**-0.5, 0, 0, 2**-0.5])
        np.testing.assert_allclose(sim.marginal_probabilities(bell, [0]), [0.5, 0.5], atol=1e-12)

    def test_basis_state_full_register(self):
        np.testing.assert_allclose(
            sim.marginal_probabilities(sim.zero_state(2), [0, 1]), [1, 0, 0, 0], atol=1e-12
        )

    def test_uniform_marginal(self):
        uniform = sim.state_from_amplitudes([0.5] * 4)
        np.testing.assert_allclose(sim.marginal_probabilities(uniform, [1]), [0.5, 0.5], atol=1e-12)

    def test_sums_to_one(self):
        s = random_state(RNG, 5)
        assert abs(sim.marginal_probabilities(s, [1, 3, 4]).sum() - 1.0) < 1e-9

    def test_empty_register(self):
        with pytest.raises(CircuitError):
            sim.marginal_probabilities(sim.zero_state(2), [])

    def test_brute_force_agreement(self):
        s = random_state(RNG, 4)
        reg = (2, 0)
        expected = np.zeros(4)
        for idx, amp in enumerate(s.amplitudes):
            k = ((idx >> 2) & 1) | (((idx >> 0) & 1) << 1)
            expected[k] += abs(amp) ** 2
        np.testing.assert_allclose(sim.marginal_probabilities(s, reg), expected, atol=1e-12)

    @staticmethod
    def bincount_marginal(state: sim.StateVector, register) -> np.ndarray:
        """Reference: sum |amplitude|^2 by each index's register bits."""
        idx = np.arange(1 << state.n_qubits)
        key = np.zeros(idx.size, dtype=np.int64)
        for j, q in enumerate(register):
            key |= ((idx >> q) & 1) << j
        return np.bincount(key, weights=np.abs(state.amplitudes) ** 2, minlength=1 << len(register))

    def test_matches_bincount(self):
        rng = np.random.default_rng(31)
        for n in range(1, 13):
            s = random_state(rng, n)
            middle = [int(q) for q in rng.permutation(range(1, n - 1))]
            for size in range(1, n + 1):
                reg = [int(q) for q in rng.permutation(n)[:size]]
                # unsorted, with qubits 0 and n-1 inside
                edges = [n - 1, *middle[: size - 2], 0] if size >= 2 else [n - 1]
                for r in (reg, edges):
                    np.testing.assert_allclose(
                        sim.marginal_probabilities(s, r), self.bincount_marginal(s, r), rtol=0, atol=1e-14
                    )

    def test_rejects_bad_register(self):
        for reg in ([0, 0], [3], [-1]):
            with pytest.raises(CircuitError):
                sim.marginal_probabilities(sim.zero_state(3), reg)


class TestSampling:
    def test_deterministic_state(self):
        s = sim.basis_state(2, 1)  # |01>
        recs = sim.sample_shots(s, {"r": (0, 1)}, 20, seed=3)
        assert all(r.measured_bits["r"] == 1 for r in recs)

    def test_uniform_frequency(self):
        s = sim.state_from_amplitudes([2**-0.5, 2**-0.5])
        recs = sim.sample_shots(s, {"q": (0,)}, 100_000, seed=42)
        freq = sum(r.measured_bits["q"] for r in recs) / 100_000
        assert 0.494 <= freq <= 0.506  # 3 sigma of binomial(1e5, .5)

    def test_same_seed_identical(self):
        s = random_state(RNG, 3)
        a = sim.sample_shots(s, {"q": (0, 1, 2)}, 50, seed=7)
        b = sim.sample_shots(s, {"q": (0, 1, 2)}, 50, seed=7)
        assert [r.measured_bits for r in a] == [r.measured_bits for r in b]

    def test_frequencies_match_marginals(self):
        s = random_state(np.random.default_rng(4), 3)
        reg = (0, 2)
        recs = sim.sample_shots(s, {"r": reg}, 1_000_000, seed=11)
        counts = np.bincount([r.measured_bits["r"] for r in recs], minlength=4)
        probs = sim.marginal_probabilities(s, reg)
        sigma = np.sqrt(probs * (1 - probs) / 1_000_000)
        assert np.all(np.abs(counts / 1_000_000 - probs) <= 4 * sigma + 1e-12)

    def test_records_match_per_shot_loop(self):
        # Reference: the per-shot bit loop over the same seeded draws.
        s = random_state(RNG, 5)
        registers = ({"a": (0, 2), "b": (4, 1, 0), "none": ()}, {"one": (3, 0, 4)})
        for seed, regs in itertools.product(range(5), registers):
            rng = np.random.Generator(np.random.PCG64(seed))
            probs = np.abs(s.amplitudes) ** 2
            draws = rng.choice(probs.size, size=300, p=probs / probs.sum())
            expected = []
            for i, full in enumerate(draws):
                bits = {}
                for name, qs in regs.items():
                    out = 0
                    for j, q in enumerate(qs):
                        out |= ((int(full) >> q) & 1) << j
                    bits[name] = out
                expected.append(sim.ShotRecord(bits, i, seed))
            assert sim.sample_shots(s, regs, 300, seed) == expected
        assert sim.sample_shots(s, {}, 3, 0) == [sim.ShotRecord({}, i, 0) for i in range(3)]

    def test_counts_match_shot_records(self):
        s = random_state(RNG, 6)
        reg = (4, 0, 5)
        for seed in range(5):
            outcomes = [r.measured_bits["r"] for r in sim.sample_shots(s, {"r": reg}, 999, seed)]
            counts = sim.sample_counts(s, reg, 999, seed)
            np.testing.assert_array_equal(counts, np.bincount(outcomes, minlength=8))

    def test_counts_reject_bad_input(self):
        with pytest.raises(CircuitError):
            sim.sample_counts(sim.zero_state(2), (0,), 0, 1)
        with pytest.raises(CircuitError):
            sim.sample_counts(sim.zero_state(2), (2,), 10, 1)


class TestFidelity:
    def test_self(self):
        s = random_state(RNG, 3)
        assert sim.fidelity(s, s) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert sim.fidelity(sim.basis_state(1, 0), sim.basis_state(1, 1)) == 0.0

    def test_half(self):
        plus = sim.state_from_amplitudes([2**-0.5, 2**-0.5])
        assert sim.fidelity(sim.basis_state(1, 0), plus) == pytest.approx(0.5)

    def test_global_phase_invariant(self):
        s = random_state(RNG, 2)
        rotated = sim.StateVector(2, np.exp(0.7j) * s.amplitudes)
        assert sim.fidelity(s, rotated) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(CircuitError):
            sim.fidelity(sim.zero_state(1), sim.zero_state(2))


class TestCircuitMetrics:
    def test_depth_is_longest_chain(self):
        c = sim.Circuit(3, [sim.h(0), sim.h(1), sim.cnot(0, 1), sim.x(2)])
        assert c.depth == 2
        assert sim.Circuit(2).depth == 0

    def test_cnot_count(self):
        c = sim.Circuit(2, [sim.cnot(0, 1), sim.h(0), sim.cnot(1, 0)])
        assert c.cnot_count == 2

    def test_counts_describe_lowered_circuit(self):
        mry = sim.multiplexed_ry([0.1, 0.2, 0.3, 0.4], [1, 2], 0)
        c = sim.Circuit(3, [sim.h(1), mry, sim.cnot(0, 2)])
        low = c.lowered()
        assert c.lowered() is low
        assert [g.kind for g in low.gates] == ["h"] + ["ry", "cnot"] * 4 + ["cnot"]
        assert (c.cnot_count, c.depth) == (low.cnot_count, low.depth) == (5, 9)
        plain = sim.Circuit(2, [sim.h(0), sim.cnot(0, 1)])
        assert plain.lowered() is plain

    @staticmethod
    def lowered_depth_and_cnots(c: sim.Circuit) -> tuple[int, int]:
        """Reference: greedy layering and CNOT count of the lowered gates."""
        level = [0] * c.n_qubits
        deepest = 0
        for g in c.lowered().gates:
            d = 1 + max(level[q] for q in g.qubits)
            for q in g.qubits:
                level[q] = d
            deepest = max(deepest, d)
        return deepest, sum(1 for g in c.lowered().gates if g.kind == "cnot")

    def test_counts_match_lowered_circuit(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            gates = [random_gate(rng, n) for _ in range(int(rng.integers(0, 25)))]
            if n >= 2:  # wide multiplexers as well
                k = int(rng.integers(1, n))
                qs = [int(q) for q in rng.permutation(n)]
                wide = sim.multiplexed_ry(rng.uniform(size=1 << k), qs[:k], qs[k])
                gates.insert(int(rng.integers(0, len(gates) + 1)), wide)
            c = sim.Circuit(n, gates)
            assert (c.depth, c.cnot_count) == self.lowered_depth_and_cnots(c)

    def test_register_overlap_rejected(self):
        with pytest.raises(CircuitError):
            sim.Circuit(3, [], registers={"a": (0, 1), "b": (1, 2)})

    def test_gate_outside_width_rejected(self):
        with pytest.raises(CircuitError):
            sim.Circuit(2, [sim.x(5)])


class TestGrayWalk:
    @staticmethod
    def sign_matrix_angles(alphas: np.ndarray) -> np.ndarray:
        """Reference: the dense sign matrix of the Gray-code walk."""
        k = int(np.log2(alphas.size))
        m = np.empty((alphas.size, alphas.size))
        for i in range(alphas.size):
            gi = i ^ (i >> 1)
            for j in range(alphas.size):
                m[i, j] = (-1) ** int(bin(j & gi).count("1")) * 2.0**-k
        return m @ alphas

    def test_wht_angles_match_sign_matrix(self):
        rng = np.random.default_rng(11)
        for k in range(9):
            alphas = rng.uniform(-np.pi, np.pi, 1 << k)
            before = alphas.copy()
            np.testing.assert_allclose(
                sim._gray_angles(alphas), self.sign_matrix_angles(alphas), rtol=0, atol=1e-13
            )
            np.testing.assert_array_equal(alphas, before)

    @pytest.mark.parametrize("kind", ["ry", "p"])
    def test_walk_cost(self, kind):
        for k in range(4):
            gates = sim.gray_walk(kind, np.zeros(1 << k), range(1, k + 1), 0)
            assert sum(g.kind == "cnot" for g in gates) == (1 << k if k else 0)
            assert sum(g.kind == kind for g in gates) == 1 << k


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_norm_preserved_property(n, seed):
    rng = np.random.default_rng(seed)
    s = random_state(rng, n)
    gates = [random_gate(rng, n) for _ in range(10)] if n >= 2 else [sim.h(0), sim.ry(0.3, 0)]
    out = sim.apply_circuit(s, sim.Circuit(n, gates))
    assert abs(out.norm_sq - 1.0) <= 1e-9
