"""Core simulator tests.

The independent oracle here builds the full matrix of every gate via
explicit Kronecker products (``kron_embed``) and multiplies it out, never
going through the simulator's in-place bit-sliced application.
"""
import functools
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enqode import converters, encodings, extractors, loaders, sim
from enqode.errors import CapacityError, CircuitError
from enqode.tolerances import ATOL_DECODE, EQUIV_ATOL

RNG = np.random.default_rng(20240811)


@pytest.fixture(autouse=True)
def uncached_slabs(monkeypatch):
    """Tests here set ``sim._SLAB``.  ``sim._slabs`` caches its cuts by
    shape and size only, so each test gets the uncached function: cuts made
    under one ``_SLAB`` must not reach a test, or a later caller, that runs
    under another."""
    monkeypatch.setattr(sim, "_slabs", sim._slabs.__wrapped__)


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
    if kind == "cp":
        return sim.Gate(kind, (int(qs[0]), int(qs[1])), angle=float(rng.uniform(-np.pi, np.pi)))
    if kind == "cry":  # a multiplexer, kind mry
        return sim.cry(float(rng.uniform(-np.pi, np.pi)), int(qs[0]), int(qs[1]))
    if kind == "mry":
        k = int(rng.integers(1, min(4, n)))
        return sim.multiplexed_ry(
            rng.uniform(-np.pi, np.pi, size=1 << k), [int(q) for q in qs[:k]], int(qs[k])
        )
    k = int(rng.integers(1, min(4, n + 1)))
    table = rng.permutation(1 << k)
    return sim.permutation([int(t) for t in table], [int(q) for q in qs[:k]])


def ry_matrix(theta: float) -> np.ndarray:
    """RY(theta) in closed form."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def controlled(block: np.ndarray) -> np.ndarray:
    """The 4x4 matrix that applies ``block`` to local bit 1 when local bit 0
    reads 1."""
    u = np.eye(4, dtype=np.complex128)
    u[1::2, 1::2] = block
    return u


def closed_form(g: sim.Gate) -> np.ndarray:
    """``g``'s local matrix (bit i = ``g.qubits[i]``) written from its
    textbook definition, without ``gate_blocks``."""
    flip = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    if g.kind == "x":
        return flip
    if g.kind == "h":
        return np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    if g.kind == "ry":
        return ry_matrix(g.angle)
    if g.kind == "p":
        return np.diag([1, np.exp(1j * g.angle)])
    if g.kind == "cnot":
        return controlled(flip)
    if g.kind == "cp":
        return controlled(np.diag([1, np.exp(1j * g.angle)]))
    dim = 1 << len(g.qubits)
    u = np.zeros((dim, dim), dtype=np.complex128)
    if g.kind == "mry":
        for j, theta in enumerate(g.angles):
            u[j :: dim // 2, j :: dim // 2] = ry_matrix(theta)
        return u
    u[list(g.table or (0, 2, 1, 3)), range(dim)] = 1  # perm, swap
    return u


def non_unitary_blocks(gate_blocks):
    """``gate_blocks`` whose dense forms (H) are scaled by 1.01: an action
    that does not keep the norm."""

    def scaled(g):
        form, values = gate_blocks(g)
        return (form, tuple(1.01 * u for u in values)) if form == "dense" else (form, values)

    return scaled


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

    def test_basis_index_is_an_integer(self):
        # numpy read amps[True] as a mask: an unnormalized all-ones state
        for n, index in ((2, True), (2, 1.0), (True, 0)):
            with pytest.raises(CircuitError):
                sim.basis_state(n, index)
        assert sim.basis_state(2, np.int64(3)).amplitudes[3] == 1.0


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

    def test_run_is_apply_circuit_on_zero_state(self):
        # run makes |0...0> itself; its result must be the copy path's, byte
        # for byte: a complex amplitude load (n = 9, phase pass) and an
        # angle load wide enough that its gates run fused (n = 16)
        rng = np.random.default_rng(21)
        a = rng.normal(size=512) + 1j * rng.normal(size=512)
        amplitude = loaders.load_amplitude(a / np.linalg.norm(a)).circuit
        angle = loaders.load_angle(rng.uniform(0.0, np.pi / 2, 16)).circuit
        assert sim._Multiply in steps_of(amplitude)
        assert sim._Power in steps_of(angle)
        for c in (amplitude, angle):
            want = sim.apply_circuit(sim.zero_state(c.n_qubits), c).amplitudes
            assert sim.run(c).amplitudes.tobytes() == want.tobytes()

    def test_run_checks_width_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                sim.run(sim.Circuit(25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

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
                edges.append(sim.Gate(sim.CP, (top, 1, 0), angle=np.pi))
            for trial in range(12):
                s = random_state(RNG, n)
                gates = [random_gate(RNG, n) for _ in range(6)]
                c = sim.Circuit(n, edges + gates if trial == 0 else gates)
                expected = oracle_apply(np.array(s.amplitudes), c)
                np.testing.assert_allclose(sim.apply_circuit(s, c).amplitudes, expected, atol=1e-10)
                psi = np.array(s.amplitudes)
                assert all(sim.apply_gate(psi, g, n) is psi for g in c.gates)
                np.testing.assert_allclose(psi, expected, atol=1e-10)

    def test_every_kind_matches_its_closed_form(self):
        # Angles 0, -0.0, pi and -pi, and states with exact zero
        # amplitudes, on every kind.  Gates that only move amplitudes, or
        # whose angle is zero, give the closed form's result exactly.
        rng = np.random.default_rng(97)
        special = [0.0, -0.0, np.pi, -np.pi]
        kinds = set()
        for trial in range(400):
            n = int(rng.integers(1, 7))
            g = random_gate(rng, n)
            if g.angle is not None and trial % 2:
                g = sim.Gate(g.kind, g.qubits, angle=special[trial // 2 % 4])
            if g.angles is not None and trial % 2:
                g = sim.Gate(g.kind, g.qubits, angles=tuple(rng.choice(special, len(g.angles)).tolist()))
            kinds.add(g.kind)
            u = closed_form(g)
            np.testing.assert_allclose(sim.gate_matrix(g), u, rtol=0, atol=1e-15)
            psi = np.array(random_state(rng, n).amplitudes)
            psi[rng.random(psi.size) < 0.3] = 0
            expected = kron_embed(u, g.qubits, n) @ psi
            sim.apply_gate(psi, g, n)
            if g.kind != "h" and not any(g.angles or (g.angle or 0.0,)):  # a move, or a rotation by 0
                np.testing.assert_array_equal(psi, expected)
            else:
                np.testing.assert_allclose(psi, expected, rtol=0, atol=EQUIV_ATOL)
        assert kinds == {"x", "h", "ry", "p", "cnot", "cp", "swap", "mry", "perm"}

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
        # must not move by a bit.  A circuit keeps its execution plan, so
        # each setting gets its own copy of every circuit.
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
        # qubits 0, 1, 2 and n-1 among them, at the default slab size.  The
        # plan fuses these gates at this width, so they run through the
        # kernel itself, gate by gate.
        circuit = loaders.load_angle(RNG.uniform(0.0, np.pi / 2, 16)).circuit
        slabbed = gate_loop(circuit)
        monkeypatch.setattr(sim, "_SLAB", 1 << 30)
        assert slabbed.tobytes() == gate_loop(circuit).tobytes()

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
        psi[::3] = 0  # signed zeros too: an identity pass would move them
        psi.real[1::4] = -0.0
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
        # The kernel reads only the compact form of gate_blocks, injected
        # here on a one-control gate.  Beside the identity on control 0, the
        # flip, phase and dense forms act on control 1: a phase of 1 (the
        # identity), a diagonal, an anti-diagonal and a full dense block.
        # The RY form holds a block per pattern: the identity (s = 0), a
        # rotation by pi and two others, in every pairing, through the
        # block loop and through the broadcast pass.
        ph = np.exp(1j * RNG.uniform(-np.pi, np.pi, 4))
        q, _ = np.linalg.qr(RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)))
        anti = np.array([[0, ph[3]], [ph[2], 0]])
        forms = [
            (("flip", None), np.array([[0, 1], [1, 0]])),
            (("phase", ph[0]), np.diag([1, ph[0]])),
            (("phase", 1.0 + 0j), np.eye(2)),
            (("dense", tuple(np.diag(ph[1:3]).ravel().tolist())), np.diag(ph[1:3])),
            (("dense", tuple(anti.ravel().tolist())), anti),
            (("dense", tuple(q.ravel().tolist())), q),
        ]
        cases = [(form, (np.eye(2), block)) for form, block in forms]
        for a, b in itertools.product([0.0, np.pi, 0.9, -2.1], repeat=2):
            half = np.array([a, b]) / 2
            cases.append((("ry", (np.cos(half), np.sin(half))), (ry_matrix(a), ry_matrix(b))))
        for loop_min, (form, blocks) in itertools.product((1, 1 << 30), cases):
            monkeypatch.setattr(sim, "_BLOCK_LOOP_MIN", loop_min)
            monkeypatch.setattr(sim, "gate_blocks", lambda g, form=form: form)
            u = np.zeros((4, 4), dtype=np.complex128)
            u[0::2, 0::2], u[1::2, 1::2] = blocks
            c = sim.Circuit(3, [sim.cnot(2, 0)])
            np.testing.assert_allclose(sim.gate_matrix(c.gates[0]), u, rtol=0, atol=1e-15)
            s = random_state(RNG, 3)
            np.testing.assert_allclose(
                sim.apply_circuit(s, c).amplitudes, kron_embed(u, (2, 0), 3) @ s.amplitudes, atol=EQUIV_ATOL
            )

    def test_forced_settings_change_the_path(self, monkeypatch):
        # _SLAB and _BLOCK_LOOP_MIN are read on every call: forcing either
        # on a gate that has already run changes the 2x2 updates it takes
        # (the sizes of their halves, in order; none for a broadcast pass).
        halves = []
        update = sim._update_halves
        monkeypatch.setattr(sim, "_update_halves", lambda *a: halves.append(a[0].size) or update(*a))

        def sizes(gate, n):
            halves.clear()
            sim.apply_gate(np.array(random_state(RNG, n).amplitudes), gate, n)
            return halves[:]

        wide = sim.ry(0.3, 8)  # n = 16: halves of 2**15
        assert sizes(wide, 16) == [1 << 14] * 2
        monkeypatch.setattr(sim, "_SLAB", 1 << 30)
        assert sizes(wide, 16) == [1 << 15]
        mry = sim.multiplexed_ry([0.1, 0.2, 0.3, 0.4], [0, 3], 5)  # n = 6: halves of 8
        assert sizes(mry, 6) == []
        assert sizes(sim.multiplexed_ry([0.0, 0.2, 0.0, -0.0], [0, 3], 5), 6) == [8]  # one pattern acts
        monkeypatch.setattr(sim, "_BLOCK_LOOP_MIN", 1)
        assert sizes(mry, 6) == [8] * 4
        monkeypatch.setattr(sim, "_SLAB", 1)
        assert sizes(mry, 6) == [1] * 32

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

    def test_permutations_keep_no_memory(self, monkeypatch):
        # At n = 16 a reversal of two neighbouring qubits moves every
        # amplitude (1 MiB).  Once its row indices and slabs are made,
        # applying it keeps nothing and its temporaries stay slab-sized.
        # The slabs are cached, as outside this file, in a cache of this
        # test's own.
        monkeypatch.setattr(sim, "_slabs", functools.lru_cache(sim._slabs))
        n = 16
        gates = [sim.permutation([3, 2, 1, 0], (q, q + 1)) for q in range(n - 1)]
        state = random_state(RNG, n)
        psi = np.array(state.amplitudes)
        for g in gates:
            sim.apply_gate(psi, g, n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for g in gates[::-1]:  # each gate is an involution
                sim.apply_gate(psi, g, n)
            kept, peak = np.subtract(tracemalloc.get_traced_memory(), before)
        finally:
            tracemalloc.stop()
        assert kept == 0
        assert peak < 1 << 20
        assert psi.tobytes() == state.amplitudes.tobytes()

    def test_apply_gate_rejects_bad_input(self):
        psi = sim.zero_state(2).amplitudes  # read-only
        for bad in (psi, psi.real.copy(), np.zeros(8, dtype=np.complex128), np.zeros(8, complex)[::2]):
            with pytest.raises(CircuitError):
                sim.apply_gate(bad, sim.h(0), 2)
        for gate in (sim.x(2), sim.cnot(0, 5), sim.swap(0, 2)):
            with pytest.raises(CircuitError):
                sim.apply_gate(psi.copy(), gate, 2)

    def test_norm_drift_raises(self, monkeypatch):
        monkeypatch.setattr(sim, "gate_blocks", non_unitary_blocks(sim.gate_blocks))
        with pytest.raises(CircuitError):
            sim.apply_circuit(sim.zero_state(2), sim.Circuit(2, [sim.h(0)]))

    def test_nan_angle_raises(self):
        # a NaN norm drift must fail the drift check, not slip past it
        with pytest.raises(CircuitError):
            sim.run(sim.Circuit(2, [sim.h(1), sim.ry(np.nan, 0)]))


def gate_loop(circuit: sim.Circuit, state: sim.StateVector | None = None) -> np.ndarray:
    """``circuit`` run one gate at a time through ``apply_gate``: the path
    that the execution plan's powers, fused runs and block steps replace."""
    psi = np.array((state or sim.zero_state(circuit.n_qubits)).amplitudes)
    for g in circuit.gates:
        sim.apply_gate(psi, g, circuit.n_qubits)
    return psi


def powers(circuit: sim.Circuit) -> int:
    return sum(type(step) is sim._Power for step in circuit._steps)


def benchmark_qae_input(seed: int, index: int):
    """Amplitudes and sampling seed of instance ``index`` of a qae
    benchmark run seeded with ``seed`` (n = 3), drawn as the benchmark
    draws them."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index + (1 << 20)])))
    a = np.abs(rng.normal(size=8))
    return a / np.linalg.norm(a), int(rng.integers(1 << 31))


class TestExecutionPlan:
    """Declared repeats execute as one matrix power; every result must
    match the gate-by-gate loop within ``EQUIV_ATOL``."""

    def test_qae_circuits_match_gate_loop(self):
        rng = np.random.default_rng(41)
        for n, m in itertools.product((2, 3), range(1, 7)):
            a = np.abs(rng.normal(size=1 << n))
            f = loaders.load_amplitude(a / np.linalg.norm(a)).circuit
            c = extractors.qae_circuit(f, m)
            assert powers(c) == m  # Q^(2^j) for j >= 0
            np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)

    @pytest.mark.parametrize("r", [2, 3, 5, 7])
    def test_repeated_grover_operator(self, r):
        f = loaders.load_amplitude(np.sqrt([0.1, 0.2, 0.3, 0.05, 0.05, 0.1, 0.15, 0.05])).circuit
        q = extractors.grover_operator(f, flag=2)
        c = sim.Circuit(3, [sim.h(0), sim.Repeat(tuple(q.gates), r), sim.h(1)])
        assert len(c._steps) == 3 and powers(c) == 1
        s = random_state(RNG, 3)
        np.testing.assert_allclose(sim.apply_circuit(s, c).amplitudes, gate_loop(c, s), rtol=0, atol=EQUIV_ATOL)

    @pytest.mark.parametrize("slab", [1, 4, 1 << 30])
    def test_random_repeated_segments(self, monkeypatch, slab):
        # _SLAB = 1 cuts every gap axis into single elements, 4 cuts some
        # axes part-way, 2**30 leaves the view whole.
        monkeypatch.setattr(sim, "_SLAB", slab)
        rng = np.random.default_rng(83)
        kinds = set()
        for trial in range(40):
            n = int(rng.integers(2, 8))
            segment = [random_gate(rng, n) for _ in range(int(rng.integers(1, 6)))]
            kinds.update(g.kind for g in segment)
            r = int(rng.integers(2, 6))
            c = sim.Circuit(n, [random_gate(rng, n), sim.Repeat(tuple(segment), r), random_gate(rng, n)])
            wide = len({q for g in segment for q in g.qubits}) > sim._POWER_QUBITS
            assert powers(c) == (0 if wide else 1)
            s = random_state(rng, n)
            np.testing.assert_allclose(sim.apply_circuit(s, c).amplitudes, gate_loop(c, s), rtol=0, atol=EQUIV_ATOL)
        assert kinds == {"x", "h", "ry", "p", "cnot", "cp", "swap", "mry", "perm"}

    def test_period_whose_first_gate_recurs_is_gate_by_gate(self):
        # Declared, a period holding its first gate twice is one power; the
        # same gates as a flat list are not searched and run gate by gate.
        a, b, c = sim.ry(0.3, 0), sim.cnot(0, 1), sim.h(1)
        s = random_state(RNG, 2)
        declared = sim.Circuit(2, [sim.Repeat((a, b, a, c), 2)])
        assert powers(declared) == 1 and len(declared._steps) == 1
        np.testing.assert_allclose(sim.apply_circuit(s, declared).amplitudes, gate_loop(declared, s),
                                   rtol=0, atol=EQUIV_ATOL)
        circuit = sim.Circuit(2, [a, b, a, c] * 2)
        assert circuit.gates == declared.gates
        assert powers(circuit) == 0 and len(circuit._steps) == 8
        assert sim.apply_circuit(s, circuit).amplitudes.tobytes() == gate_loop(circuit, s).tobytes()

    def test_period_wider_than_cap_is_gate_by_gate(self):
        n = sim._POWER_QUBITS + 2
        period = [sim.h(q) for q in range(n)] + [sim.cry(0.3, 0, n - 1)]
        c = sim.Circuit(n, [sim.Repeat(tuple(period), 3)])
        assert powers(c) == 0 and len(c._steps) == len(c.gates)
        s = random_state(RNG, n)
        assert sim.apply_circuit(s, c).amplitudes.tobytes() == gate_loop(c, s).tobytes()

    def test_plan_is_computed_once_per_circuit(self, monkeypatch):
        calls = []
        plan = sim._execution_plan
        monkeypatch.setattr(sim, "_execution_plan", lambda *a: calls.append(1) or plan(*a))
        g = sim.ry(0.4, 1)
        c = sim.Circuit(2, [sim.h(0), g, g, g])
        first = sim.run(c).amplitudes
        assert sim.run(c).amplitudes.tobytes() == first.tobytes()
        sim.build_unitary(c)
        assert len(calls) == 1
        sim.run(sim.Circuit(2, c.gates))  # a new circuit plans anew
        assert len(calls) == 2

    def test_wide_power_runs_in_slabs(self):
        # n = 18: the state takes 4 MiB and apply_circuit copies it once.
        # Slab temporaries stay under 1 MiB; a power on whole-state
        # temporaries would add 8 MiB.  The H layer is fused into one
        # dense step of its own, ahead of the repeat's power.
        n = 18
        period = [sim.ry(0.3, 0), sim.cnot(0, 9), sim.h(17), sim.cp(0.2, 9, 17)]
        c = sim.Circuit(n, [sim.h(q) for q in (0, 9, 17)] + [sim.Repeat(tuple(period), 5)])
        layer, power = c._steps  # the plan itself is small; measure the run
        assert type(layer) is sim._Power and layer.matrix.shape == (8, 8)
        assert type(power) is sim._Power
        np.testing.assert_allclose(power.matrix, np.linalg.matrix_power(sim._period_matrix(period, (0, 9, 17)), 5),
                                   rtol=0, atol=EQUIV_ATOL)
        state = sim.zero_state(n)
        tracemalloc.start()
        try:
            out = sim.apply_circuit(state, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (16 << n) + (2 << 20)
        np.testing.assert_allclose(out.amplitudes, gate_loop(c, state), rtol=0, atol=EQUIV_ATOL)

    def test_inverse_keeps_runs_repeated(self):
        for g in (sim.ry(0.3, 0), sim.cp(0.1, 0, 1), sim.multiplexed_ry([0.1, 0.2], [0], 1),
                  sim.permutation([1, 2, 3, 0], [0, 1]), sim.h(0)):
            assert g.inverse().inverse() == g
        # amplitude -> equally-weighted: the uncompute half repeats the
        # inverses of the estimate half's controlled Grover powers
        a = np.sqrt([0.1, 0.2, 0.3, 0.4])
        c = converters.convert_amplitude_to_ew(loaders.load_amplitude(a).circuit, 4)
        assert powers(c) == 8
        np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)

    def test_period_matrix_matches_kron_oracle(self):
        # _period_matrix runs its gates through apply_gate, as gate_loop
        # does, so it is checked against products of kron_embed matrices
        rng = np.random.default_rng(29)
        cases, kinds = [], set()
        for trial in range(60):
            k = int(rng.integers(1, sim._POWER_QUBITS + 1))
            spread = sorted(int(q) for q in rng.choice(20, size=k, replace=False))
            period = []
            for _ in range(int(rng.integers(1, 6))):
                g = random_gate(rng, k)
                period.append(sim.Gate(g.kind, tuple(spread[q] for q in g.qubits), g.angle, g.angles, g.table))
            kinds.update(g.kind for g in period)
            cases.append(period)
        assert kinds == {"x", "h", "ry", "p", "cnot", "cp", "swap", "mry", "perm"}
        a = np.abs(rng.normal(size=8))
        f = loaders.load_amplitude(a / np.linalg.norm(a)).circuit
        w, m = f.n_qubits, 3
        flips = extractors._x_layer(range(w))
        grover = extractors._controlled_grover_gates(f, f.inverse().gates, w - 1, w + 1, flips)
        start = len(f.gates) + m + len(grover)  # after the H layer and Q on qubit w
        assert extractors.qae_circuit(f, m).gates[start : start + len(grover)] == tuple(grover)
        cases.append(grover)
        for period in cases:
            qubits = sorted({q for g in period for q in g.qubits})
            k = len(qubits)
            expected = np.eye(1 << k, dtype=np.complex128)
            for g in period:
                local = tuple(qubits.index(q) for q in g.qubits)
                expected = kron_embed(sim.gate_matrix(g), local, k) @ expected
            np.testing.assert_allclose(sim._period_matrix(period, qubits), expected, rtol=0, atol=EQUIV_ATOL)

    def test_equal_periods_share_one_matrix(self, monkeypatch):
        # QAE's controlled Grover operators differ only in their control
        # wire, so the plan builds one period matrix for all m powers
        calls = []
        build = sim._period_matrix
        monkeypatch.setattr(sim, "_period_matrix", lambda *a: calls.append(1) or build(*a))
        a = np.sqrt([0.1, 0.2, 0.3, 0.05, 0.05, 0.1, 0.15, 0.05])
        c = extractors.qae_circuit(loaders.load_amplitude(a).circuit, 7)
        assert powers(c) == 7 and len(calls) == 1
        np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)
        # amplitude -> equally-weighted: Q's powers, then their inverses
        c = converters.convert_amplitude_to_ew(loaders.load_amplitude(np.sqrt([0.1, 0.2, 0.3, 0.4])).circuit, 4)
        assert powers(c) == 8 and len(calls) == 3

    def test_periods_share_a_matrix_only_when_equal_on_their_qubits(self, monkeypatch):
        calls = []
        build = sim._period_matrix
        monkeypatch.setattr(sim, "_period_matrix", lambda *a: calls.append(1) or build(*a))
        base = (sim.h(0), sim.ry(0.3, 1), sim.multiplexed_ry([0.1, 0.2], [0], 1),
                sim.permutation([1, 2, 3, 0], [0, 1]), sim.cnot(0, 1))
        variants = [
            base,
            (base[0], sim.ry(0.4, 1), *base[2:]),  # one angle
            (*base[:2], sim.multiplexed_ry([0.1, 0.25], [0], 1), *base[3:]),  # one mry angle
            (*base[:3], sim.permutation([3, 0, 1, 2], [0, 1]), base[4]),  # a table
            (sim.h(0), sim.Gate("p", (1,), angle=0.3), *base[2:]),  # a kind, same angle
            (*base[:4], sim.cnot(1, 0)),  # control and target swapped
        ]
        n = 4
        relabelled = [tuple(sim.Gate(g.kind, tuple(qs[q] for q in g.qubits), g.angle, g.angles, g.table) for g in base)
                      for qs in ((1, 3), (0, 2))]
        items = [sim.Repeat(v, 1) for v in variants] + [sim.Repeat(relabelled[0], 3), sim.Repeat(relabelled[1], 2)]
        c = sim.Circuit(n, items)
        assert powers(c) == len(items) and len(calls) == len(variants)
        matrices = [step.matrix for step in c._steps[: len(variants)]]
        for a, b in itertools.combinations(matrices, 2):
            assert not np.allclose(a, b)
        s = random_state(RNG, n)
        np.testing.assert_allclose(sim.apply_circuit(s, c).amplitudes, gate_loop(c, s), rtol=0, atol=EQUIV_ATOL)

    def test_qae_powers_are_byte_equal_to_matrix_power(self):
        a = np.sqrt([0.1, 0.2, 0.3, 0.05, 0.05, 0.1, 0.15, 0.05])
        f = loaders.load_amplitude(a).circuit
        for m in range(1, 10):
            c = extractors.qae_circuit(f, m)
            repeats = [item for item in c.items if type(item) is sim.Repeat]
            steps = [step for step in c._steps if type(step) is sim._Power]
            assert [r.count for r in repeats] == [1 << j for j in range(m)] and len(steps) == m
            for r, step in zip(repeats, steps):
                expected = np.linalg.matrix_power(sim._period_matrix(r.period, r.qubits), r.count)
                assert step.matrix.dtype == np.complex128 and step.matrix.tobytes() == expected.tobytes()

    def test_slabs_bound_and_cover_every_update(self, monkeypatch):
        # One cutting rule for both kinds of step.  At n = 18, for every
        # placement of 1-3 qubits and for a power on spread qubits, each
        # piece touches at most _SLAB amplitudes (per half for a 2x2 update,
        # per gathered slab for a power) and the pieces cover the view once.
        n = 18
        pieces = []
        monkeypatch.setattr(sim, "_update_halves", lambda a0, a1, *u: pieces.append((a0, a1)))
        psi = np.zeros(1 << n, dtype=np.complex128)
        hits = np.zeros(1 << n, dtype=np.int8)

        def hits_under(a: np.ndarray) -> np.ndarray:
            """The entries of ``hits`` at the amplitudes the view ``a`` of
            ``psi`` holds (a 16x smaller array to count on than ``psi``)."""
            start = (a.ctypes.data - psi.ctypes.data) // psi.itemsize
            return np.lib.stride_tricks.as_strided(hits[start:], a.shape, [s // psi.itemsize for s in a.strides])

        placements = [qs for k in (1, 2, 3) for qs in itertools.combinations(range(n), k)]
        for i, qs in enumerate(placements):
            qs = qs[i % len(qs) :] + qs[: i % len(qs)]  # vary the target
            gate = sim.multiplexed_ry(np.linspace(0.1, 1.0, 1 << (len(qs) - 1)), qs[:-1], qs[-1])
            pieces.clear()
            sim.apply_gate(psi, gate, n)
            hits[:] = 0
            for a0, a1 in pieces:
                assert a0.size <= sim._SLAB
                hits_under(a0)[...] += 1
                hits_under(a1)[...] += 1
            assert (hits == 1).all()
            if len(qs) == 1:  # the same slabs as a cut along one gap axis
                assert len(pieces) == (1 << n - 1) // sim._SLAB
        period = [sim.h(2), sim.cnot(2, 7), sim.cry(0.3, 7, 11), sim.multiplexed_ry([0.1, 0.2], [11], 16)]
        c = sim.Circuit(n, [sim.x(0), sim.Repeat(tuple(period), 3)])
        (step,) = [step for step in c._steps if type(step) is not sim.Gate]
        hits = np.zeros(step.shape, dtype=np.int8)
        for slab in step.slabs:
            assert hits[slab].size <= sim._SLAB
            hits[slab] += 1
        assert (hits == 1).all()

    def test_seeded_qae_estimates_match_gate_loop(self):
        # the test seeds, then instances -2..4 of benchmark seeds 0, 77, 78
        rng = np.random.default_rng(7)
        cases = []
        for seed in range(5):
            a = np.abs(rng.normal(size=8))
            cases.append((a / np.linalg.norm(a), seed, int(rng.integers(3, 8))))
        for seed, index in itertools.product((0, 77, 78), range(-2, 5)):
            a, sample_seed = benchmark_qae_input(seed, index)
            cases.append((a, sample_seed, 7))
        for a, sample_seed, m in cases:
            f = loaders.load_amplitude(a).circuit
            result = extractors.qae_estimate(f, m, 1024, sample_seed, flag=2)
            c = extractors.qae_circuit(f, m, flag=2)
            assert steps_of(c)[-1] is sim._Fourier  # the inverse QFT runs as one FFT
            phase = c.registers["qae_phase"]
            looped = sim.StateVector(c.n_qubits, gate_loop(c))
            mode = extractors.mode_readout(looped, phase, 1024, sample_seed).mode
            assert result.estimate == extractors.outcome_to_mu(mode, m)
            np.testing.assert_array_equal(
                sim.sample_counts(sim.run(c), phase, 1024, sample_seed),
                sim.sample_counts(looped, phase, 1024, sample_seed),
            )


def spread_gate(rng, n: int, k: int) -> sim.Gate:
    """A ``random_gate`` on k qubits, moved onto k random qubits of n."""
    qubits = [int(q) for q in rng.choice(n, size=k, replace=False)]
    g = random_gate(rng, k)
    return sim.Gate(g.kind, tuple(qubits[q] for q in g.qubits), g.angle, g.angles, g.table)


class TestFusion:
    """On states of more than ``_FUSE_MIN`` amplitudes the plan fuses runs
    of gates on at most ``_FUSE_QUBITS`` qubits into one dense step; every
    result must match the gate-by-gate loop within ``EQUIV_ATOL``."""

    def test_random_circuits_match_gate_loop(self):
        rng = np.random.default_rng(97)
        kinds = set()
        for n in (15, 16, 17):
            # gates drawn on 5 of the n qubits often fit a run of 4; the
            # 6-qubit multiplexer fits no run, and the QFT block ends one
            gates = [spread_gate(rng, n, 5) for _ in range(24)] + [random_gate(rng, n) for _ in range(6)]
            wide = sim.multiplexed_ry(rng.uniform(-np.pi, np.pi, 32), range(5), n - 1)
            items = [*gates[:10], wide, *gates[10:20], sim.Qft((0, 3, n - 1)), *gates[20:]]
            c = sim.Circuit(n, items)
            kinds.update(g.kind for g in gates)
            fused = [step for step in c._steps if type(step) is sim._Power]
            assert fused and all(step.matrix.shape[0] <= 1 << sim._FUSE_QUBITS for step in fused)
            assert wide in c._steps and sim._Fourier in steps_of(c)
            s = random_state(rng, n)
            np.testing.assert_allclose(sim.apply_circuit(s, c).amplitudes, gate_loop(c, s), rtol=0, atol=EQUIV_ATOL)
        assert kinds == {"x", "h", "ry", "p", "cnot", "cp", "swap", "mry", "perm"}

    def test_runs_are_greedy(self):
        a, b, c, d, e = (sim.ry(0.1 * i, q) for i, q in enumerate((0, 1, 2, 3, 4), 1))
        n = 16
        circuit = sim.Circuit(n, [a, b, sim.cnot(0, 2), c, d, e, sim.Diagonal([0.0, 1.0], (5,)), sim.h(9), a, b])
        first, lone, diagonal, last = circuit._steps
        assert lone == e and type(diagonal) is sim._Multiply
        local = sim._period_matrix([a, b, sim.cnot(0, 2), c, d], (0, 1, 2, 3))
        np.testing.assert_allclose(first.matrix, local, rtol=0, atol=EQUIV_ATOL)
        np.testing.assert_allclose(last.matrix, sim._period_matrix([sim.h(9), a, b], (0, 1, 9)), rtol=0, atol=EQUIV_ATOL)
        s = random_state(RNG, n)
        np.testing.assert_allclose(sim.apply_circuit(s, circuit).amplitudes, gate_loop(circuit, s),
                                   rtol=0, atol=EQUIV_ATOL)

    def test_wide_loads_decode(self):
        rng = np.random.default_rng(98)
        for n in (15, 16, 17, 18):
            thetas = rng.uniform(0.0, np.pi / 2, n)
            c = loaders.load_angle(thetas).circuit
            # runs of _FUSE_QUBITS gates, and a last run of what is left
            assert len(c._steps) == -(-n // sim._FUSE_QUBITS)
            assert powers(c) == len(c._steps) - (n % sim._FUSE_QUBITS == 1)
            got = encodings.decode(encodings.Angle(n), sim.run(c))
            np.testing.assert_allclose(got.values, thetas, rtol=0, atol=ATOL_DECODE)
            x = int(rng.integers(1 << n))
            c = loaders.load_fourier(x, n).circuit
            assert powers(c) == len(c._steps) < len(c.gates)
            assert encodings.decode(encodings.Fourier(n), sim.run(c)) == x

    def test_fused_run_stays_in_slabs(self):
        # As test_wide_power_runs_in_slabs: the copy of the 4 MiB state
        # plus slab-sized temporaries.
        n = 18
        c = loaders.load_angle(RNG.uniform(0.0, np.pi / 2, n)).circuit
        c._steps  # the plan itself is small; measure the run
        state = sim.zero_state(n)
        tracemalloc.start()
        try:
            out = sim.apply_circuit(state, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (16 << n) + (2 << 20)
        np.testing.assert_allclose(out.amplitudes, gate_loop(c, state), rtol=0, atol=EQUIV_ATOL)

    def test_real_runs_multiply_as_real(self):
        # RY, H, CNOT and mry have real matrices, so their run's product is
        # kept as float64 above qubit 0; a P gate makes its run's product
        # complex, and so does qubit 0.
        rng = np.random.default_rng(101)
        for n in (15, 16, 17):
            real = [sim.ry(0.3, 1), sim.h(5), sim.cnot(1, n - 1), sim.multiplexed_ry([0.2, -0.4], [5], 7)]
            phased = [sim.h(2), sim.p(0.7, 2), sim.cnot(2, 9), sim.cnot(9, 11)]
            low = [sim.cnot(0, 4), sim.ry(0.2, 0)]
            c = sim.Circuit(n, real + phased + low)
            first, second, third = c._steps
            assert first.matrix.dtype == np.float64 and first.shape[-1] == 2 * sim._view_shape((1, 5, 7, n - 1), n)[-1]
            assert second.matrix.dtype == third.matrix.dtype == np.complex128
            s = random_state(rng, n)
            np.testing.assert_allclose(sim.apply_circuit(s, c).amplitudes, gate_loop(c, s), rtol=0, atol=EQUIV_ATOL)

    def test_narrow_plans_are_not_fused(self, monkeypatch):
        # At most _FUSE_MIN amplitudes the plan is the unfused one, made
        # without a pass over its steps: QAE (n = 10) and amplitude loads
        # up to n = 14.  At n = 15 a load fuses.
        monkeypatch.setattr(sim, "_fused", lambda *a: pytest.fail("a narrow plan was fused"))
        rng = np.random.default_rng(99)
        a = np.abs(rng.normal(size=8))
        c = extractors.qae_circuit(loaders.load_amplitude(a / np.linalg.norm(a)).circuit, 7)
        assert c.n_qubits == 10 and powers(c) == 7
        for n in (1, 5, 9, 14):
            a = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            c = loaders.load_amplitude(a / np.linalg.norm(a)).circuit
            assert powers(c) == 0 and steps_of(c).count(sim.Gate) == len(c.items) - 1
        monkeypatch.undo()
        c = loaders.load_angle(np.full(15, 0.3)).circuit
        assert powers(c) == len(c._steps) == 4


class TestRepeat:
    def test_gates_are_the_flat_expansion(self):
        a, b, c = sim.ry(0.3, 0), sim.cnot(0, 1), sim.h(1)
        circuit = sim.Circuit(2, [c, sim.Repeat((a, b), 3), sim.Repeat((c,), 1)], {"data": (0, 1)})
        flat = sim.Circuit(2, [c, a, b, a, b, a, b, c], {"data": (0, 1)})
        assert circuit.gates == flat.gates and circuit == flat
        assert circuit.items == (c, sim.Repeat((a, b), 3), sim.Repeat((c,), 1))
        assert (circuit.depth, circuit.cnot_count) == (flat.depth, flat.cnot_count)
        assert circuit.lowered() == flat.lowered()
        # a count of 1 is a power too
        assert powers(circuit) == 2 and len(circuit._steps) == 3

    @pytest.mark.parametrize("count", [0, -2, 2.0, 1.5, "2", None, True])
    def test_count_must_be_a_positive_integer(self, count):
        with pytest.raises(CircuitError):
            sim.Repeat((sim.h(0),), count)

    def test_gates_must_be_gates_inside_the_width(self):
        for gates in ((), [sim.h(0)]):
            with pytest.raises(CircuitError):
                sim.Repeat(gates, 2)
        with pytest.raises(CircuitError):
            sim.Repeat((sim.Repeat((sim.h(0),), 2),), 2)
        with pytest.raises(CircuitError, match="cnot touches qubit outside 0..1"):
            sim.Circuit(2, [sim.h(0), sim.Repeat((sim.h(1), sim.cnot(1, 2)), 2)])

    def test_shifted_concat_and_inverse_keep_powers(self):
        a = np.sqrt([0.1, 0.2, 0.3, 0.05, 0.05, 0.1, 0.15, 0.05])
        c = extractors.qae_circuit(loaders.load_amplitude(a).circuit, 4)
        flat = sim.Circuit(c.n_qubits, c.gates, c.registers)
        assert powers(c) == 4 and powers(flat) == 0
        shifted = c.shifted(1, c.n_qubits + 1)
        assert powers(shifted) == 4 and shifted.gates == flat.shifted(1, c.n_qubits + 1).gates
        both = c.concat(c)
        assert powers(both) == 8 and both.gates == c.gates + c.gates
        inverse = c.inverse()
        assert powers(inverse) == 4 and inverse.gates == flat.inverse().gates
        undone = sim.apply_circuit(sim.run(c), inverse).amplitudes
        np.testing.assert_allclose(undone, sim.zero_state(c.n_qubits).amplitudes, rtol=0, atol=EQUIV_ATOL)


def dft_matrix(k: int) -> np.ndarray:
    """The QFT's closed form ``2**(-k/2) * exp(2*pi*i*x*y/2**k)``."""
    x = np.arange(1 << k)
    return np.exp(2j * np.pi * np.outer(x, x) / (1 << k)) / np.sqrt(1 << k)


def block_registers(rng, k: int) -> dict[str, tuple[tuple[int, ...], int]]:
    """``(qubits, width)`` of a k-qubit block on contiguous, reversed and
    scattered registers, none wider than 10 qubits."""
    width = min(k + 2, 10)
    return {
        "contiguous": (tuple(range(width - k, width)), width),
        "reversed": (tuple(range(k - 1, -1, -1)), k),
        "scattered": (tuple(int(q) for q in rng.permutation(width)[:k]), width),
    }


def steps_of(circuit: sim.Circuit) -> list[type]:
    return [type(step) for step in circuit._steps]


class TestDeclaredBlocks:
    """``Diagonal`` and ``Qft`` run as one step each; their flat expansion
    is what ``gates``, ``==``, the counts and ``build_unitary`` read."""

    def blocks(self, rng, qubits):
        k = len(qubits)
        diagonal = sim.Diagonal(rng.uniform(-np.pi, np.pi, 1 << k), qubits)
        phases = diagonal.phases - diagonal.phases.mean()
        local = {diagonal: np.diag(np.exp(1j * phases)), sim.Qft(qubits): dft_matrix(k)}
        local[diagonal.inverse()] = local[diagonal].conj().T
        local[sim.Qft(qubits, inverted=True)] = dft_matrix(k).conj().T
        return local

    def test_step_matches_flat_expansion_and_closed_form(self):
        # Up to 7 qubits the whole matrix of the step is checked against
        # build_unitary of the flat expansion, and that against the
        # Kronecker oracle of the closed form.  From 8 to 10 qubits, where a
        # matrix costs 0.1-0.3 s, each check runs on a random state instead.
        rng = np.random.default_rng(61)
        for k in range(1, 11):
            for qubits, width in block_registers(rng, k).values():
                for block, local in self.blocks(rng, qubits).items():
                    c = sim.Circuit(width, [block])
                    assert len(c._steps) == 1 and type(c._steps[0]) is not sim.Gate
                    flat = sim.Circuit(width, block.gates)
                    if width <= 7:
                        u = sim.build_unitary(flat)
                        np.testing.assert_allclose(column_loop(c), u, rtol=0, atol=EQUIV_ATOL)
                        np.testing.assert_allclose(u, kron_embed(local, qubits, width), rtol=0, atol=EQUIV_ATOL)
                    else:
                        s = random_state(rng, width)
                        out = sim.apply_circuit(s, c).amplitudes
                        np.testing.assert_allclose(out, gate_loop(flat, s), rtol=0, atol=EQUIV_ATOL)
                        expected = local_apply(s.amplitudes, local, qubits)
                        np.testing.assert_allclose(out, expected, rtol=0, atol=EQUIV_ATOL)

    def test_wide_qft_runs_in_slabs(self, monkeypatch):
        monkeypatch.setattr(sim, "_SLAB", 4)
        rng = np.random.default_rng(62)
        for qubits in ((3, 0, 5), (6, 1), (2,)):
            for inverted in (False, True):
                c = sim.Circuit(7, [sim.Qft(qubits, inverted)])
                assert len(c._steps[0].slabs) > 1
                s = random_state(rng, 7)
                np.testing.assert_allclose(sim.apply_circuit(s, c).amplitudes, gate_loop(c, s), rtol=0, atol=EQUIV_ATOL)

    def test_inverse_shifted_and_concat_keep_blocks(self):
        rng = np.random.default_rng(63)
        d = sim.Diagonal(rng.uniform(-np.pi, np.pi, 8), (2, 0, 1))
        q = sim.Qft((1, 3))
        c = sim.Circuit(4, [sim.h(3), d, q, sim.Repeat((sim.x(2), sim.cp(0.3, 2, 3)), 3)])
        flat = sim.Circuit(4, c.gates)
        assert c == flat and c.items != flat.items
        assert (c.depth, c.cnot_count, c.lowered()) == (flat.depth, flat.cnot_count, flat.lowered())
        assert steps_of(c) == [sim.Gate, sim._Multiply, sim._Fourier, sim._Power]
        inverse = c.inverse()
        assert inverse == flat.inverse() and steps_of(inverse) == [sim._Power, sim._Fourier, sim._Multiply, sim.Gate]
        assert inverse.items[1:3] == (q.inverse(), d.inverse()) and inverse.inverse().items == c.items
        shifted = c.shifted(2, 6)
        assert shifted == flat.shifted(2, 6) and steps_of(shifted) == steps_of(c)
        assert shifted.items[1:3] == (sim.Diagonal(d.phases, (4, 2, 3)), sim.Qft((3, 5)))
        both = c.concat(inverse)
        assert both == flat.concat(flat.inverse()) and len(both._steps) == 8
        s = random_state(rng, 4)
        np.testing.assert_allclose(sim.apply_circuit(s, both).amplitudes, s.amplitudes, rtol=0, atol=EQUIV_ATOL)
        # == reads the flat expansion: a block equals its gates listed flat
        assert sim.Circuit(4, [d]) == sim.Circuit(4, d.gates)
        assert sim.Circuit(4, [d]) != sim.Circuit(4, [d.inverse()])

    def test_blocks_check_their_shape(self):
        for make in (
            lambda: sim.Diagonal([0.1, 0.2, 0.3], (0, 1)),
            lambda: sim.Diagonal([0.1, 0.2, 0.3, 0.4], (1, 1)),
            lambda: sim.Diagonal([0.1], ()),
            lambda: sim.Qft(()),
            lambda: sim.Qft((2, 0, 2)),
        ):
            with pytest.raises(CircuitError):
                make()
        with pytest.raises(CircuitError, match="touches qubit outside 0..2"):
            sim.Circuit(3, [sim.Qft((1, 3))])
        with pytest.raises(CircuitError, match="outside 0..1"):
            sim.Circuit(2, [sim.Diagonal([0.0, 0.1, 0.2, 0.3], (0, 2))])

    @pytest.mark.parametrize("item", [None, (sim.h(0),), "h", [sim.h(0)], sim.gate_matrix(sim.h(0))])
    def test_items_are_gates_or_declared_blocks(self, item):
        # None, a tuple and a string raised AttributeError on ``qubits``
        with pytest.raises(CircuitError, match="neither a gate nor a declared block"):
            sim.Circuit(2, [sim.h(0), item])

    def test_complex_loads_run_the_phase_pass_as_one_multiply(self):
        rng = np.random.default_rng(64)
        for n in range(1, 10):
            a = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            a /= np.linalg.norm(a)
            outs = [loaders.load_amplitude(a)]
            if n <= 3:  # divide and conquer is n + 2**n qubits wide
                outs += [loaders.load_divide_conquer(a)] + [loaders.load_bidirectional(a, s) for s in range(1, n + 1)]
            for out in outs:
                c = out.circuit
                assert steps_of(c).count(sim._Multiply) == 1 and len(c.gates) == len(c._steps) - 1 + 5 * n
                np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)
        assert sim._Multiply not in steps_of(loaders.load_amplitude(np.abs(a) / np.linalg.norm(a)).circuit)

    def test_qae_and_conversion_run_the_qft_as_one_fft(self):
        a = np.sqrt([0.1, 0.2, 0.3, 0.05, 0.05, 0.1, 0.15, 0.05])
        c = extractors.qae_circuit(loaders.load_amplitude(a).circuit, 5)
        assert steps_of(c).count(sim._Fourier) == 1 and c.items[-1] == sim.Qft(tuple(range(3, 8)), inverted=True)
        rng = np.random.default_rng(65)
        for a in (np.sqrt([0.1, 0.2, 0.3, 0.4]), rng.normal(size=4) + 1j * rng.normal(size=4)):
            u_a = loaders.load_amplitude(a / np.linalg.norm(a)).circuit
            c = converters.convert_amplitude_to_ew(u_a, 3)
            fouriers = [step for step in c._steps if type(step) is sim._Fourier]
            assert [f.inverted for f in fouriers] == [True, False]  # estimate, then its uncompute
            assert steps_of(c).count(sim._Multiply) == (0 if np.isrealobj(a) else 2)
            np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)


def local_apply(psi: np.ndarray, local: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """``local`` (bit i = ``qubits[i]``) applied to the state ``psi`` by one
    matrix product over its qubit axes, moved to the front: an oracle that
    shares nothing with the plan steps or ``apply_gate``."""
    n = psi.size.bit_length() - 1
    axes = [n - 1 - q for q in reversed(qubits)]  # axis a of (2,)*n is qubit n-1-a
    order = axes + [a for a in range(n) if a not in axes]
    moved = psi.reshape((2,) * n).transpose(order).reshape(local.shape[0], -1)
    return (local @ moved).reshape((2,) * n).transpose(np.argsort(order)).reshape(-1)


class TestStateVector:
    def test_bad_sizes_raise_typed_errors(self):
        with pytest.raises(CircuitError):
            sim.state_from_amplitudes([])
        with pytest.raises(CircuitError):
            sim.state_from_amplitudes([1.0, 0.0, 0.0])
        # one amplitude is a 0-qubit state, which no circuit can act on
        with pytest.raises(CapacityError):
            sim.state_from_amplitudes([1.0])
        for n in (0, -1, sim.MAX_QUBITS + 1):
            with pytest.raises(CapacityError):
                sim.StateVector(n, [1.0])
        with pytest.raises(CircuitError):
            sim.StateVector(1.0, [1.0, 0.0])

    def test_probabilities_are_cached_and_read_only(self):
        for n in (1, 5, 9):
            s = random_state(RNG, n)
            probs = s.probabilities
            assert probs.tobytes() == (np.abs(s.amplitudes) ** 2).tobytes()
            assert s.probabilities is probs
            with pytest.raises(ValueError):
                probs[0] = 0.5


def column_loop(circuit: sim.Circuit) -> np.ndarray:
    """``circuit``'s matrix one column at a time, each basis state run
    through ``apply_circuit``: the reference for ``build_unitary``."""
    n = circuit.n_qubits
    return np.stack([sim.apply_circuit(sim.basis_state(n, b), circuit).amplitudes for b in range(1 << n)], axis=1)


class TestBuildUnitary:
    def test_cap_before_allocation(self):
        with pytest.raises(CapacityError):
            sim.build_unitary(sim.Circuit(13, [sim.h(0)]))

    def test_matches_column_loop(self):
        # Without declared blocks both apply the same gates by the same
        # arithmetic, so they agree bit for bit.
        circuits = [sim.Circuit(m, converters.qft_circuit(m).gates) for m in range(1, 9)]
        rng = np.random.default_rng(31)
        for n in range(1, 7):
            circuits += [sim.Circuit(n, [random_gate(rng, n) for _ in range(20)]) for _ in range(4)]
        for c in circuits:
            assert powers(c) == 0
            assert sim.build_unitary(c).tobytes() == column_loop(c).tobytes()
        # The column loop runs a declared repeat as a power.
        period = [sim.ry(0.3, 0), sim.cnot(0, 1), sim.swap(1, 2), sim.cp(0.2, 2, 0),
                  sim.permutation([1, 2, 3, 0], [2, 0])]
        c = sim.Circuit(3, [sim.h(1), sim.Repeat(tuple(period), 5)])
        assert powers(c) == 1
        np.testing.assert_allclose(sim.build_unitary(c), column_loop(c), rtol=0, atol=EQUIV_ATOL)
        # The column loop runs a QFT as one FFT.
        for m in range(1, 9):
            c = converters.qft_circuit(m)
            assert [type(step) for step in c._steps] == [sim._Fourier]
            np.testing.assert_allclose(sim.build_unitary(c), column_loop(c), rtol=0, atol=EQUIV_ATOL)

    def test_matrix_is_the_only_large_allocation(self):
        c = converters.qft_circuit(10)
        tracemalloc.start()
        try:
            sim.build_unitary(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (16 << 20) + (2 << 20)

    def test_bad_columns_raise(self, monkeypatch):
        with pytest.raises(CircuitError):
            sim.build_unitary(sim.Circuit(2, [sim.h(1), sim.ry(np.nan, 0)]))
        monkeypatch.setattr(sim, "gate_blocks", non_unitary_blocks(sim.gate_blocks))
        with pytest.raises(CircuitError):
            sim.build_unitary(sim.Circuit(2, [sim.h(0)]))


class TestGateUnitarity:
    @pytest.mark.parametrize("kind", ["x", "h", "ry", "p", "cnot", "cp", "swap", "mry", "perm"])
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

    @pytest.mark.parametrize(
        "make",
        [
            lambda: sim.Gate("bogus", (0,)),  # used to build, and fail only when run
            lambda: sim.Gate("ry", (0,)),  # used to surface as a NaN norm
            lambda: sim.Gate("p", (0,)),
            lambda: sim.Gate("cp", (0, 1)),
            lambda: sim.Gate("swap", (0,)),  # used to act as an X
            lambda: sim.Gate("h", (0, 1)),  # used to act as a controlled H
            lambda: sim.Gate("x", ()),
            lambda: sim.Gate("cnot", (0,)),
            lambda: sim.Gate("cnot", (0, 1, 2)),
            lambda: sim.Gate("swap", (0, 1, 2)),
            lambda: sim.Gate("cp", (0,), angle=0.5),
            lambda: sim.Gate("mry", (), angles=()),
            lambda: sim.Gate("perm", (), table=(0,)),
            # an empty reflection used to raise a bare IndexError
            lambda: extractors.grover_operator(sim.Circuit(1, [sim.h(0)]), reflection_qubits=[]),
        ],
    )
    def test_gates_that_cannot_run_are_refused(self, make):
        with pytest.raises(CircuitError):
            make()

    def test_cp_takes_one_or_more_controls(self):
        g = sim.Gate("cp", (3, 0, 1), angle=0.4)
        u = np.eye(8, dtype=np.complex128)
        u[7, 7] = np.exp(0.4j)  # every qubit reads 1
        np.testing.assert_allclose(sim.gate_matrix(g), u, rtol=0, atol=1e-15)
        s = random_state(RNG, 4)
        np.testing.assert_allclose(
            sim.apply_circuit(s, sim.Circuit(4, [g])).amplitudes,
            kron_embed(u, g.qubits, 4) @ s.amplitudes,
            atol=EQUIV_ATOL,
        )
        assert sim.Circuit(4, [g]).cnot_count == 0


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

    def test_qubit_marginals_match_bincount(self):
        # n = 1 leaves the low half of the split empty.
        rng = np.random.default_rng(32)
        for n in range(1, 13):
            s = random_state(rng, n)
            got = sim.qubit_marginals(s)
            assert got.shape == (n, 2)
            for q in range(n):
                np.testing.assert_allclose(got[q], self.bincount_marginal(s, [q]), rtol=0, atol=1e-14)
            np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-14)


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
        counts = sim.sample_counts(s, reg, 1_000_000, seed=11)
        probs = sim.marginal_probabilities(s, reg)
        sigma = np.sqrt(probs * (1 - probs) / 1_000_000)
        assert np.all(np.abs(counts / 1_000_000 - probs) <= 4 * sigma + 1e-12)

    def test_records_match_per_shot_loop(self):
        # Reference: the per-shot bit loop over the same seeded draws, for
        # records and counts.  The registers hold every run shape that
        # _outcomes extracts: contiguous ascending, gapped ascending,
        # descending, mixed and empty.  Qubit 5 of the state is
        # 0.6|0> + 0.8i|1>.
        s = sim.state_from_amplitudes(np.kron([0.6, 0.8j], random_state(RNG, 5).amplitudes))
        registers = (
            {"a": (0, 2), "b": (4, 1, 0), "none": ()},
            {"one": (3, 0, 4)},
            {"low": (0, 1, 2, 3, 4), "mid": (2, 3, 4)},
            {"gapped": (1, 2, 4, 5), "down": (5, 4, 3), "empty": ()},
        )
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
            for name, qs in regs.items():
                want = np.bincount([r.measured_bits[name] for r in expected], minlength=1 << len(qs))
                np.testing.assert_array_equal(sim.sample_counts(s, qs, 300, seed), want)
        assert sim.sample_shots(s, {}, 3, 0) == [sim.ShotRecord({}, i, 0) for i in range(3)]

    def test_each_record_owns_its_bits(self):
        s = random_state(np.random.default_rng(8), 4)
        recs = sim.sample_shots(s, {"a": (0, 1), "b": (3,)}, 50, seed=2)
        before = [dict(r.measured_bits) for r in recs]
        recs[7].measured_bits["a"] = -1
        after = [dict(r.measured_bits) for r in recs]
        assert after[:7] + after[8:] == before[:7] + before[8:]
        assert after[7] == {"a": -1, "b": before[7]["b"]}

    def test_counts_match_shot_records(self):
        s = random_state(RNG, 6)
        reg = (4, 0, 5)
        for seed in range(5):
            outcomes = [r.measured_bits["r"] for r in sim.sample_shots(s, {"r": reg}, 999, seed)]
            counts = sim.sample_counts(s, reg, 999, seed)
            np.testing.assert_array_equal(counts, np.bincount(outcomes, minlength=8))

    def test_draws_match_numpy_choice(self):
        # Oracle: numpy's own sampler, which the seeded draws must equal byte
        # for byte on every numpy the project supports.
        rng = np.random.default_rng(33)
        for n in range(1, 13):
            # unnormalized, with exact zeros at both ends (one end at n = 1)
            amps = random_state(rng, n).amplitudes * (1.0 + n)
            amps[0 if n == 1 else [0, -1]] = 0.0
            s = sim.state_from_amplitudes(amps)
            probs = np.abs(s.amplitudes) ** 2
            for shots, seed in itertools.product((1, 7, 5000), (0, 5, 78)):
                want = np.random.Generator(np.random.PCG64(seed)).choice(
                    probs.size, size=shots, p=probs / probs.sum()
                )
                got = sim._draws(s, shots, seed)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_unsampleable_states_raise(self):
        for amps in ([np.nan, 0], [0, 0], [np.inf, 0]):
            s = sim.state_from_amplitudes(amps)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(CircuitError):
                    sim.sample_counts(s, (0,), 10, 1)
                with pytest.raises(CircuitError):
                    sim.sample_shots(s, {"r": (0,)}, 10, 1)

    def test_counts_reject_bad_input(self):
        for shots in (0, 2.5, True):
            with pytest.raises(CircuitError):
                sim.sample_counts(sim.zero_state(2), (0,), shots, 1)
            with pytest.raises(CircuitError):
                sim.sample_shots(sim.zero_state(2), {"r": (0,)}, shots, 1)
        with pytest.raises(CircuitError):
            sim.sample_counts(sim.zero_state(2), (2,), 10, 1)

    def test_bool_is_not_a_shot_count(self):
        # passed here, and numpy raised a TypeError later
        with pytest.raises(CircuitError):
            sim.check_shots(True, 1)
        sim.check_shots(np.int64(1), 1)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, True, "3"])
    def test_seed_is_a_non_negative_integer(self, seed):
        # -1 raised numpy's ValueError, 1.5 a TypeError, and None drew
        # fresh entropy: a run that could not be repeated
        state = random_state(RNG, 2)
        for draw in (
            lambda: sim.seeded_generator(seed),
            lambda: sim.sample_counts(state, (0,), 3, seed),
            lambda: sim.sample_shots(state, {"r": (0,)}, 3, seed),
            lambda: extractors.naive_amplitude_estimate(sim.Circuit(1, [sim.h(0)]), 3, 0.95, seed),
            lambda: extractors.swap_test(sim.Circuit(1, [sim.h(0)]), sim.Circuit(1), 3, seed),
            lambda: extractors.swap_test(sim.Circuit(1, [sim.h(0)]), sim.Circuit(1), 0, seed),
            lambda: converters.convert_ew_to_amplitude(loaders.qram_oracle([1, 2], 2), 2, seed),
            lambda: converters.ew_conversion_success_frequency(loaders.qram_oracle([1, 2], 2), 2, 5, seed),
        ):
            with pytest.raises(CircuitError):
                draw()

    def test_numpy_integer_seeds_draw_as_ints(self):
        state = random_state(RNG, 3)
        want = sim.sample_counts(state, (0, 2), 50, 7)
        np.testing.assert_array_equal(sim.sample_counts(state, (0, 2), 50, np.int64(7)), want)

    def test_both_samplers_reject_bad_registers(self):
        for reg in ((5,), (-1,), (0, 0), (2,)):
            with pytest.raises(CircuitError):
                sim.sample_counts(sim.zero_state(2), reg, 3, 1)
            with pytest.raises(CircuitError):
                sim.sample_shots(sim.zero_state(2), {"r": reg}, 3, 1)
            with pytest.raises(CircuitError):
                sim.sample_shots(sim.zero_state(2), {"ok": (0,), "r": reg}, 3, 1)


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

    def test_cry_counts_as_its_lowering(self):
        # A controlled RY is the multiplexer with angles (0, theta): two
        # CNOTs once lowered, as its Gray-code walk.
        g = sim.cry(0.7, 2, 0)
        assert (g.kind, g.qubits, g.angles) == ("mry", (2, 0), (0.0, 0.7))
        np.testing.assert_allclose(sim.gate_matrix(g), controlled(ry_matrix(0.7)), rtol=0, atol=1e-15)
        assert sim.Circuit(3, [g]).cnot_count == 2
        c = sim.Circuit(3, [sim.h(1), g, sim.cnot(1, 2), sim.cry(-0.2, 0, 1)])
        low = c.lowered()
        assert all(g.kind != "mry" for g in low.gates)
        assert (c.cnot_count, c.depth) == (low.cnot_count, low.depth) == (5, 9)

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

    def test_gate_outside_width_names_its_kind(self):
        for bad in (sim.cry(0.1, 0, 3), sim.permutation([1, 0], [-1])):
            with pytest.raises(CircuitError, match=f"gate {bad.kind} touches"):
                sim.Circuit(3, [sim.h(0), sim.x(2), bad, sim.h(1)])


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
