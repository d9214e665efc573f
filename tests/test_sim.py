"""Core simulator tests.

The independent oracle here builds the full matrix of every gate via
explicit Kronecker products (``kron_embed``) and multiplies it out, never
going through the simulator's in-place bit-sliced application.
"""
import functools
import gc
import itertools
import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enqode import converters, encodings, extractors, loaders, sim, trees
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
        psi = kron_embed(closed_form(g), g.qubits, circuit.n_qubits) @ psi
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
    dim = 1 << len(g.qubits)
    if g.kind == "cp":  # any number of controls: a phase on the all-ones pattern
        return np.diag(np.append(np.ones(dim - 1), np.exp(1j * g.angle)))
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

    def test_basis_index_is_inside_the_state(self):
        for index in (4, -1):
            with pytest.raises(CapacityError):
                sim.basis_state(2, index)


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
        h_full = kron_embed(closed_form(sim.h(0)), (0,), 2)
        cx_full = kron_embed(closed_form(sim.cnot(0, 1)), (0, 1), 2)
        expected = cx_full @ h_full @ np.array([1, 0, 0, 0], dtype=np.complex128)
        c = sim.Circuit(2, [sim.h(0), sim.cnot(0, 1)])
        out = sim.apply_circuit(sim.zero_state(2), c)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)
        np.testing.assert_allclose(out.amplitudes, [2**-0.5, 0, 0, 2**-0.5], atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(CircuitError):
            sim.apply_circuit(sim.zero_state(2), sim.Circuit(3, [sim.x(0)]))

    def test_run_is_apply_circuit_on_zero_state(self):
        # run grows |0...0> from width 0.  Each stage of an amplitude load
        # is a growth that inserts the qubit below the touched ones, and its
        # phase pass then runs at full width: the result is the copy path's,
        # byte for byte (n = 9).  An angle load is all growths: byte-equal
        # to the gate-by-gate loop, as is apply_circuit, which runs its
        # gates through apply_gate one by one (n = 16).
        rng = np.random.default_rng(21)
        a = rng.normal(size=512) + 1j * rng.normal(size=512)
        amplitude = loaders.load_amplitude(a / np.linalg.norm(a)).circuit
        angle = loaders.load_angle(rng.uniform(0.0, np.pi / 2, 16)).circuit
        assert sim._Multiply in steps_of(amplitude)
        assert steps_of(angle) == [sim.Gate] * 16
        assert {type(step) for step in angle._grown_steps} == {sim._Grow}
        want = sim.apply_circuit(sim.zero_state(9), amplitude).amplitudes
        assert sim.run(amplitude).amplitudes.tobytes() == want.tobytes()
        looped = gate_loop(angle).tobytes()
        assert sim.run(angle).amplitudes.tobytes() == looped
        assert sim.apply_circuit(sim.zero_state(16), angle).amplitudes.tobytes() == looped

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
            psi = np.array(random_state(rng, n).amplitudes)
            psi[rng.random(psi.size) < 0.3] = 0
            expected = kron_embed(u, g.qubits, n) @ psi
            sim.apply_gate(psi, g, n)
            if g.kind != "h" and not any(g.angles or (g.angle or 0.0,)):  # a move, or a rotation by 0
                np.testing.assert_array_equal(psi, expected)
            else:
                np.testing.assert_allclose(psi, expected, rtol=0, atol=EQUIV_ATOL)
        assert kinds == {"x", "h", "ry", "p", "cnot", "cp", "swap", "mry", "perm"}

    def test_closed_form_reads_no_kernel_form(self, monkeypatch):
        # The oracle's matrices come from the textbook definitions alone:
        # with the kernel's compact form unusable, every kind still has
        # one, and it is the matrix build_unitary gives once that form is
        # back.
        gates = [
            sim.x(0),
            sim.h(0),
            sim.ry(0.3, 0),
            sim.p(-1.2, 0),
            sim.cnot(1, 0),
            sim.cp(0.7, 0, 1),
            sim.Gate(sim.CP, (2, 0, 1), angle=0.4),
            sim.swap(0, 1),
            sim.multiplexed_ry([0.1, -0.5, 0.9, 2.0], [2, 0], 1),
            sim.permutation([2, 0, 3, 1], [1, 0]),
        ]
        assert {g.kind for g in gates} == {"x", "h", "ry", "p", "cnot", "cp", "swap", "mry", "perm"}
        with monkeypatch.context() as patched:
            patched.setattr(sim, "gate_blocks", lambda g: pytest.fail("closed_form read gate_blocks"))
            forms = [closed_form(g) for g in gates]
        for g, u in zip(gates, forms):
            k = len(g.qubits)
            np.testing.assert_allclose(sim.build_unitary(sim.Circuit(k, [g.on(range(k))])), u, rtol=0, atol=EQUIV_ATOL)

    def test_index_maps_have_no_compact_form(self):
        for g in (sim.swap(0, 1), sim.permutation([1, 0], [0])):
            with pytest.raises(CircuitError, match="has no control blocks"):
                sim.gate_blocks(g)

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
        # qubits 0, 1, 2 and n-1 among them, at the default slab size, run
        # through the kernel itself, gate by gate.
        circuit = loaders.load_angle(RNG.uniform(0.0, np.pi / 2, 16)).circuit
        slabbed = gate_loop(circuit)
        monkeypatch.setattr(sim, "_SLAB", 1 << 30)
        assert slabbed.tobytes() == gate_loop(circuit).tobytes()

    def test_wide_gate_circuits_are_the_gate_loop(self):
        # A circuit of gates alone is planned as its gates, each run through
        # apply_gate, so at any width apply_circuit is the gate-by-gate loop
        # byte for byte.
        rng = np.random.default_rng(97)
        kinds = set()
        for n in (15, 16, 17, 18):
            for _ in range(3):
                gates = [spread_gate(rng, n, 5) for _ in range(24)] + [random_gate(rng, n) for _ in range(6)]
                c = sim.Circuit(n, gates)
                kinds.update(g.kind for g in gates)
                assert c._steps == tuple(gates)
                s = random_state(rng, n)
                assert sim.apply_circuit(s, c).amplitudes.tobytes() == gate_loop(c, s).tobytes()
        assert kinds == {"x", "h", "ry", "p", "cnot", "cp", "swap", "mry", "perm"}

    def test_wide_loads_decode(self):
        # Angle and Fourier loads at n = 15-18, grown by run and gate by
        # gate by apply_circuit.
        rng = np.random.default_rng(98)
        for n in (15, 16, 17, 18):
            thetas = rng.uniform(0.0, np.pi / 2, n)
            c = loaders.load_angle(thetas).circuit
            assert steps_of(c) == [sim.Gate] * n
            for state in (sim.run(c), sim.apply_circuit(sim.zero_state(n), c)):
                got = encodings.decode(encodings.Angle(n), state)
                np.testing.assert_allclose(got.values, thetas, rtol=0, atol=ATOL_DECODE)
            x = int(rng.integers(1 << n))
            c = loaders.load_fourier(x, n).circuit
            assert steps_of(c) == [sim.Gate] * (2 * n)
            for state in (sim.run(c), sim.apply_circuit(sim.zero_state(n), c)):
                assert encodings.decode(encodings.Fourier(n), state) == x

    def test_wide_gates_stay_in_slabs(self):
        # As test_wide_power_runs_in_slabs: the copy of the 4 MiB state
        # plus slab-sized temporaries, for an angle load's n gates.
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
        assert out.amplitudes.tobytes() == gate_loop(c, state).tobytes()

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
    that the execution plan's powers and block steps replace."""
    psi = np.array((state or sim.zero_state(circuit.n_qubits)).amplitudes)
    for g in circuit.gates:
        sim.apply_gate(psi, g, circuit.n_qubits)
    return psi


def powers(circuit: sim.Circuit) -> int:
    """The number of uncontrolled ``_Power`` steps, one per plain repeat,
    of ``circuit``'s plan."""
    return sum(type(step) is sim._Power and not step.controlled for step in circuit._steps)


def ladder_steps(steps: tuple) -> list[list]:
    """Each run of consecutive controlled ``_Power`` steps of the plan
    ``steps``: a ladder's rungs, in the order they run."""
    runs = itertools.groupby(steps, lambda step: type(step) is sim._Power and step.controlled)
    return [list(rungs) for controlled, rungs in runs if controlled]


def ladder_rungs(circuit: sim.Circuit) -> list[int]:
    """The number of rungs of each ladder of ``circuit``'s plan."""
    return [len(rungs) for rungs in ladder_steps(circuit._steps)]


def controlled_grover(f_gates, flag: int, reflected, control: int) -> tuple[sim.Gate, ...]:
    """Controlled Q's flat period, written out gate by gate: the flag's
    phase, F-inverse, the reflection about |0..0> of ``reflected`` (an X
    layer either side of one multi-controlled phase of pi) and F, then the
    controlled global sign."""
    flips = [sim.x(q) for q in reflected]
    reflection = sim.Gate("cp", (control, *reflected), angle=np.pi)
    return (sim.cp(np.pi, control, flag), *sim._inverted(f_gates), *flips, reflection, *flips, *f_gates,
            sim.p(np.pi, control))


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
            assert ladder_rungs(c) == [m]  # Q^(2^j) for j >= 0, one rung each
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
        # temporaries would add 8 MiB.  The H layer runs gate by gate
        # through the kernel, ahead of the repeat's power.
        n = 18
        period = [sim.ry(0.3, 0), sim.cnot(0, 9), sim.h(17), sim.cp(0.2, 9, 17)]
        layer = [sim.h(q) for q in (0, 9, 17)]
        c = sim.Circuit(n, layer + [sim.Repeat(tuple(period), 5)])
        *gates, power = c._steps  # the plan itself is small; measure the run
        assert gates == layer and type(power) is sim._Power
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

    def test_real_phased_and_qubit_0_powers_match_gate_loop(self):
        # RY, H, CNOT and mry have real matrices, a P gate a complex one;
        # each repeat is one power, on qubit 0 or above it
        rng = np.random.default_rng(101)
        for n in (5, 9, 12):
            real = (sim.ry(0.3, 1), sim.h(2), sim.cnot(1, n - 1), sim.multiplexed_ry([0.2, -0.4], [2], 3))
            phased = (sim.h(2), sim.p(0.7, 2), sim.cnot(2, 4))
            low = (sim.cnot(0, 4), sim.ry(0.2, 0))
            c = sim.Circuit(n, [sim.Repeat(real, 3), sim.Repeat(phased, 2), sim.Repeat(low, 5)])
            assert [type(step) for step in c._steps] == [sim._Power] * 3
            s = random_state(rng, n)
            np.testing.assert_allclose(sim.apply_circuit(s, c).amplitudes, gate_loop(c, s), rtol=0, atol=EQUIV_ATOL)

    def test_inverse_keeps_runs_repeated(self):
        for g in (sim.ry(0.3, 0), sim.cp(0.1, 0, 1), sim.multiplexed_ry([0.1, 0.2], [0], 1),
                  sim.permutation([1, 2, 3, 0], [0, 1]), sim.h(0)):
            assert g.inverse().inverse() == g
        # amplitude -> equally-weighted: the uncompute half repeats the
        # inverses of the estimate half's controlled Grover powers
        a = np.sqrt([0.1, 0.2, 0.3, 0.4])
        c = converters.convert_amplitude_to_ew(loaders.load_amplitude(a).circuit, 4)
        assert ladder_rungs(c) == [4, 4]
        np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)

    def test_period_matrix_matches_kron_oracle(self):
        # _period_matrix runs a period's gates through apply_gate, as
        # gate_loop does, so it is checked against products of kron_embed
        # matrices
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
        grover = controlled_grover(f.gates, w - 1, range(w), w + 1)
        start = len(f.gates) + m + len(grover)  # after the H layer and Q on qubit w
        assert extractors.qae_circuit(f, m).gates[start : start + len(grover)] == grover
        cases.append(grover)
        # Reflection blocks, planned from F's columns, against the closed
        # form of their flat gates, the sign -I included: F|0> alone
        # (r = 1), with a complex F, on qubits above 0, and there between
        # gates; F's gates when the reflection keeps 2 columns (r > 1); Q's
        # period, which qae ladders; and adjoints.
        b = rng.normal(size=8) + 1j * rng.normal(size=8)
        complex_f = loaders.load_amplitude(b / np.linalg.norm(b)).circuit
        assert {type(i) for i in complex_f.items} == {sim.Pyramid, sim.Diagonal}
        reflect = sim.Reflection(complex_f.items, range(3))
        cases += [[reflect], [reflect.inverse()], [reflect.shifted(4)], [sim.h(5), reflect.shifted(4), sim.ry(0.3, 6)],
                  [sim.Reflection(f.items, (1, 2))], [sim.Reflection(f.items, (2, 0)).inverse(), sim.h(1)],
                  extractors._grover_gates(f.items, w - 1, range(w))]
        # F_P from the pyramid's kept state, times a diagonal's factors, is
        # byte for byte the run of F it replaces, on contiguous, shifted
        # and spread qubits; a P or CP scales rows as _unitary's gate does.
        spread = sim.Pyramid(rng.uniform(-np.pi, np.pi, 7), (0, 2, 5))
        for items in (f.items, complex_f.items, f.shifted(4, 7).items, complex_f.shifted(1, 4).items, (spread,)):
            reflection = sim.Reflection(items, items[0].qubits)
            qubits = reflection.qubits
            state = sim.run(sim.Circuit(qubits[-1] + 1, items)).amplitudes
            local = np.arange(1 << len(qubits))
            f_p = state[sum(((local >> i) & 1) << q for i, q in enumerate(qubits))][:, None]
            u = np.eye(1 << len(qubits), dtype=np.complex128)
            u = f_p @ (2.0 * (f_p.conj().T @ u)) - u
            assert np.array_equal(sim._period_matrix([reflection], qubits), u)
            cases.append([reflection])
        for gates in ([sim.p(0.4, 3)], [sim.cp(-1.1, 5, 1)], [sim.Gate("cp", (3, 5, 1), angle=0.7)],
                      [sim.h(1), sim.p(np.pi, 5), sim.ry(0.3, 3), sim.cp(2.2, 1, 3), sim.p(0.0, 1)]):
            assert np.array_equal(sim._period_matrix(gates, (1, 3, 5)), sim._unitary(gates, (1, 3, 5)))
            cases.append(gates)
        for period in cases:
            flat = [g for i in period for g in i.gates]
            qubits = sorted({q for g in flat for q in g.qubits})
            k = len(qubits)
            expected = np.eye(1 << k, dtype=np.complex128)
            for g in flat:
                local = tuple(qubits.index(q) for q in g.qubits)
                expected = kron_embed(closed_form(g), local, k) @ expected
            np.testing.assert_allclose(sim._period_matrix(period, qubits), expected, rtol=0, atol=EQUIV_ATOL)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_block_matrix_of_every_kind_matches_kron_oracle(self, k):
        # every kind, on spread and unsorted qubits
        rng = np.random.default_rng(100 + k)
        gates = [random_gate(rng, k) for _ in range(24)] + [sim.x(0), sim.h(k - 1), sim.ry(0.4, k - 1), sim.p(0.9, 0)]
        if k > 1:
            order = [int(q) for q in rng.permutation(k)]
            gates += [
                sim.cnot(order[-1], order[0]),
                sim.Gate("cp", tuple(order), angle=0.7),  # k - 1 controls
                sim.multiplexed_ry(rng.uniform(-np.pi, np.pi, 1 << (k - 1)), order[:-1], order[-1]),
                sim.swap(order[0], order[-1]),
                sim.permutation([int(t) for t in rng.permutation(1 << k)], order),
            ]
        gates = [gates[i] for i in rng.permutation(len(gates))]
        assert {g.kind for g in gates} == ({"x", "h", "ry", "p", "perm"} if k == 1 else
                                           {"x", "h", "ry", "p", "cnot", "cp", "swap", "mry", "perm"})
        spread = [int(q) for q in rng.choice(40, size=k, replace=False)]
        period = [g.on([spread[q] for q in g.qubits]) for g in gates]
        expected = np.eye(1 << k, dtype=np.complex128)
        for g in gates:
            expected = kron_embed(closed_form(g), g.qubits, k) @ expected
        np.testing.assert_allclose(sim._period_matrix(period, spread), expected, rtol=0, atol=EQUIV_ATOL)

    @pytest.mark.parametrize("k", [5, 6])
    def test_long_period_matrix_is_its_only_large_allocation(self, k):
        # 2000 gates build one 4**k matrix in place: a matrix per gate
        # would take 2000 * 16 * 4**k bytes, 31 MiB at k = 5.
        rng = np.random.default_rng(43)
        period = [random_gate(rng, k) for _ in range(2000)]
        tracemalloc.start()
        try:
            sim._period_matrix(period, range(k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (16 << 2 * k) + (2 << 20)

    def test_nan_angle_in_a_block_matrix_raises(self):
        # A NaN reaches the matrix of a repeat and of a ladder, and through
        # it the norm check, even where it multiplies only amplitudes that
        # read 0 (the mry's pattern with qubit 2 at 1).
        for bad in (sim.ry(np.nan, 0), sim.p(np.nan, 1), sim.cp(np.nan, 0, 1), sim.multiplexed_ry([0.3, np.nan], [2], 0)):
            period = (sim.cnot(0, 1), bad, sim.h(1))
            for c in (sim.Circuit(3, [sim.h(0), sim.Repeat(period, 3)]), sim.Circuit(4, [sim.h(3), sim.Repeat(period, 1, (3,))])):
                for plan in (c._steps, c._grown_steps):
                    assert sim._Power in map(type, plan)
                with pytest.raises(CircuitError):
                    sim.run(c)
                with pytest.raises(CircuitError):
                    sim.apply_circuit(sim.zero_state(c.n_qubits), c)

    def test_equal_periods_share_one_matrix(self, monkeypatch):
        # QAE's controlled Grover operators differ only in their control
        # wire: the ladder builds one period matrix for all m powers, and
        # keeps it, so both plans of a circuit build one
        calls = []
        build = sim._period_matrix
        monkeypatch.setattr(sim, "_period_matrix", lambda *a: calls.append(1) or build(*a))
        a = np.sqrt([0.1, 0.2, 0.3, 0.05, 0.05, 0.1, 0.15, 0.05])
        c = extractors.qae_circuit(loaders.load_amplitude(a).circuit, 7)
        assert ladder_rungs(c) == [7] and len(calls) == 1
        np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)
        assert len(calls) == 1  # run's plan, from width 0, builds none
        # amplitude -> equally-weighted: Q's powers, then their inverses,
        # which are the conjugate transposes of the forward powers
        c = converters.convert_amplitude_to_ew(loaders.load_amplitude(np.sqrt([0.1, 0.2, 0.3, 0.4])).circuit, 4)
        assert ladder_rungs(c) == [4, 4] and len(calls) == 2
        np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)
        assert len(calls) == 2

    def test_each_repeat_builds_its_own_matrix(self, monkeypatch):
        # equal periods on other qubits, as relabelled ones, build anew
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
        assert powers(c) == len(items) and len(calls) == len(items)
        matrices = [step.matrix for step in c._steps[: len(variants)]]
        for a, b in itertools.combinations(matrices, 2):
            assert not np.allclose(a, b)
        s = random_state(RNG, n)
        np.testing.assert_allclose(sim.apply_circuit(s, c).amplitudes, gate_loop(c, s), rtol=0, atol=EQUIV_ATOL)

    def test_qae_powers_are_byte_equal_to_matrix_power(self):
        # Rung j of the ladder is Q's period to the power 2**j,
        # made by squarings in matrix_power's order.
        a = np.sqrt([0.1, 0.2, 0.3, 0.05, 0.05, 0.1, 0.15, 0.05])
        f = loaders.load_amplitude(a).circuit
        for m in range(1, 10):
            c = extractors.qae_circuit(f, m)
            (ladder,) = [item for item in c.items if type(item) is sim.Repeat]
            (rungs,) = ladder_steps(c._steps)
            assert ladder.count == 1 and ladder.controls == tuple(range(3, 3 + m)) and len(rungs) == m
            block = rungs[0].matrix  # Q's period, checked in TestLadder
            for j, rung in enumerate(rungs):
                expected = np.linalg.matrix_power(block, 1 << j)
                assert rung.controlled and rung.qubits == (0, 1, 2, 3 + j)
                assert rung.matrix.dtype == np.complex128 and rung.matrix.tobytes() == expected.tobytes()

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


def benchmark_wide_input(seed: int, index: int):
    """Angles and sampling seed of instance ``index`` of a wide_sample
    benchmark run seeded with ``seed`` (n = 18), drawn as the benchmark
    draws them."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index + (1 << 20)])))
    return rng.uniform(0.0, np.pi / 2, size=18), int(rng.integers(1 << 31))


def touching_item(rng, qubits: list[int], kind: str):
    """A random item of ``kind`` ("gate", "repeat", "diagonal", "qft" or
    "pyramid") on some of ``qubits`` that touches ``qubits[-1]``."""
    while True:
        k = int(rng.integers(1, min(4, len(qubits)) + 1))
        on = [qubits[-1], *(int(q) for q in rng.permutation(qubits[:-1])[: k - 1])]
        if kind == "pyramid":
            return sim.Pyramid(rng.uniform(-np.pi, np.pi, (1 << k) - 1), on, inverted=bool(rng.integers(2)))
        if kind == "diagonal":
            return sim.Diagonal(rng.uniform(-np.pi, np.pi, 1 << k), on, inverted=bool(rng.integers(2)))
        if kind == "qft":
            return sim.Qft(tuple(on), inverted=bool(rng.integers(2)))
        gates = [random_gate(rng, k) for _ in range(int(rng.integers(1, 4)) if kind == "repeat" else 1)]
        gates = tuple(g.on([on[q] for q in g.qubits]) for g in gates)
        if any(qubits[-1] in g.qubits for g in gates):
            return sim.Repeat(gates, int(rng.integers(1, 4))) if kind == "repeat" else gates[0]


def growing_circuit(rng, n: int, order: str) -> sim.Circuit:
    """A random circuit on n qubits that first touches its qubits in
    ``order``: "ascending", "skipping" (ascending, some left out),
    "descending", "low" (the top ones left untouched), or "middle" (the
    lowest and the highest, then the rest in random order, each between
    touched ones).  Each first touch is a one-qubit gate, an ``mry`` with
    touched controls (any of them, in any order), a gate on more qubits, or
    a block; a random item on the touched qubits may follow it."""
    touches = {
        "ascending": range(n),
        "skipping": sorted(int(q) for q in rng.choice(n, size=max(1, n // 2), replace=False)),
        "descending": range(n - 1, -1, -1),
        "low": range(max(1, n - 3)),
        "middle": [*sorted({0, n - 1}), *(int(q) for q in rng.permutation(range(1, n - 1)))],
    }[order]
    items, touched = [], []
    for q in touches:
        touched.append(q)
        kind = rng.choice(["one", "mry", "gate", "repeat", "diagonal", "qft", "pyramid"])
        if kind == "one":
            items.append(random_gate(rng, 1).on([q]))
        elif kind == "mry":
            controls = [int(c) for c in rng.permutation(touched[:-1])[: int(rng.integers(len(touched)))]]
            items.append(sim.multiplexed_ry(rng.uniform(-np.pi, np.pi, 1 << len(controls)), controls, q))
        else:
            items.append(touching_item(rng, touched, kind))
        if rng.random() < 0.3:
            items.append(touching_item(rng, rng.permutation(touched).tolist(), rng.choice(["gate", "repeat"])))
    return sim.Circuit(n, items)


def benchmark_amp_input(seed: int, index: int) -> np.ndarray:
    """The amplitudes of instance ``index`` of an amp_roundtrip benchmark
    run seeded with ``seed`` (n = 9, complex), drawn as the benchmark draws
    them."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index + (1 << 20)])))
    a = rng.normal(size=512) + 1j * rng.normal(size=512)
    return a / np.linalg.norm(a)


def stages_then_phase_pass(load: sim.Circuit) -> np.ndarray:
    """An amplitude load run as its stages through ``gate_loop``, then its
    phase pass, if any, as the plan's one multiply."""
    *stages, last = load.items
    if type(last) is not sim.Diagonal:
        return gate_loop(load)
    psi = gate_loop(sim.Circuit(load.n_qubits, stages))
    sim._multiply_step(last, last.qubits, load.n_qubits).apply(psi)
    return psi


class TestGrowth:
    """``run`` grows the state from width 0 (``Circuit._grown_steps``),
    keeping the compact state of the touched qubits: a one-qubit gate, or
    an ``mry`` with touched controls, on a fresh qubit doubles it, and
    every other step runs on it with its qubits relabelled.  Every result
    must match the gate-by-gate loop within ``EQUIV_ATOL``, and byte for
    byte when every step is a growth."""

    def test_random_circuits_match_gate_loop(self):
        rng = np.random.default_rng(2026)
        kinds = set()
        orders = ("ascending", "skipping", "descending", "low", "middle")
        for n, order in itertools.product([*range(1, 11), 15, 16, 18], orders):
            c = growing_circuit(rng, n, order)
            kinds |= {g.kind for g in c.gates} | {type(i) for i in c.items}
            np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)
            top = max(q for i in c.items for q in i.qubits)
            assert max(step.width for step in c._grown_steps if type(step) is sim._Grow) == top + 1
        assert kinds == set(sim._QUBIT_COUNTS) | {sim.Gate, sim.Repeat, sim.Diagonal, sim.Qft, sim.Pyramid}
        for n in (1, 5, 18):
            c = sim.Circuit(n)
            assert c._grown_steps == ()
            assert sim.run(c).amplitudes.tobytes() == sim.zero_state(n).amplitudes.tobytes()

    def test_one_qubit_loads_are_byte_equal_to_gate_loop(self):
        rng = np.random.default_rng(18)
        for n in [*range(1, 11), 15, 16, 18]:
            angle = loaders.load_angle(rng.uniform(0.0, np.pi / 2, n)).circuit
            fourier = loaders.load_fourier(int(rng.integers(1 << n)), n).circuit
            assert {type(step) for step in angle._grown_steps} == {sim._Grow}
            for c in (angle, fourier):
                assert sim.run(c).amplitudes.tobytes() == gate_loop(c).tobytes()

    def test_every_one_qubit_kind_grows(self):
        # each kind's first column, on a fresh qubit below and above the
        # touched ones, against the Kronecker oracle
        h0 = sim.h(0)
        for g in (sim.x(0), sim.h(0), sim.ry(-2.5, 0), sim.p(0.7, 0), sim.permutation([1, 0], [0]),
                  sim.permutation([0, 1], [0]), sim.multiplexed_ry([1.3], [], 0)):
            for q, n in ((1, 2), (3, 5)):
                c = sim.Circuit(n, [h0, g.on([q]), sim.cnot(q, 0)])
                assert type(c._grown_steps[1]) is sim._Grow
                expected = oracle_apply(sim.zero_state(n).amplitudes, c)
                np.testing.assert_allclose(sim.run(c).amplitudes, expected, rtol=0, atol=EQUIV_ATOL)

    def test_nan_angle_in_a_growth_raises(self):
        for g in (sim.ry(np.nan, 1), sim.p(np.nan, 1), sim.multiplexed_ry([np.nan], [], 1),
                  sim.multiplexed_ry([0.3, np.nan], [0], 1), sim.Pyramid([0.3, np.nan, 0.2], (1, 2))):
            c = sim.Circuit(3, [sim.h(0), g])
            assert type(c._grown_steps[-1]) is sim._Grow
            with pytest.raises(CircuitError):
                sim.run(c)

    def test_multiplexed_first_touches_grow(self):
        # an mry on a fresh target whose controls are touched is one growth,
        # with its controls all of T, a subset, or out of order, and its
        # target above, between or below them
        rng = np.random.default_rng(23)
        base = [sim.h(1), sim.ry(0.7, 3), sim.cry(0.9, 1, 4)]
        for controls, target in (((1, 3, 4), 2), ((4,), 2), ((4, 1), 2), ((3, 1), 5), ((1, 4), 0), ((4, 3, 1), 0)):
            g = sim.multiplexed_ry(rng.uniform(-np.pi, np.pi, 1 << len(controls)), controls, target)
            c = sim.Circuit(6, [*base, g, sim.cnot(target, 3)])
            steps = c._grown_steps
            assert [type(step) for step in steps[:5]] == [sim._Grow] * 4 + [sim.Gate] and steps[3].width == 4
            np.testing.assert_allclose(sim.run(c).amplitudes, oracle_apply(sim.zero_state(6).amplitudes, c),
                                       rtol=0, atol=EQUIV_ATOL)

    def test_fresh_controls_and_blocks_zero_insert(self):
        # an mry whose control is fresh inserts its fresh qubits reading 0
        # and then runs as a gate, as does a block that touches several
        # fresh qubits; untouched qubits below the top are placed at the end
        # by one growth
        mry = sim.multiplexed_ry([0.4, -1.1, 0.2, 2.5], [2, 0], 1)
        cases = (
            ([sim.h(0), mry], 2),  # the h, then qubits 1 and 2 as one insertion
            ([sim.h(2), mry], 2),
            ([sim.h(1), mry], 2),  # a touched target with fresh controls
            ([sim.h(0), sim.h(1), mry], 3),  # one fresh control
            ([sim.Qft((1, 3, 4)), sim.h(4), sim.Diagonal([0.1, 0.5, -0.3, 0.9], (0, 2))], 2),
            ([sim.h(6), sim.Qft((2, 4), inverted=True), sim.cnot(4, 6)], 3),  # 0, 1, 3, 5 placed last
            # a repeat on more than _POWER_QUBITS qubits is planned as its
            # gates: each first touch of 2, 3 and 7 grows, 4, 5, 6 and 8 are
            # inserted reading 0 by the CNOTs from 3, 4, 5 and 6, and 0 and
            # 1 are placed last
            ([sim.h(9), sim.Repeat((sim.h(2), sim.cnot(2, 9), sim.ry(0.3, 3), sim.cnot(3, 4), sim.cnot(4, 5),
                                    sim.cnot(5, 6), sim.ry(0.5, 7), sim.cnot(6, 8)), 2)], 9),
        )
        for items, count in cases:
            c = sim.Circuit(10, items)
            steps = c._grown_steps
            assert sim._Power not in map(type, steps)
            grows = [step for step in steps if type(step) is sim._Grow]
            assert len(grows) == count and grows[-1].width == 1 + max(q for i in items for q in i.qubits)
            assert mry not in items or (type(steps[-1]) is sim.Gate and grows[-1].one is None)
            np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)

    def test_amplitude_loads_are_byte_equal_to_gate_loop(self):
        # a real amplitude load's plan is its pyramid's prepared state; the
        # phase pass of a complex load then runs as one multiply at full width
        rng = np.random.default_rng(24)
        for n in range(1, 13):
            real = np.abs(rng.normal(size=1 << n))
            c = loaders.load_amplitude(real / np.linalg.norm(real)).circuit
            assert plan_outline(c._grown_steps) == [(sim._Prepared, n)]
            assert sim.run(c).amplitudes.tobytes() == gate_loop(c).tobytes()
            a = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            c = loaders.load_amplitude(a / np.linalg.norm(a)).circuit
            assert sim.run(c).amplitudes.tobytes() == stages_then_phase_pass(c).tobytes()

    def test_benchmark_amplitude_loads_are_byte_equal_to_gate_loop(self):
        # instances 0..3 of amp_roundtrip benchmark seeds 0 and 78
        for seed, index in itertools.product((0, 78), range(4)):
            c = loaders.load_amplitude(benchmark_amp_input(seed, index)).circuit
            got = sim.run(c).amplitudes
            assert got.tobytes() == stages_then_phase_pass(c).tobytes()
            assert got.tobytes() == sim.apply_circuit(sim.zero_state(9), c).amplitudes.tobytes()

    def test_amplitude_load_keeps_one_state(self):
        # n = 18: the run copies the prepared 4 MiB state into its buffer
        # and multiplies the phases in, with no state-sized temporary
        n = 18
        a = RNG.normal(size=1 << n) + 1j * RNG.normal(size=1 << n)
        c = loaders.load_amplitude(a / np.linalg.norm(a)).circuit
        c._grown_steps  # the plan holds the pyramid's state and the phases; measure the run
        tracemalloc.start()
        try:
            sim.run(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (16 << n) + (1 << 20)

    def test_run_keeps_one_state(self):
        # n = 18: the state takes 4 MiB; growing it needs no temporaries
        n = 18
        c = loaders.load_angle(np.full(n, 0.4)).circuit
        c._grown_steps  # the plan itself is small; measure the run
        tracemalloc.start()
        try:
            sim.run(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (16 << n) + (1 << 20)

    def test_seeded_wide_sample_shots_match_gate_loop(self):
        # instances 0..3 of benchmark seeds 0 and 78
        for seed, index in itertools.product((0, 78), range(4)):
            thetas, sample_seed = benchmark_wide_input(seed, index)
            c = loaders.load_angle(thetas).circuit
            looped = sim.StateVector(18, gate_loop(c))
            registers = {"data": tuple(range(18))}
            assert sim.sample_shots(sim.run(c), registers, 1 << 13, sample_seed) == sim.sample_shots(
                looped, registers, 1 << 13, sample_seed
            )


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

    def test_count_is_kept_as_a_plain_int(self):
        # A numpy count used to wrap in a rung's count << j: 2**62 << 2 read
        # 0 in int64, and _power recursed on 0 without end.
        r = sim.Repeat((sim.p(0.3, 0),), np.int64(2**62), (1, 2, 3))
        assert {type(r.count), type(r.inverse().count), type(r.shifted(1).count)} == {int}
        layer = [sim.h(1), sim.h(2), sim.h(3)]
        got = sim.apply_circuit(sim.zero_state(4), sim.Circuit(4, [*layer, r])).amplitudes
        plain = sim.Repeat(r.period, 2**62, r.controls)
        assert got.tobytes() == sim.apply_circuit(sim.zero_state(4), sim.Circuit(4, [*layer, plain])).amplitudes.tobytes()

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
        assert ladder_rungs(c) == [4] and ladder_rungs(flat) == [] and powers(flat) == 0
        shifted = c.shifted(1, c.n_qubits + 1)
        assert ladder_rungs(shifted) == [4] and shifted.gates == flat.shifted(1, c.n_qubits + 1).gates
        both = c.concat(c)
        assert ladder_rungs(both) == [4, 4] and both.gates == c.gates + c.gates
        inverse = c.inverse()
        assert ladder_rungs(inverse) == [4] and inverse.gates == flat.inverse().gates
        undone = sim.apply_circuit(sim.run(c), inverse).amplitudes
        np.testing.assert_allclose(undone, sim.zero_state(c.n_qubits).amplitudes, rtol=0, atol=EQUIV_ATOL)

    def test_a_repeat_and_its_inverse_share_one_matrix(self, monkeypatch):
        # a plain repeat inverts as a ladder does: its adjoint is inverted
        # and runs the adjoint of the forward repeat's power
        calls = []
        build = sim._period_matrix
        monkeypatch.setattr(sim, "_period_matrix", lambda *a: calls.append(1) or build(*a))
        rng = np.random.default_rng(83)
        a = np.abs(rng.normal(size=8))
        q = extractors.grover_operator(loaders.load_amplitude(a / np.linalg.norm(a)).circuit)
        for forward in (q, sim.Circuit(3, [sim.Repeat(q.items[0].period, 3)])):
            calls.clear()
            c = forward.concat(forward.inverse())
            assert [i.inverted for i in c.items] == [False, True] and powers(c) == 2 and len(calls) == 1
            ahead, back = c._steps
            assert back.matrix.tobytes() == np.ascontiguousarray(ahead.matrix.conj().T).tobytes()
            np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)
            s = random_state(rng, 3)
            np.testing.assert_allclose(sim.apply_circuit(s, c).amplitudes, gate_loop(c, s), rtol=0, atol=EQUIV_ATOL)
            np.testing.assert_allclose(sim.apply_circuit(s, c).amplitudes, s.amplitudes, rtol=0, atol=EQUIV_ATOL)
            assert len(calls) == 1

    def test_a_repeat_built_inverted_is_the_adjoint_of_its_fields(self):
        # as on every block, inverted=True marks the adjoint of the forward
        # repeat that the fields describe: a plain repeat and a ladder built
        # so run as the forward repeat's inverse, not as a repeat of the period
        rng = np.random.default_rng(84)
        plain = tuple(random_gate(rng, 3) for _ in range(4))
        for forward in (sim.Repeat(plain, 3), sim.Repeat(random_ladder_period(rng, (0, 1)), 1, (2, 3))):
            built = sim.Repeat(forward.period, forward.count, forward.controls, inverted=True)
            assert built == forward.inverse() and built.gates == sim._inverted(forward.gates)
            adjoint = sim.Circuit(4, [forward]).inverse()
            s = random_state(rng, 4)
            np.testing.assert_allclose(sim.run(sim.Circuit(4, [built])).amplitudes, gate_loop(adjoint), rtol=0, atol=EQUIV_ATOL)
            np.testing.assert_allclose(sim.apply_circuit(s, sim.Circuit(4, [built])).amplitudes, gate_loop(adjoint, s),
                                       rtol=0, atol=EQUIV_ATOL)



def period_unitary(period) -> np.ndarray:
    """``build_unitary`` of ``period``'s flat gates on its own qubits, local
    bit i the i-th lowest of them."""
    gates = [g for i in period for g in i.gates]
    own = sorted({q for g in gates for q in g.qubits})
    return sim.build_unitary(sim.Circuit(len(own), [g.on([own.index(q) for q in g.qubits]) for g in gates]))


def random_ladder_period(rng, qubits) -> tuple:
    """A plain period on ``qubits``, as a ladder takes it: a random gate of
    any kind that fits, a reflection (or its adjoint) about the state that
    an H on each qubit and a random gate prepare, reflected on some of the
    qubits, and another random gate."""
    qubits = list(qubits)
    a, b, c = [spread_gate(rng, len(qubits), int(rng.integers(1, min(3, len(qubits)) + 1))) for _ in range(3)]
    a, b, c = [g.on([qubits[q] for q in g.qubits]) for g in (a, b, c)]
    reflected = [int(q) for q in rng.permutation(qubits)[: int(rng.integers(1, len(qubits) + 1))]]
    reflection = sim.Reflection((*map(sim.h, qubits), b), reflected)
    return a, reflection.inverse() if rng.integers(2) else reflection, c


class TestLadder:
    """A ``Repeat`` with controls: phase estimation's controlled powers,
    of one plain period declared once, run as one step on each control's
    control-1 half."""

    def test_qae_and_amp_to_ew_ladders_power_the_grover_operators_period(self):
        # qpe_gates ladders the very period that grover_operator repeats,
        # and the plan's rung 0 (count 1), or its adjoint in an inverted
        # ladder, which runs rung 0 last, is that period's build_unitary
        rng = np.random.default_rng(71)
        ladders = []
        for n in range(1, 5):
            for a in (np.abs(rng.normal(size=1 << n)), rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)):
                f = loaders.load_amplitude(a / np.linalg.norm(a)).circuit
                for flag in range(n):
                    c = extractors.qae_circuit(f, 2, flag)
                    q = extractors.grover_operator(f, flag)
                    ladders += [(item, c, q) for item in c.items if type(item) is sim.Repeat]
        for n, m in itertools.product((1, 2), (2, 3, 4)):
            a = np.abs(rng.normal(size=1 << n))
            c = converters.convert_amplitude_to_ew(loaders.load_amplitude(a / np.linalg.norm(a)).circuit, m)
            w, flag = 2 * n + 1, 2 * n
            f = sim.Circuit(w, c.items[n : c.items.index(sim.h(w))])  # the load on work, then the equality flag
            q = extractors.grover_operator(f, flag, (*range(n, 2 * n), flag))
            ladders += [(item, c, q) for item in c.items if type(item) is sim.Repeat]
        assert len(ladders) == 2 * (1 + 2 + 3 + 4) + 6 * 2
        for ladder, c, q in ladders:
            assert ladder.period == q.items[0].period and ladder.count == 1
            rungs = ladder_steps(c._steps)
            rung = rungs[-1][-1] if ladder.inverted else rungs[0][0]
            assert rung.qubits[-1] == ladder.controls[0]
            u = period_unitary(ladder.period)
            np.testing.assert_allclose(rung.matrix, u.conj().T if ladder.inverted else u, rtol=0, atol=EQUIV_ATOL)

    def test_qae_plan_multiplies_no_gate_of_f(self, monkeypatch):
        # The ladder's period is the flag phase, a scale of the rows where
        # the flag reads 1, and the reflection about F|0>, which
        # the plan takes from the state the load's pyramid keeps: no gate
        # reaches a matrix product and no circuit is run, in either plan,
        # for a real or a complex load.
        periods, multiplied, ran = [], [], []
        build, unitary, run = sim._period_matrix, sim._unitary, sim.run
        monkeypatch.setattr(sim, "_period_matrix", lambda period, qubits: periods.append(tuple(period)) or build(period, qubits))
        monkeypatch.setattr(sim, "_unitary", lambda gates, *rest: multiplied.extend(gates) or unitary(gates, *rest))
        monkeypatch.setattr(sim, "run", lambda circuit: ran.append(circuit) or run(circuit))
        rng = np.random.default_rng(97)
        for a in (np.abs(rng.normal(size=8)), rng.normal(size=8) + 1j * rng.normal(size=8)):
            f = loaders.load_amplitude(a / np.linalg.norm(a)).circuit
            c = extractors.qae_circuit(f, 5, flag=1)
            periods.clear(), multiplied.clear(), ran.clear()
            c._grown_steps, c._steps
            assert periods == [(sim.p(np.pi, 1), sim.Reflection(f.items, range(3)))]  # one for both plans
            assert multiplied == [] and ran == []
            np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)

    def test_qae_plan_on_an_angle_load_runs_no_circuit(self, monkeypatch):
        # F without a pyramid: the reflection takes F|0...0> as one column
        # run through F's gates (_unitary), and no plan runs another
        # circuit.
        rng = np.random.default_rng(59)
        f = loaders.load_angle(rng.uniform(0.0, np.pi / 2, 3)).circuit
        c = extractors.qae_circuit(f, 4, flag=1)
        monkeypatch.setattr(sim, "run", lambda circuit: pytest.fail("the plan ran a circuit"))
        c._grown_steps, c._steps
        monkeypatch.undo()
        assert ladder_rungs(c) == [4]
        np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)

    def test_reflection_checks_its_qubits_and_items(self):
        f = (sim.h(0), sim.cnot(0, 1))
        for make in (
            lambda: sim.Reflection(f, ()),  # nothing reflected
            lambda: sim.Reflection(f, (2, 2)),  # a qubit reflected twice
            lambda: sim.Reflection([sim.Circuit(2)], (0,)),  # F holds a circuit
            lambda: sim.Reflection(f, (0, 1)).shifted(-1),
            lambda: sim.Circuit(2, [sim.Reflection(f, (0, 1))]),  # only in a repeat's period
            lambda: sim.Repeat((sim.p(0.3, 0), sim.Reflection((*f, sim.h(2)), (0, 1))), 1, (2,)),  # F on the control
            lambda: sim.Repeat((sim.p(0.3, 0), sim.Reflection(f, (0, 2))), 1, (2,)),  # the control reflected
        ):
            with pytest.raises(CircuitError):
                make()
        block = sim.Reflection(f, (0, 3))
        assert block.qubits == (0, 1, 3) and block.inverse().inverse() == block != block.inverse()
        assert block.shifted(2) == sim.Reflection((sim.h(2), sim.cnot(2, 3)), (2, 5))
        assert block.inverse().gates == sim._inverted(block.gates)
        # and so is a ladder's rung of it, though a reflection is its own adjoint
        forward, adjoint = (sim.Repeat((r,), 1, (4,)).gates for r in (block, block.inverse()))
        assert adjoint == sim._inverted(forward) != forward

    @pytest.mark.parametrize("gate", [
        sim.x(2), sim.h(2), sim.ry(0.3, 2), sim.cnot(0, 2), sim.multiplexed_ry([0.1, 0.2], [0], 2),
        sim.cry(0.3, 1, 2), sim.swap(2, 1), sim.permutation([1, 0, 2, 3], [2, 0]), sim.cswap(2, 0, 1),
    ])
    def test_a_period_acting_on_its_control_not_as_a_control_is_refused(self, gate):
        # A ladder controls its plain period itself, so the period may touch
        # no control, the first or a later one: not by these gates on
        # qubit 2, nor by a gate that reads it as a control.
        for period in ((sim.cnot(1, 0), gate), (sim.cnot(2, 0),), (sim.cp(0.3, 2, 1),), (sim.p(0.3, 2),)):
            for controls in ((2, 3), (3, 2)):
                with pytest.raises(CircuitError, match="touches one of its controls"):
                    sim.Repeat(period, 1, controls)
        assert sim.Repeat((sim.cnot(1, 0), sim.cp(0.3, 0, 1)), 1, (2, 3)).qubits == (0, 1, 2, 3)

    def test_controls_must_be_distinct_and_off_the_rest_of_the_period(self):
        period = (sim.cnot(1, 0), sim.cp(0.3, 0, 1))
        for controls in ((2, 0), (2, 3, 3), (2, 1.0), (1, 3)):
            with pytest.raises(CircuitError):
                sim.Repeat(period, 1, controls)
        with pytest.raises(CircuitError, match="outside 0..3"):
            sim.Circuit(4, [sim.Repeat(period, 1, (2, 3, 4))])
        assert sim.Repeat(period, 1, [2, 3]).controls == (2, 3) and sim.Repeat(period, 1, []).controls == ()

    def test_random_ladders_match_gate_loop(self):
        rng = np.random.default_rng(67)
        for trial in range(40):
            k, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            n = k + m - 1 + int(rng.integers(0, 2))
            control = int(rng.integers(k))
            ladder = sim.Repeat(random_ladder_period(rng, [q for q in range(k) if q != control]), int(rng.integers(1, 3)),
                                (control, *range(k, k + m - 1)))
            if rng.integers(2):
                ladder = ladder.inverse()
            c = sim.Circuit(n, [sim.h(q) for q in range(k, n)] + [random_gate(rng, n), ladder, random_gate(rng, n)])
            assert ladder_rungs(c) == [m]
            (rungs,) = ladder_steps(c._steps)
            assert [r.qubits[-1] for r in rungs] == list(ladder.controls[::-1] if ladder.inverted else ladder.controls)
            np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)
            s = random_state(rng, n)
            np.testing.assert_allclose(sim.apply_circuit(s, c).amplitudes, gate_loop(c, s), rtol=0, atol=EQUIV_ATOL)

    def test_ladders_match_the_closed_form_of_their_controlled_powers(self):
        # Rung j applies the plain period U count << j times where
        # controls[j] reads 1, so the ladder is the product over j of
        # P0 + P1 U**(count << j) on controls[j], U made from kron_embed of
        # the closed forms of the period's flat gates.  The flat expansion
        # (build_unitary), both plans and adjoints agree with it, for
        # controls below, between and above the period's qubits, in any
        # order.
        rng = np.random.default_rng(101)
        kinds, seen, doubled = set(), set(), 0
        for trial in range(30):
            k, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            n = k + m
            order = [int(q) for q in rng.permutation(n)] if trial % 3 else list(range(n))
            qubits, controls = sorted(order[:k]), tuple(order[k:])
            period, count = random_ladder_period(rng, qubits), int(rng.integers(1, 4))
            flat = [g for i in period for g in i.gates]
            kinds.update(g.kind for g in flat)
            u = np.eye(1 << n, dtype=np.complex128)
            for g in flat:
                u = kron_embed(closed_form(g), g.qubits, n) @ u
            index = np.arange(1 << n)
            expected = np.eye(1 << n, dtype=np.complex128)
            for j, c in enumerate(controls):
                expected = np.where((index >> c)[:, None] & 1 == 1, np.linalg.matrix_power(u, count << j), np.eye(1 << n)) @ expected
            ladder = sim.Repeat(period, count, controls)
            if rng.integers(2):
                ladder, expected = ladder.inverse(), expected.conj().T
            seen.add((ladder.inverted, count))
            np.testing.assert_allclose(sim.build_unitary(sim.Circuit(n, [ladder])), expected, rtol=0, atol=EQUIV_ATOL)
            s = random_state(rng, n)
            got = sim.apply_circuit(s, sim.Circuit(n, [ladder])).amplitudes
            np.testing.assert_allclose(got, expected @ s.amplitudes, rtol=0, atol=EQUIV_ATOL)
            # from |0>: a load on the period's qubits, then an H on each control
            load = [sim.ry(float(theta), q) for q, theta in zip(qubits, rng.uniform(0.0, np.pi, k))]
            c = sim.Circuit(n, [*load, *map(sim.h, controls), ladder])
            doubled += sim._Doubling in map(type, c._grown_steps)
            start = oracle_apply(sim.zero_state(n).amplitudes, sim.Circuit(n, [*load, *map(sim.h, controls)]))
            np.testing.assert_allclose(sim.run(c).amplitudes, expected @ start, rtol=0, atol=EQUIV_ATOL)
        assert {"h", "perm"} <= kinds and {count for _, count in seen} == {1, 2, 3} and len(seen) > 3 and doubled

    def test_qae_runs_as_row_doubling_from_the_loaded_state(self):
        # run's plan holds the load's state, one _Doubling in place of the
        # H layer and the ladder, and the Fourier step; the doubling takes
        # the rung matrices that apply_circuit's plan applies.  Both
        # plans agree, and with build_unitary where it is small.
        rng = np.random.default_rng(53)
        for n, complex_load in itertools.product((2, 3, 4), (False, True)):
            a = np.abs(rng.normal(size=1 << n))
            if complex_load:
                a = a * np.exp(1j * rng.uniform(-np.pi, np.pi, a.size))
            f = loaders.load_amplitude(a / np.linalg.norm(a)).circuit
            for m, flag in itertools.product(range(1, 8), range(n)):
                for reflected in (None, tuple(int(q) for q in rng.permutation(n)[: n - 1])):
                    c = sim.Circuit(n + m, [*f.items, *extractors.qpe_gates(f, flag, m, reflected)])
                    kinds = [type(s) for s in c._grown_steps]
                    assert kinds == [sim._Prepared, *[sim._Multiply] * complex_load, sim._Doubling, sim._Fourier]
                    doubling = c._grown_steps[-2]
                    assert (doubling.start, doubling.width, len(doubling.matrices)) == (n, n + m, m)
                    (rungs,) = ladder_steps(c._steps)
                    for matrix, rung in zip(doubling.matrices, rungs, strict=True):
                        assert np.array_equal(matrix.T, rung.matrix)
                    got = sim.run(c).amplitudes
                    expected = sim.apply_circuit(sim.zero_state(n + m), c).amplitudes
                    np.testing.assert_allclose(got, expected, rtol=0, atol=EQUIV_ATOL)
                    if n + m <= 6:
                        np.testing.assert_allclose(got, sim.build_unitary(c)[:, 0], rtol=0, atol=EQUIV_ATOL)

    def test_phase_qubits_are_planned_without_a_growth(self, monkeypatch):
        # The plan finds the doubling when it meets the layer's first H, so
        # no growth is made, and no |0> column taken, for a phase qubit.
        # These plans keep the touched qubits a prefix, so the positions a
        # growth inserts are qubit numbers.
        inserted = []
        grow_step, first_column = sim._grow_step, sim._first_column

        def recorded_grow_step(start, width, qubits, column=None):
            inserted.extend(qubits if column is None else qubits[-1:])
            return grow_step(start, width, qubits, column)

        monkeypatch.setattr(sim, "_grow_step", recorded_grow_step)
        monkeypatch.setattr(sim, "_first_column", lambda gate: inserted.append(gate.qubits[-1]) or first_column(gate))
        rng = np.random.default_rng(61)
        for n, complex_load in itertools.product((2, 3, 4), (False, True)):
            a = np.abs(rng.normal(size=1 << n))
            if complex_load:
                a = a * np.exp(1j * rng.uniform(-np.pi, np.pi, a.size))
            f = loaders.load_amplitude(a / np.linalg.norm(a)).circuit
            for m, flag in itertools.product(range(1, 8), range(n)):
                c = extractors.qae_circuit(f, m, flag)
                inserted.clear()
                assert sim._Doubling in map(type, c._grown_steps)
                assert not set(inserted) & set(c.registers["qae_phase"])
        a = np.abs(rng.normal(size=4))
        c = converters.convert_amplitude_to_ew(loaders.load_amplitude(a / np.linalg.norm(a)).circuit, 3)
        inserted.clear()
        assert sim._Doubling in map(type, c._grown_steps)
        assert inserted and not set(inserted) & set(c.registers["phase"])

    def test_ladders_not_right_after_their_own_h_layer_keep_their_rungs(self):
        # The doubling needs every row of the controls equal when the
        # ladder starts, and the controls on top.  Each case breaks one of
        # those and keeps the rungs, and its run matches the gate loop.
        rng = np.random.default_rng(59)
        a = np.abs(rng.normal(size=4))
        f = loaders.load_amplitude(a / np.linalg.norm(a)).circuit
        (*layer, ladder, qft), high = extractors.qpe_gates(f, 1, 3), f.shifted(3, 5)
        below = sim.Repeat(extractors._grover_gates(high.items, 4, (3, 4)), 1, (0, 1, 2))
        descending = sim.Repeat(extractors._grover_gates(f.items, 1, (0, 1)), 1, (4, 3, 2))
        cases = [
            [*f.items, *layer, ladder.inverse(), qft],  # an inverted ladder, its last rung first
            [*f.items, *layer, descending, qft],  # controls on top, in descending order
            [*f.items, layer[0], sim.x(3), layer[2], ladder, qft],  # a control inserted by X
            [*f.items, *layer[:2], sim.ry(0.7, 4), ladder, qft],  # or by RY
            [*f.items, *layer, sim.x(3), ladder, qft],  # an X on a control after its H
            [*f.items, *layer, sim.p(0.3, 0), ladder, qft],  # a gate between the H layer and the ladder
            [*high.items, *(sim.h(q) for q in range(3)), below, sim.Qft((0, 1, 2), True)],  # controls below the data
            # H on a data qubit, inserted below control 3, which an RY inserted
            [*f.items, sim.ry(0.7, 3), sim.h(4), sim.h(2),
             sim.Repeat((sim.p(0.3, 2), sim.x(0), sim.p(0.5, 1)), 1, (3, 4)), sim.Qft((3, 4), True)],
            # a touched qubit below the controls that the ladder leaves out
            [*f.items, sim.ry(0.4, 2), *map(sim.h, (3, 4, 5)),
             sim.Repeat(extractors._grover_gates(f.items, 1, (0, 1)), 1, (3, 4, 5)), sim.Qft((3, 4, 5), True)],
        ]
        for items in cases:
            c = sim.Circuit(6, items)
            assert ladder_steps(c._grown_steps) and sim._Doubling not in map(type, c._grown_steps)
            np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)
        # amplitude -> equally-weighted: the forward ladder doubles, and its
        # inverse, which runs its last rung first, keeps its rungs
        c = converters.convert_amplitude_to_ew(f, 3)
        steps = c._grown_steps
        d = [type(s) for s in steps].index(sim._Doubling)
        assert not ladder_steps(steps[:d]) and sim._Doubling not in map(type, steps[d + 1 :])
        assert [len(rungs) for rungs in ladder_steps(steps[d + 1 :])] == [3]
        np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)

    def test_repeats_plan_as_their_rungs(self):
        # A plain repeat is one uncontrolled _Power of its count.  A ladder
        # on m controls is m controlled _Powers of count << j on
        # controls[j], in order, and its inverse() the adjoints of those
        # rungs in reverse.  Each plan runs as the gate loop.
        rng = np.random.default_rng(89)
        count, controls = 3, (0, 4, 5)
        period = random_ladder_period(rng, (1, 2, 3))
        ladder = sim.Repeat(period, count, controls)
        u = period_unitary(period)
        forward = {
            sim.Repeat(period, count): [(np.linalg.matrix_power(u, count), (1, 2, 3), False)],
            ladder: [(np.linalg.matrix_power(u, count << j), (1, 2, 3, c), True) for j, c in enumerate(controls)],
        }
        for item, rungs in forward.items():
            adjoint = [(m.conj().T, qubits, controlled) for m, qubits, controlled in rungs[::-1]]
            for item, rungs in ((item, rungs), (item.inverse(), adjoint)):
                c = sim.Circuit(6, [item])
                plan = [(type(step), step.qubits, step.controlled) for step in c._steps]
                assert plan == [(sim._Power, qubits, controlled) for _, qubits, controlled in rungs]
                for step, (matrix, _, _) in zip(c._steps, rungs):
                    np.testing.assert_allclose(step.matrix, matrix, rtol=0, atol=EQUIV_ATOL)
                s = random_state(rng, 6)
                np.testing.assert_allclose(sim.apply_circuit(s, c).amplitudes, gate_loop(c, s), rtol=0, atol=EQUIV_ATOL)

    def test_ladder_wider_than_cap_runs_its_rungs_gate_by_gate(self):
        k = sim._POWER_QUBITS + 2
        period = random_ladder_period(np.random.default_rng(5), range(1, k))
        ladder = sim.Repeat(period, 1, (0, k, k + 1))
        c = sim.Circuit(k + 2, [sim.h(k), sim.h(k + 1), ladder])
        assert len({q for g in period for q in g.qubits}) > sim._POWER_QUBITS
        assert ladder_rungs(c) == [] and powers(c) == 0 and len(c._steps) == len(c.gates)
        s = random_state(RNG, k + 2)
        assert sim.apply_circuit(s, c).amplitudes.tobytes() == gate_loop(c, s).tobytes()
        np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)

    def test_ladder_wider_than_cap_after_its_h_layer_keeps_its_growths(self):
        # Over the cap a ladder runs gate by gate, so the H layer before it
        # is not taken into a doubling: it grows the state one H at a time.
        k = sim._POWER_QUBITS + 1
        rng = np.random.default_rng(7)
        ladder = sim.Repeat(random_ladder_period(rng, range(k)), 1, (k, k + 1))
        load = [sim.ry(float(theta), q) for q, theta in enumerate(rng.uniform(0.0, np.pi, k))]
        c = sim.Circuit(k + 2, [*load, sim.h(k), sim.h(k + 1), ladder])
        kinds = [type(s) for s in c._grown_steps]
        assert sim._Doubling not in kinds and kinds.count(sim._Grow) == k + 2
        np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)

    def test_qae_flat_form_is_the_per_rung_form(self):
        # The ladder changes the plan, not the circuit: qae_circuit's flat
        # gates, depth and CNOT count are those of one Repeat per power.
        rng = np.random.default_rng(73)
        for n in range(1, 5):
            a = np.abs(rng.normal(size=1 << n))
            f = loaders.load_amplitude(a / np.linalg.norm(a)).circuit
            for m in range(1, 9):
                c = extractors.qae_circuit(f, m)
                grover = [controlled_grover(f.gates, n - 1, range(n), n + j) for j in range(m)]
                rungs = [sim.Repeat(tuple(period), 1 << j) for j, period in enumerate(grover)]
                qft = converters.qft_circuit(m).inverse().shifted(n, n + m).items
                per_rung = sim.Circuit(n + m, [*f.items, *[sim.h(n + j) for j in range(m)], *rungs, *qft], c.registers)
                assert c.gates == per_rung.gates and c == per_rung
                assert (c.depth, c.cnot_count) == (per_rung.depth, per_rung.cnot_count)
                assert c.inverse().gates == sim._inverted(c.gates)

    def test_amp_to_ew_flat_form_is_the_per_rung_form(self):
        # The estimate ladder is phase estimation on the Grover operator of
        # F = (load on work, equality flag); its adjoint expands last rung
        # first, as the reversed inverses of per-rung repeats did.
        rng = np.random.default_rng(79)
        for n, m in itertools.product((1, 2), (2, 3, 4)):
            a = np.abs(rng.normal(size=1 << n))
            c = converters.convert_amplitude_to_ew(loaders.load_amplitude(a / np.linalg.norm(a)).circuit, m)
            w, flag = 2 * n + 1, 2 * n
            items = list(c.items)
            forward, inverse = (i for i in items if type(i) is sim.Repeat)
            assert (forward.inverted, inverse.inverted) == (False, True) and inverse == forward.inverse()
            f_gates = tuple(itertools.chain.from_iterable(i.gates for i in items[n : items.index(sim.h(w))]))
            grover = [controlled_grover(f_gates, flag, (*range(n, 2 * n), flag), w + j) for j in range(m)]
            rungs = [sim.Repeat(tuple(period), 1 << j) for j, period in enumerate(grover)]
            at, back = items.index(forward), items.index(inverse)
            undo = [r.inverse() for r in reversed(rungs)]
            per_rung = items[:at] + rungs + items[at + 1 : back] + undo + items[back + 1 :]
            flat = sim.Circuit(c.n_qubits, per_rung, c.registers, c.query_count)
            assert c.gates == flat.gates and (c.depth, c.cnot_count) == (flat.depth, flat.cnot_count)
            assert c.inverse().gates == sim._inverted(c.gates)


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

    @pytest.mark.parametrize("item", [None, (sim.h(0),), "h", [sim.h(0)], np.eye(2)])
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


def level_stages(levels, qubits) -> list[sim.Gate]:
    """An angle tree's levels as one ``mry`` each, as loaders emitted them
    before the pyramid block: level k rotates ``qubits[-1-k]``, multiplexed
    over the qubits above it."""
    k = len(qubits)
    return [sim.multiplexed_ry(level, qubits[k - j :], qubits[k - 1 - j]) for j, level in enumerate(levels)]


def with_level_stages(c: sim.Circuit) -> sim.Circuit:
    """``c`` with each pyramid replaced by its ``level_stages``, written
    from the per-level view of its angle tree, or by their adjoints."""
    items = []
    for item in c.items:
        if type(item) is sim.Pyramid:
            levels = [item.angles[(1 << j) - 1 : (2 << j) - 1] for j in range(len(item.qubits))]
            stages = level_stages(levels, item.qubits)
            items += [g.inverse() for g in reversed(stages)] if item.inverted else stages
        else:
            items.append(item)
    return sim.Circuit(c.n_qubits, items, c.registers, c.query_count)


def plan_outline(steps) -> list:
    """Each step's type, with a growth's or prepared state's width and a
    gate itself."""
    widths = (sim._Grow, sim._Prepared)
    return [(type(s), s.width if type(s) in widths else s if type(s) is sim.Gate else None) for s in steps]


class TestPyramid:
    """An amplitude load's stages are one declared block: its expansion is
    the per-level multiplexers, and a run of it on fresh qubits is
    byte-equal to a run of those multiplexers."""

    def test_expansion_is_the_level_stages(self):
        rng = np.random.default_rng(71)
        for n in range(1, 9):
            a = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            a /= np.linalg.norm(a)
            tree = trees.tree_to_angles(trees.build_state_tree(np.abs(a)))
            (pyramid, _) = loaders.load_amplitude(a).circuit.items
            assert pyramid.gates == tuple(level_stages(tree.levels, tuple(range(n))))
            assert pyramid.inverse().gates == sim._inverted(pyramid.gates)
            assert pyramid.inverse().inverse() == pyramid

    def test_stages_take_the_heap_as_floats_with_no_check_per_angle(self, monkeypatch):
        # The block's angles were checked once, as a float64 heap; its
        # stages take them as Python floats, so expanding it, directly or in
        # a plan that meets it after a touched qubit, checks no angle again.
        calls = []
        real = sim._real
        monkeypatch.setattr(sim, "_real", lambda value: calls.append(value) or real(value))
        rng = np.random.default_rng(83)
        for k in (1, 3, 8):
            block = sim.Pyramid(rng.uniform(-3.0, 3.0, (1 << k) - 1), tuple(range(k)))
            calls.clear()
            angles = [a for g in block.gates for a in g.angles]
            assert set(map(type, angles)) == {float} and angles == block.angles.tolist()
            assert all(type(a) is float for g in block.inverse().gates for a in g.angles)
            sim.Circuit(k + 1, [sim.x(k), sim.Pyramid(block.angles, block.qubits)])._grown_steps
            assert calls == []

    def test_equal_and_hashed_by_value(self):
        angles = np.array([0.3, -1.2, 2.0])
        p = sim.Pyramid(angles, (4, 1))
        angles[0] = 9.0  # the block keeps its own copy
        same = sim.Pyramid([0.3, -1.2, 2.0], [4, 1])
        assert p == same and hash(p) == hash(same) and {p: 1}[same] == 1
        assert not p.angles.flags.writeable and p.angles.dtype == np.float64
        for other in (p.inverse(), sim.Pyramid([0.3, -1.2, 2.5], (4, 1)), sim.Pyramid(p.angles, (1, 4)),
                      sim.Diagonal([0.3, -1.2, 2.0, 0.0], (4, 1))):
            assert p != other
        assert sim.Circuit(5, [p]) == sim.Circuit(5, p.gates)
        assert sim.Circuit(5, [p.inverse()]) == sim.Circuit(5, p.gates).inverse()

    def test_blocks_check_their_shape(self, monkeypatch):
        for angles, qubits in (([0.1, 0.2], (0, 1)), ([0.1, 0.2, 0.3], (1, 1)), ([], ()), ([0.1], (-1,)),
                               ([0.1, 0.2, 0.3], (0, 1.5))):
            with pytest.raises(CircuitError):
                sim.Pyramid(angles, qubits)
        with pytest.raises(CircuitError, match="outside 0..2"):
            sim.Circuit(3, [sim.Pyramid([0.1, 0.2, 0.3], (1, 3))])
        monkeypatch.setattr(sim, "MAX_QUBITS", 3)
        sim.Pyramid(np.zeros(7), range(3))
        with pytest.raises(CircuitError):
            sim.Pyramid(np.zeros(15), range(4))

    @pytest.mark.parametrize("value", [0.3 + 1j, True, None, "a"], ids=["complex", "bool", "none", "string"])
    @pytest.mark.parametrize("block", [sim.Pyramid, sim.Diagonal])
    def test_blocks_refuse_angles_gate_refuses(self, block, value):
        # numpy would keep 0.3 of 0.3+1j, 1.0 of True and NaN of None
        with pytest.raises(CircuitError):
            sim.ry(value, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CircuitError, match="real numbers"):
                block([value] * (1 if block is sim.Pyramid else 2), (0,))

    def test_blocks_take_integer_and_float_angles(self):
        for values in (np.array([1, -2, 3], dtype=np.int8), np.array([1, 2, 3], dtype=np.uint16), [1, 2, 3],
                       np.array([0.5, 1.5, -2.0], dtype=np.float32)):
            for block in (sim.Pyramid(values, (0, 1)), sim.Diagonal([*values, 0], (0, 1))):
                held = block.angles if type(block) is sim.Pyramid else block.phases[:3]
                assert held.dtype == np.float64 and held.tolist() == np.asarray(values, dtype=np.float64).tolist()

    def test_loads_run_byte_equal_to_their_level_stages(self):
        # real, complex and equally-weighted loads and every bidirectional
        # split: the run is the one its per-level multiplexers give
        rng = np.random.default_rng(72)
        for n in range(1, 11):
            real = np.abs(rng.normal(size=1 << n))
            real[rng.random(1 << n) < 0.3] = 0.0
            real[0] = 1.0
            cplx = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            outs = [loaders.load_amplitude(v / np.linalg.norm(v)) for v in (real, cplx)]
            xs = sorted(int(x) for x in rng.choice(1 << n, size=max(2, (1 << n) // 3), replace=False))
            if len(xs) < 1 << n:
                outs.append(loaders.load_equally_weighted(xs, n))
            if n <= 4:
                outs += [loaders.load_bidirectional(v / np.linalg.norm(v), s) for v in (real, cplx)
                         for s in range(1, n + 1)]
            for out in outs:
                c = out.circuit
                got = sim.run(c).amplitudes.tobytes()
                assert got == sim.run(with_level_stages(c)).amplitudes.tobytes()
                if c.items[-1] is c.items[0]:  # a real load: every step a growth
                    assert got == gate_loop(c).tobytes()
                elif type(c.items[-1]) is sim.Diagonal and len(c.items) == 2:
                    assert got == stages_then_phase_pass(c).tobytes()

    def test_plans_as_its_level_stages(self):
        # a pyramid on ascending qubits at width 0 is one prepared state,
        # made without building its expansion, in place of its stages'
        # growths; any other is planned as its stages: either way as the
        # per-level multiplexers are
        rng = np.random.default_rng(73)
        for before, qubits, inverted in (
            ([], (0, 1, 2), False),
            ([], (1, 3), False),
            ([], (2, 0), False),
            ([], (1, 3, 4), True),
            ([sim.h(3)], (0, 1, 2), False),
            ([sim.h(0), sim.h(4)], (3, 1, 2), False),
            ([sim.h(2)], (5, 0, 3, 1), False),
            ([], (0, 1, 2), True),
            ([sim.h(1)], (0, 1, 2), False),
            ([sim.h(0)], (2, 0), True),
        ):
            k = len(qubits)
            pyramid = sim.Pyramid(rng.uniform(-np.pi, np.pi, (1 << k) - 1), qubits, inverted)
            c = sim.Circuit(6, [*before, pyramid, sim.cnot(qubits[0], 5 if 5 not in qubits else 4)])
            flat = with_level_stages(c)
            prepared = not before and not inverted and list(qubits) == sorted(qubits)
            outline = plan_outline(flat._grown_steps)
            if prepared:
                outline = [(sim._Prepared, k), *outline[k:]]
            assert plan_outline(c._grown_steps) == outline
            assert ("_forward" in vars(pyramid)) != prepared
            assert sim.run(c).amplitudes.tobytes() == sim.run(flat).amplitudes.tobytes()
            np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)

    def test_nan_angle_in_a_prepared_state_raises(self):
        # the NaN reaches the prepared state, and the run's norm check
        c = sim.Circuit(3, [sim.Pyramid([0.3, np.nan, 0.2], (1, 2)), sim.h(0)])
        assert plan_outline(c._grown_steps)[0] == (sim._Prepared, 2)
        with pytest.raises(CircuitError, match="squared norm"):
            sim.run(c)

    def test_pyramids_after_touched_qubits(self):
        # the swap test loads b's pyramid above a's; amp -> EW runs F's
        # pyramid on the work register after the index H layer, and its
        # adjoint in the uncompute
        rng = np.random.default_rng(74)
        for n in (1, 2, 3):
            a = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            b = np.abs(rng.normal(size=1 << n))
            load_a = loaders.load_amplitude(a / np.linalg.norm(a)).circuit
            load_b = loaders.load_amplitude(b / np.linalg.norm(b)).circuit
            result = extractors.swap_test(load_a, load_b, 0, 1)
            overlap = abs(np.vdot(a / np.linalg.norm(a), b / np.linalg.norm(b))) ** 2
            assert result.p0_exact == pytest.approx(0.5 + overlap / 2, abs=EQUIV_ATOL)
        for a in (np.sqrt([0.1, 0.2, 0.3, 0.4]), rng.normal(size=4) + 1j * rng.normal(size=4)):
            c = converters.convert_amplitude_to_ew(loaders.load_amplitude(a / np.linalg.norm(a)).circuit, 3)
            assert sum(type(i) is sim.Pyramid for i in c.items) == 2
            np.testing.assert_allclose(sim.run(c).amplitudes, gate_loop(c), rtol=0, atol=EQUIV_ATOL)

    def test_qae_expands_its_load_once(self, monkeypatch):
        # the Grover period reads F's stages and their adjoints, and the
        # adjoint pyramid takes its stages from F's
        made, original = [], sim.multiplexed_ry
        monkeypatch.setattr(sim, "multiplexed_ry", lambda *args: made.append(args[2]) or original(*args))
        a = np.sqrt([0.1, 0.2, 0.3, 0.05, 0.05, 0.1, 0.15, 0.05])
        f = loaders.load_amplitude(a).circuit
        c = extractors.qae_circuit(f, 4)
        sim.run(c)
        assert made == [] and c.items[0] is f.items[0]  # the plan expands no stage
        c.gates
        assert len(made) == 3

    def test_multiply_step_keeps_the_mean_and_layout_of_numpy(self):
        # the diagonal's factors, byte for byte, as np.mean and a transpose
        # into view order give them, for registers in and out of view order
        rng = np.random.default_rng(75)
        for n in range(1, 10):
            for qubits in (tuple(range(n)), tuple(int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))])):
                for inverted in (False, True):
                    d = sim.Diagonal(rng.uniform(-np.pi, np.pi, 1 << len(qubits)), qubits, inverted)
                    step = sim._multiply_step(d, qubits, n)
                    phases = d.phases - np.mean(d.phases)
                    factors = np.exp(-1j * phases if inverted else 1j * phases)
                    axes = sim._axes(qubits)[::-1]
                    order = sorted(range(len(axes)), key=axes.__getitem__)
                    expected = np.ascontiguousarray(factors.reshape((2,) * len(qubits)).transpose(order))
                    assert step.factors.tobytes() == expected.tobytes()
                    assert step.factors.size == 1 << len(qubits) and step.factors.flags.c_contiguous


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

    def test_width_is_a_plain_int(self):
        # a numpy integer width is stored as an int, so that json takes it
        for state in (sim.zero_state(np.int64(2)), sim.StateVector(np.int64(1), [1, 0])):
            assert type(state.n_qubits) is int
            assert json.dumps(state.n_qubits) == str(state.n_qubits)

    def test_amplitude_count_must_match_the_width(self):
        with pytest.raises(CircuitError, match="needs 4 amplitudes"):
            sim.StateVector(2, [1.0, 0.0])

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
                u = kron_embed(closed_form(g), g.qubits, n)
                np.testing.assert_allclose(u @ u.conj().T, np.eye(1 << n), atol=1e-10)

    def test_permutation_rejects_non_bijection(self):
        with pytest.raises(CircuitError):
            sim.permutation([0, 0, 1, 2], [0, 1])

    def test_permutation_table_length_is_checked_before_the_identity_is_made(self):
        # a two-entry table on 20 qubits used to build the 2**20-entry
        # identity list (40 MiB) before it was refused
        tracemalloc.start()
        try:
            with pytest.raises(CircuitError, match="bijection"):
                sim.permutation([0, 1], range(20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

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
            lambda: sim.Gate("mry", (0, 1), angles=(0.1,)),
            # a qubit below 0, made or reached by a shift, outside any circuit
            lambda: sim.x(-1),
            lambda: sim.x(0).shifted(-1),
            lambda: sim.Repeat((sim.h(0), sim.cnot(0, 1)), 2).shifted(-1),
            lambda: sim.Qft((0, 1)).shifted(-1),
            # a table that is no integers, or an angle that is no real
            # number, used to run, or to fail only when run
            lambda: sim.Gate("perm", (0,), table=(1.0, 0.0)),
            lambda: sim.Gate("perm", (0,), table=(True, False)),
            lambda: sim.permutation([1.5, 0], [0]),
            lambda: sim.Gate("ry", (0,), angle="0.3"),
            lambda: sim.Gate("ry", (0,), angle=1j),
            lambda: sim.Gate("p", (0,), angle=True),
            lambda: sim.Gate("mry", (0, 1), angles=("a", "b")),
            lambda: sim.ry("a", 0),
            lambda: sim.multiplexed_ry(np.array([0.1, 1j]), [0], 1),
        ],
    )
    def test_gates_that_cannot_run_are_refused(self, make):
        with pytest.raises(CircuitError):
            make()

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: sim.Gate("mry", (0, 1), angles=5), "angles must be a sequence of real numbers, got 5"),
            (lambda: sim.Gate("perm", (0,), table=5), "permutation table must be a bijection of integers on basis indices, got 5"),
            (lambda: sim.ry(10**400, 0), "is too large for a float"),
        ],
    )
    def test_angles_or_tables_that_are_no_sequence_and_huge_angles_are_refused(self, make, message):
        with pytest.raises(CircuitError, match=message):
            make()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: sim.Gate("x", (0,), angle=0.3),
            lambda: sim.Gate("h", (0,), table=(1, 0)),
            lambda: sim.Gate("ry", (0,), angle=0.1, angles=(0.2,)),
            lambda: sim.Gate("p", (0,), angle=0.1, table=(0, 1)),
            lambda: sim.Gate("cnot", (0, 1), angles=(0.1,)),
            lambda: sim.Gate("swap", (0, 1), angle=0.0),
            lambda: sim.Gate("mry", (0,), angles=(0.1,), angle=0.2),
            lambda: sim.Gate("perm", (0,), table=(1, 0), angles=(0.0,)),
        ],
    )
    def test_a_gate_sets_only_the_field_its_kind_reads(self, make):
        # such a gate ran as the gate without the field, yet compared
        # unequal to it, and its inverse carried the field along
        with pytest.raises(CircuitError, match="takes no"):
            make()

    def test_tables_and_angles_are_kept_as_plain_numbers(self):
        g = sim.Gate("perm", (0, 1), table=np.array([1, 2, 3, 0]))
        assert g.table == (1, 2, 3, 0) and {type(i) for i in g.table} == {int}
        assert g == sim.permutation([1, 2, 3, 0], [0, 1]) and g.inverse().table == (3, 0, 1, 2)
        for g in (sim.ry(np.float32(0.5), 0), sim.Gate("p", (0,), angle=1), sim.cp(np.int64(2), 0, 1),
                  sim.Gate("mry", (0, 1), angles=[np.int64(1), 0.5]), sim.multiplexed_ry(np.arange(2), [0], 1)):
            assert {type(a) for a in g.angles or (g.angle,)} == {float}

    def test_cp_takes_one_or_more_controls(self):
        g = sim.Gate("cp", (3, 0, 1), angle=0.4)
        u = np.eye(8, dtype=np.complex128)
        u[7, 7] = np.exp(0.4j)  # every qubit reads 1
        np.testing.assert_allclose(closed_form(g), u, rtol=0, atol=1e-15)
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

    @pytest.mark.parametrize("n", [1, 3, 10, 16])
    def test_counts_are_the_histogram_of_numpy_choice_and_of_the_records(self, n):
        # sample_counts looks its uniforms up sorted, which no histogram can
        # tell from draw order.  Oracles: numpy's own draws, as in
        # test_draws_match_numpy_choice, and sample_shots' records, on a
        # state that is exactly zero at both ends (one end at n = 1).
        rng = np.random.default_rng(89 + n)
        amps = random_state(rng, n).amplitudes * 3.0
        amps[0 if n == 1 else [0, -1]] = 0.0
        s = sim.state_from_amplitudes(amps)
        probs = np.abs(s.amplitudes) ** 2
        registers = {
            "top": tuple(range(n // 2, n)),  # as qae's phase register
            "low": tuple(range((n + 1) // 2)),
            "gapped": tuple(range(0, n, 2)),
            "down": tuple(range(n - 1, -1, -1)),
            "empty": (),
        }
        for shots, seed in itertools.product((1, 7, 1024, 8192), (0, 77, 78)):
            draws = np.random.Generator(np.random.PCG64(seed)).choice(probs.size, size=shots, p=probs / probs.sum())
            records = sim.sample_shots(s, registers, shots, seed)
            for name, qs in registers.items():
                outcomes = np.zeros(shots, dtype=np.int64)
                for j, q in enumerate(qs):
                    outcomes |= ((draws >> q) & 1) << j
                counts = sim.sample_counts(s, qs, shots, seed)
                np.testing.assert_array_equal(counts, np.bincount(outcomes, minlength=1 << len(qs)))
                recorded = [r.measured_bits[name] for r in records]
                np.testing.assert_array_equal(counts, np.bincount(recorded, minlength=1 << len(qs)))

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

    @pytest.mark.parametrize("registers", [[("a", (0,))], None])
    def test_shot_registers_are_a_mapping(self, registers):
        with pytest.raises(CircuitError, match="registers map names"):
            sim.sample_shots(sim.zero_state(2), registers, 10, 1)

    def test_shots_leave_the_collector_as_they_found_it(self):
        # The records are made with the cyclic collector paused; a call,
        # made or refused, turns it back on only if it was on.
        state = random_state(RNG, 3)
        refused = (
            ({"r": (3,)}, 5, 1),
            ({"ok": (0,), "r": (0, 0)}, 5, 1),
            ({"r": (0,)}, 0, 1),
            ({"r": (0,)}, 5, -1),
        )
        was_enabled = gc.isenabled()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                assert len(sim.sample_shots(state, {"r": (0, 2)}, 40, 3)) == 40
                assert gc.isenabled() is enabled
                for registers, shots, seed in refused:
                    with pytest.raises(CircuitError):
                        sim.sample_shots(state, registers, shots, seed)
                    assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()


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
        np.testing.assert_allclose(closed_form(g), controlled(ry_matrix(0.7)), rtol=0, atol=1e-15)
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
        for bad in (sim.cry(0.1, 0, 3), sim.permutation([1, 0], [4])):
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


# Each use puts a pair of qubits to work on a 2-qubit width: as the wires of
# every item kind inside a circuit, as a register, or as the register of a
# marginal or a draw.
QUBIT_USES = {
    "gate": lambda qs: sim.Circuit(2, [sim.Gate(sim.SWAP, qs)]),
    "cnot": lambda qs: sim.Circuit(2, [sim.cnot(*qs)]),
    "cp": lambda qs: sim.Circuit(2, [sim.cp(0.3, *qs)]),
    "mry": lambda qs: sim.Circuit(2, [sim.multiplexed_ry([0.1, 0.2], qs[:1], qs[1])]),
    "perm": lambda qs: sim.Circuit(2, [sim.permutation([0, 2, 1, 3], qs)]),
    "controlled_swap": lambda qs: sim.Circuit(2, [sim.controlled_swap((), 0, *qs)]),
    "repeat": lambda qs: sim.Circuit(2, [sim.Repeat((sim.cnot(*qs),), 2)]),
    "diagonal": lambda qs: sim.Circuit(2, [sim.Diagonal([0.0, 0.1, 0.2, 0.3], qs)]),
    "qft": lambda qs: sim.Circuit(2, [sim.Qft(qs)]),
    "register": lambda qs: sim.Circuit(2, [], {"a": qs}),
    "marginal": lambda qs: sim.marginal_probabilities(sim.zero_state(2), qs),
    "sample_shots": lambda qs: sim.sample_shots(sim.zero_state(2), {"a": qs}, 4, 0),
    "sample_counts": lambda qs: sim.sample_counts(sim.zero_state(2), qs, 4, 0),
}
BAD_QUBITS = {
    "float": (0, 1.0),
    "bool": (0, True),
    "string": (0, "1"),
    "repeated": (1, 1),
    "out of range": (0, 2),
    "negative": (-1, 0),
}


class TestQubitCheck:
    """Every qubit tuple goes through ``sim._check_qubits``: gates, blocks,
    registers, marginals and draws refuse the same inputs the same way."""

    @pytest.mark.parametrize("qubits", BAD_QUBITS.values(), ids=BAD_QUBITS)
    @pytest.mark.parametrize("use", QUBIT_USES)
    def test_bad_qubits_raise_circuit_error(self, use, qubits):
        with pytest.raises(CircuitError):
            QUBIT_USES[use](qubits)

    @pytest.mark.parametrize("use", QUBIT_USES)
    def test_numpy_integers_become_plain_ints(self, use):
        got = QUBIT_USES[use]((np.int64(0), np.uint8(1)))
        want = QUBIT_USES[use]((0, 1))
        if type(got) is sim.Circuit:
            assert got == want and got.items == want.items
            for qubits in [*(i.qubits for i in got.items), *got.registers.values()]:
                assert {type(q) for q in qubits} <= {int}
        elif type(got) is list:
            assert got == want
        else:
            np.testing.assert_array_equal(got, want)

    def test_gates_check_their_qubits_when_made(self):
        for make in (lambda: sim.h(1.0), lambda: sim.x(True), lambda: sim.Gate(sim.X, 0), lambda: sim.ry(0.1, None)):
            with pytest.raises(CircuitError):
                make()
        assert sim.h(np.int64(1)) == sim.h(1) and type(sim.h(np.int64(1)).qubits[0]) is int

    def test_inverse_and_shift_skip_the_check_and_equal_checked_gates(self, monkeypatch):
        # an adjoint and a plain-int shift of a checked gate are built
        # without the qubit check; they equal the gates made through it
        rng = np.random.default_rng(61)
        gates = [random_gate(rng, 4) for _ in range(40)]
        repeat = sim.Repeat(tuple(gates[:5]), 3)
        monkeypatch.setattr(sim, "_check_qubits", lambda *a: pytest.fail("a checked gate was checked again"))
        inverses = [g.inverse() for g in gates]
        shifts = [g.shifted(3) for g in gates]
        inverse_repeat = repeat.inverse()
        monkeypatch.undo()
        for g, inv, moved in zip(gates, inverses, shifts):
            # dataclasses.replace makes the gate anew, through the check
            assert inv == replace(inv) and moved == replace(g, qubits=tuple(q + 3 for q in g.qubits))
            np.testing.assert_allclose(closed_form(inv), closed_form(g).conj().T, rtol=0, atol=EQUIV_ATOL)
        assert inverse_repeat.inverted and inverse_repeat == sim.Repeat(repeat.period, 3, inverted=True)
        assert inverse_repeat.period == repeat.period and inverse_repeat.qubits == repeat.qubits
        assert inverse_repeat.gates == sim._inverted(repeat.gates)
        # an offset that is not a plain int goes through Gate.on, and is checked
        assert {type(q) for q in gates[0].shifted(np.int64(2)).qubits} == {int}

    @pytest.mark.parametrize("width", [2.0, True, False, 0, -1, "2", None])
    def test_circuit_width_is_an_integer_of_at_least_one(self, width):
        with pytest.raises(CircuitError):
            sim.Circuit(width)

    @pytest.mark.parametrize("registers", [[1], 5, [("a", (0,))], None])
    def test_registers_are_a_mapping(self, registers):
        with pytest.raises(CircuitError, match="registers map names"):
            sim.Circuit(1, (), registers)

    @pytest.mark.parametrize("make", [lambda: sim.Circuit(2, 5), lambda: sim.Circuit(2, None),
                                      lambda: sim.Reflection(5, (0,))], ids=["circuit-int", "circuit-none", "reflection-int"])
    def test_items_are_a_sequence(self, make):
        with pytest.raises(CircuitError, match="neither a gate nor a declared block"):
            make()

    @pytest.mark.parametrize("count", [-3, 1.5, "x", True, None])
    def test_query_count_is_an_integer_of_at_least_zero(self, count):
        with pytest.raises(CircuitError, match="query count"):
            sim.Circuit(1, (), {}, count)

    def test_query_count_is_kept_as_a_plain_int(self):
        c = sim.Circuit(1, (), {}, np.int64(2))
        assert type(c.query_count) is int and c.concat(c).query_count == 4 and sim.Circuit(1).query_count == 0

    def test_concat_keeps_both_circuits_registers(self):
        a = sim.Circuit(3, [sim.h(0)], {"a": (0,)})
        b = sim.Circuit(3, [sim.x(1)], {"b": (1, 2)})
        assert a.concat(b).registers == {"a": (0,), "b": (1, 2)}
        assert b.concat(a).registers == {"b": (1, 2), "a": (0,)}
        assert a.concat(a).registers == {"a": (0,)} and sim.Circuit(3).concat(b).registers == b.registers
        with pytest.raises(CircuitError, match="'a' is bound to different qubits"):
            a.concat(sim.Circuit(3, [], {"a": (1,)}))
        with pytest.raises(CircuitError, match="overlap"):
            a.concat(sim.Circuit(3, [], {"c": (2, 0)}))

    def test_concat_needs_equal_widths(self):
        with pytest.raises(CircuitError, match="different widths"):
            sim.Circuit(2, [sim.h(0)]).concat(sim.Circuit(3))

    def test_a_circuit_equals_only_circuits(self):
        assert sim.Circuit(1).__eq__(5) is NotImplemented
        assert sim.Circuit(1) != 5 and sim.Circuit(1) == sim.Circuit(1)


class TestDeferredExpansion:
    """A circuit stores its items; its flat list, and each block's
    expansion, are made on first read and never by a run."""

    def test_running_a_complex_load_never_expands_its_diagonal(self):
        rng = np.random.default_rng(66)
        n = 5
        a = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        c = loaders.load_amplitude(a / np.linalg.norm(a)).circuit
        pyramid, d = c.items
        assert (type(pyramid), type(d)) == (sim.Pyramid, sim.Diagonal)
        sim.run(c)
        assert "_forward" not in vars(pyramid) and "_forward" not in vars(d) and "gates" not in vars(c)
        assert c.gates == (*pyramid.gates, *d.gates) and len(c.gates) == n + 5 * n
        flat = sim.Circuit(n, list(c.gates), c.registers)
        assert c == flat and (c.depth, c.cnot_count) == (flat.depth, flat.cnot_count)
        assert (c.depth, c.cnot_count) == (c.lowered().depth, sum(g.kind == sim.CNOT for g in c.lowered().gates))

    def test_item_protocol(self):
        # every item, and a reflection alone and in a ladder's period:
        # built at qubit offset 0 and 3 from the same values
        rng = np.random.default_rng(67)
        phases, angles = rng.uniform(size=4), rng.uniform(size=7)

        def items(o):
            g = sim.cry(0.4, o, 2 + o)
            reflection = sim.Reflection((sim.Pyramid(angles, (o, 1 + o, 2 + o)), sim.Diagonal(phases, (2 + o, o))),
                                        (o, 1 + o, 2 + o))
            ladder = sim.Repeat((sim.p(0.3, o), reflection), 1, (3 + o, 4 + o))
            return [g, sim.Repeat((g, sim.h(1 + o)), 2), reflection, ladder, sim.Diagonal(phases, (2 + o, o)),
                    sim.Qft((1 + o, o)), sim.Pyramid(angles, (2 + o, o, 1 + o))]

        for forward, built_forward in zip(items(0), items(3)):
            assert forward.inverse().inverse() == forward
            assert forward.inverse().gates == sim._inverted(forward.gates)
            if type(forward) is sim.Repeat:  # its fields describe the forward repeat
                assert forward.inverse().period == forward.period
            # a shifted adjoint equals, and hashes as, the adjoint built on the moved qubits
            for item, built in ((forward, built_forward), (forward.inverse(), built_forward.inverse())):
                moved = item.shifted(3)
                assert moved == built and hash(moved) == hash(built)
                assert moved.qubits == tuple(q + 3 for q in item.qubits)
                assert moved.gates == tuple(x.on([q + 3 for q in x.qubits]) for x in item.gates)
                if type(item) is not sim.Reflection:  # met only in a repeat's period
                    assert sim.Circuit(5, [item.inverse()]) == sim.Circuit(5, [item]).inverse()
        g = items(0)[0]
        assert g.gates == (g,) and g.on((5, 4)) == sim.cry(0.4, 5, 4)

    @pytest.mark.parametrize("flag", [0.0, 1, "no", None, np.bool_(True)])
    def test_inverted_is_a_bool_in_every_block(self, flag):
        f = (sim.Pyramid([0.3], (0,)),)
        for make in (
            lambda: sim.Reflection(f, (0,), flag),
            lambda: sim.Repeat((sim.h(0),), 1, (), flag),
            lambda: sim.Diagonal([0.1, 0.2], (0,), flag),
            lambda: sim.Pyramid([0.3], (0,), flag),
            lambda: sim.Qft((0, 1), flag),
        ):
            with pytest.raises(CircuitError, match="inverted must be a bool"):
                make()

    def test_equal_blocks_hash_equal(self):
        # arrays that differ only in the sign of a zero are equal, so the
        # blocks that hold them hash equal too
        for a, b in ((sim.Pyramid([0.3, 0.0, 0.5], (0, 1)), sim.Pyramid([0.3, -0.0, 0.5], (0, 1))),
                     (sim.Diagonal([0.3, 0.0, 0.5, 0.1], (0, 1)), sim.Diagonal([0.3, -0.0, 0.5, 0.1], (0, 1)))):
            assert a == b and hash(a) == hash(b) and len({a, b}) == 1
            assert a.inverse() == b.inverse() and hash(a.inverse()) == hash(b.inverse())


class TestControlledSwap:
    def test_fredkin_table(self):
        assert sim.cswap(0, 1, 2).table == (0, 1, 2, 5, 4, 3, 6, 7)

    def test_matches_projector_oracle(self):
        # SWAP on the subspace where the controls read the pattern, the
        # identity elsewhere, from Kronecker products of projectors; the
        # local index has the controls as its low bits, then a, then b
        proj = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        swap = np.eye(4)[[0, 2, 1, 3]]
        for k in range(4):
            for pattern in range(1 << k):
                on = np.ones((1, 1))
                for i in reversed(range(k)):
                    on = np.kron(on, proj[(pattern >> i) & 1])
                expected = np.kron(swap - np.eye(4), on) + np.eye(4 << k)
                got = closed_form(sim.controlled_swap(tuple(range(k)), pattern, k, k + 1))
                np.testing.assert_array_equal(got, expected)
