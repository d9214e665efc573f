import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enqode import encodings as enc
from enqode import loaders, sim
from enqode.errors import CapacityError, DecodeError, EncodingError
from enqode.tolerances import ATOL_DECODE, EQUIV_ATOL, NORM_ATOL


class TestDataSet:
    def test_probability_vector_invariants(self):
        enc.probabilities([0.25, 0.75])
        with pytest.raises(EncodingError):
            enc.probabilities([0.5, 0.6])
        with pytest.raises(EncodingError):
            enc.probabilities([-0.1, 1.1])

    def test_real_kinds_refuse_an_imaginary_part(self):
        # numpy used to drop it with only a ComplexWarning, while the
        # domain rule refuses the same values
        assert enc.validate(enc.Angle(1), [0.5 + 1j]) == ["requires a real vector"]
        for make, values in ((enc.reals, [3 - 4j]), (enc.probabilities, [0.5 + 1j, 0.5])):
            with pytest.raises(EncodingError, match="requires a real vector"):
                make(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert enc.reals([3 + 0j, 1]).values.tolist() == [3.0, 1.0]
            assert enc.probabilities(np.array([0.5, 0.5], dtype=complex)).values.dtype == np.float64

    def test_normalized_vector_invariant(self):
        enc.normalized([2**-0.5, 1j * 2**-0.5])
        with pytest.raises(EncodingError):
            enc.normalized([1.0, 1.0])

    def test_integers_are_read_by_the_domain_rule(self):
        # A tagged integer set refuses 2.7 as the plain value is refused,
        # instead of storing 2.
        assert enc.validate(enc.Basis(3), 2.7) == ["value 2.7 is not an integer"]
        for bad in ([2.7], [1, np.nan], [2 + 1j]):
            with pytest.raises(EncodingError, match="is not an integer"):
                enc.integers(bad)
        for make, text in ((enc.integers, ["3"]), (enc.reals, ["0.5"])):  # strings are not numbers either
            with pytest.raises(EncodingError, match="expected numbers"):
                make(text)
        assert enc.integers([3.0, 2]).values.tolist() == [3, 2]
        assert enc.validate(enc.Basis(3), enc.integers([3.0])) == []


class TestReferenceStates:
    def test_basis(self):
        st_ = enc.reference_state(enc.Basis(3), 5)
        assert st_.amplitudes[5] == 1.0 and np.count_nonzero(st_.amplitudes) == 1

    def test_angle_single(self):
        st_ = enc.reference_state(enc.Angle(1), enc.reals([np.pi / 4]))
        np.testing.assert_allclose(st_.amplitudes, [np.cos(np.pi / 4), np.sin(np.pi / 4)])

    def test_equally_weighted(self):
        st_ = enc.reference_state(enc.EquallyWeighted(2), enc.integers([0, 3]))
        np.testing.assert_allclose(st_.amplitudes, [2**-0.5, 0, 0, 2**-0.5])

    def test_fourier_one_qubit(self):
        st_ = enc.reference_state(enc.Fourier(1), 1)
        np.testing.assert_allclose(st_.amplitudes, [2**-0.5, -(2**-0.5)], atol=1e-12)

    def test_fourier_phase_law(self):
        # qubit k carries phase 2*pi*(x mod 2^(m-k))/2^(m-k)
        for m in range(1, 7):
            for x in range(1 << m):
                amps = enc.reference_state(enc.Fourier(m), x).amplitudes
                for k in range(m):
                    span = 1 << (m - k)
                    expected = 2 * np.pi * (x % span) / span
                    got = np.angle(amps[1 << k] / amps[0]) % (2 * np.pi)
                    assert min(abs(got - expected), abs(got - expected + 2 * np.pi),
                               abs(got - expected - 2 * np.pi)) < 1e-10

    def test_amplitude_padding(self):
        st_ = enc.reference_state(enc.Amplitude(2), enc.normalized([1.0]))
        np.testing.assert_allclose(st_.amplitudes, [1, 0, 0, 0])

    def test_multi_register(self):
        st_ = enc.reference_state(enc.MultiRegister(2, 2), enc.integers([3, 1]))
        assert st_.amplitudes[3 | (1 << 2)] == 1.0

    def test_qram_uniform_entangled(self):
        st_ = enc.reference_state(enc.QRam(2, 2), enc.integers([1, 0, 3, 2]))
        for i, v in enumerate([1, 0, 3, 2]):
            assert st_.amplitudes[i | (v << 2)] == pytest.approx(0.5)

    def test_probability_amplitude_semantics(self):
        rng = np.random.default_rng(0)
        p = rng.random(8)
        p /= p.sum()
        st_ = enc.reference_state(enc.Amplitude(3), enc.normalized(np.sqrt(p)))
        np.testing.assert_allclose(
            sim.marginal_probabilities(st_, range(3)), p, atol=1e-12
        )

    def test_entangled_independent_factorizes(self):
        d = enc.Entangled((enc.Basis(2), enc.Angle(1)))
        st_ = enc.reference_state(d, [enc.integers([2]), enc.reals([0.3])])
        target = np.kron(
            enc.reference_state(enc.Angle(1), enc.reals([0.3])).amplitudes,
            enc.reference_state(enc.Basis(2), 2).amplitudes,
        )
        np.testing.assert_allclose(st_.amplitudes, target, atol=1e-12)

    def test_joint_entangled_descriptor_only(self):
        d = enc.Entangled((enc.Basis(1), enc.Basis(1)), joint=True)
        with pytest.raises(EncodingError):
            enc.reference_state(d, [1, 1])

    def test_norm_one(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        a /= np.linalg.norm(a)
        st_ = enc.reference_state(enc.Amplitude(3), enc.normalized(a))
        assert abs(st_.norm_sq - 1.0) < 1e-12

    def test_capacity_checked_before_allocation(self):
        for d, data in (
            (enc.Basis(30), 3),
            (enc.Angle(30), np.zeros(30)),
            (enc.Amplitude(25), enc.normalized([1.0])),
        ):
            with pytest.raises(CapacityError):
                enc.reference_state(d, data)

    def test_states_own_read_only_arrays(self):
        # a reference state keeps the array it builds, read-only; an array
        # a caller passes in is still copied
        a = np.sqrt([0.1, 0.2, 0.3, 0.4]).astype(np.complex128)
        cases = [
            (enc.Basis(3), 5),
            (enc.Angle(2), enc.reals([0.3, 1.1])),
            (enc.Fourier(3), 5),
            (enc.MultiRegister(2, 2), enc.integers([3, 1])),
            (enc.EquallyWeighted(2), enc.integers([0, 3])),
            (enc.Amplitude(2), a),
            (enc.DivideConquer(2), enc.reals(a.real)),
            (enc.QRam(2, 2), enc.integers([1, 0, 3, 2])),
            (enc.Entangled((enc.Basis(2), enc.Angle(1))), [enc.integers([2]), enc.reals([0.3])]),
        ]
        for d, data in cases:
            amps = enc.reference_state(d, data).amplitudes
            assert amps.shape == (1 << enc.register_width(d),) and amps.dtype == np.complex128
            with pytest.raises(ValueError):
                amps[0] = 0.0
        assert not np.shares_memory(enc.reference_state(enc.Amplitude(2), a).amplitudes, a)
        assert not np.shares_memory(sim.state_from_amplitudes(a).amplitudes, a)
        assert a.flags.writeable

    def test_divide_conquer_reference_is_loader_output(self):
        a = np.sqrt([0.1, 0.2, 0.3, 0.4])
        st_ = enc.reference_state(enc.DivideConquer(2), enc.reals(a))
        marg = sim.marginal_probabilities(st_, (0, 1))
        np.testing.assert_allclose(marg, [0.1, 0.2, 0.3, 0.4], atol=1e-9)


class TestValidate:
    def test_amplitude_ok(self):
        assert enc.validate(enc.Amplitude(2), enc.normalized([0.5] * 4)) == []

    def test_amplitude_not_normalized(self):
        out = enc.validate(enc.Amplitude(2), [1.0, 1.0, 0.0, 0.0])
        assert out and "not normalized" in out[0]

    def test_angle_out_of_range(self):
        out = enc.validate(enc.Angle(1), [2.0])
        assert out and "outside [0, pi/2]" in out[0]

    def test_basis_range(self):
        assert enc.validate(enc.Basis(3), 7) == []
        assert enc.validate(enc.Basis(3), 8) != []

    @pytest.mark.parametrize(
        "d, data",
        [
            (enc.Basis(3), 2.7),
            (enc.Basis(3), enc.reals([1.5])),
            (enc.Basis(3), np.nan),
            (enc.Fourier(3), 2.5),
            (enc.MultiRegister(2, 2), [1, 2.5]),
            (enc.EquallyWeighted(2), [1, 2.5]),
            (enc.QRam(1, 2), [0, 1.5]),
            (enc.QRam(1, 2), [0, 1 + 1j]),
        ],
    )
    def test_integer_domains_reject_non_integral_values(self, d, data):
        # int() used to truncate 2.7 to 2, so validate accepted it
        violations = enc.validate(d, data)
        assert violations and "is not an integer" in violations[0]
        with pytest.raises(EncodingError):
            enc.reference_state(d, data)

    def test_integral_floats_are_integers(self):
        assert enc.validate(enc.Basis(3), 5.0) == []
        assert enc.decode(enc.Basis(3), enc.reference_state(enc.Basis(3), 5.0)) == 5
        assert enc.validate(enc.QRam(1, 2), enc.reals([3.0, 1.0])) == []

    def test_mapped_basis_bijection(self):
        # a table that is not a bijection cannot be built, so decode never
        # meets one (it used to raise a bare KeyError)
        good = enc.MappedBasis(1, (("a", 0), ("b", 1)))
        assert enc.validate(good, "a") == []
        for g in ((("a", 0), ("b", 0)), (("a", 0), ("a", 1)), (("a", 0),), (("a", 0), ("b", 1), ("c", 2))):
            with pytest.raises(EncodingError):
                enc.MappedBasis(1, g)

    def test_mapped_basis_table_is_normalized(self):
        # a table given as lists used to be unhashable, unequal to the same
        # table given as tuples, and failed the JSON round trip
        listed = enc.MappedBasis(1, [["a", 0], ["b", np.int64(1)]])
        tupled = enc.MappedBasis(1, (("a", 0), ("b", 1)))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert enc.descriptor_from_json(enc.descriptor_to_json(listed)) == tupled
        assert enc.decode(listed, enc.reference_state(listed, "b")) == "b"
        for g in ([["a", 0], ["b"]], [[["a"], 0], ["b", 1]], [["a", 0.0], ["b", 1]], None):
            with pytest.raises(EncodingError):
                enc.MappedBasis(1, g)

    @pytest.mark.parametrize(
        "d, data, load",
        [
            (enc.Angle(1), [0.1 + 1j], loaders.load_angle),
            (enc.Angle(1), ["a"], loaders.load_angle),
            (enc.Angle(2), [[0.1, 0.2]], loaders.load_angle),
            (enc.Amplitude(1), ["a", "b"], loaders.load_amplitude),
            (enc.Amplitude(2), [[0.5, 0.5], [0.5, 0.5]], loaders.load_amplitude),
            (enc.EquallyWeighted(2), [[0, 1], [2, 3]], lambda xs: loaders.load_equally_weighted(xs, 2)),
            (enc.QRam(2, 2), [[0, 1], [2, 3]], lambda xs: loaders.qram_oracle(xs, 2)),
            (enc.MultiRegister(2, 2), [[0, 1]], None),
            (enc.MultiRegister(2, 2), [[0], [1, 2]], None),
            (enc.MappedBasis(1, (("a", 0), ("b", 1))), ["a"], None),
            (enc.Basis(2), [3], None),
            (enc.Amplitude(1), [0.6, 0.8, 0.0], loaders.load_amplitude),
            (enc.DivideConquer(1), [0.6, -0.8], None),
            (enc.Entangled((enc.Basis(1), enc.Basis(1))), [1], None),
        ],
        ids=["complex-angle", "string-angle", "2d-angle", "string-amplitude", "2d-amplitude",
             "2d-equally-weighted", "2d-qram", "2d-multi-register", "ragged", "unhashable-mapped",
             "list-basis", "too-many-amplitudes", "negative-divide-conquer", "entangled-count"],
    )
    def test_malformed_data_is_a_violation(self, d, data, load):
        # each used to pass validate or raise a bare TypeError, ValueError
        # or UFuncTypeError
        assert enc.validate(d, data) != []
        with pytest.raises(EncodingError):
            enc.reference_state(d, data)
        if load is not None:
            with pytest.raises(EncodingError):
                load(data)

    def test_angle_accepts_complex_values_with_zero_imaginary_parts(self):
        assert enc.validate(enc.Angle(2), [0.3 + 0j, 1.2 + 0j]) == []
        np.testing.assert_array_equal(
            enc.reference_state(enc.Angle(2), [0.3 + 0j, 1.2 + 0j]).amplitudes,
            enc.reference_state(enc.Angle(2), [0.3, 1.2]).amplitudes,
        )

    def test_empty_iff_reference_succeeds(self):
        rng = np.random.default_rng(2)
        cases = [
            (enc.Basis(2), 3),
            (enc.Basis(2), 4),
            (enc.Angle(2), enc.reals([0.1, 0.2])),
            (enc.Angle(2), enc.reals([0.1, 3.0])),
            (enc.Amplitude(2), [0.6, 0.8, 0, 0]),
            (enc.Amplitude(2), [1.0, 1.0, 0, 0]),
            (enc.QRam(1, 1), enc.integers([0, 1])),
            (enc.QRam(1, 1), enc.integers([0, 2])),
        ]
        for d, data in cases:
            violations = enc.validate(d, data)
            if violations:
                with pytest.raises(EncodingError):
                    enc.reference_state(d, data)
            else:
                enc.reference_state(d, data)


class TestDecode:
    def test_basis_roundtrip(self):
        assert enc.decode(enc.Basis(3), enc.reference_state(enc.Basis(3), 5)) == 5

    def test_basis_superposition_rejected(self):
        bell = sim.state_from_amplitudes([2**-0.5, 0, 0, 2**-0.5])
        with pytest.raises(DecodeError):
            enc.decode(enc.Basis(2), bell)

    def test_amplitude_identity(self):
        s = sim.state_from_amplitudes([0.5] * 4)
        out = enc.decode(enc.Amplitude(2), s)
        np.testing.assert_allclose(out.values, [0.5] * 4)

    def test_fourier_roundtrip_all(self):
        for m in range(1, 7):
            for x in range(1 << m):
                assert enc.decode(enc.Fourier(m), enc.reference_state(enc.Fourier(m), x)) == x

    def test_fourier_rejects_basis_state(self):
        with pytest.raises(DecodeError):
            enc.decode(enc.Fourier(2), sim.basis_state(2, 1))

    def test_angle_roundtrip(self):
        thetas = enc.reals([0.2, 1.1, 0.7])
        out = enc.decode(enc.Angle(3), enc.reference_state(enc.Angle(3), thetas))
        np.testing.assert_allclose(out.values, thetas.values, atol=1e-9)

    def test_angle_wide_roundtrip(self):
        thetas = np.random.default_rng(34).uniform(0, np.pi / 2, 18)
        state = sim.run(loaders.load_angle(thetas).circuit)
        out = enc.decode(enc.Angle(18), state)
        np.testing.assert_allclose(out.values, thetas, rtol=0, atol=ATOL_DECODE)
        amps = state.amplitudes.copy()
        amps[5] = np.nan
        with pytest.raises(DecodeError):
            enc.decode(enc.Angle(18), sim.state_from_amplitudes(amps))

    def test_mapped_basis_roundtrip(self):
        d = enc.MappedBasis(2, ((-2, 0), (-1, 1), (0, 2), (1, 3)))
        assert enc.decode(d, enc.reference_state(d, -1)) == -1

    def test_equally_weighted_roundtrip(self):
        d = enc.EquallyWeighted(3)
        data = enc.integers([1, 4, 6])
        out = enc.decode(d, enc.reference_state(d, data))
        assert out.values.tolist() == [1, 4, 6]

    def test_qram_roundtrip(self):
        d = enc.QRam(2, 3)
        table = enc.integers([5, 0, 7, 2])
        out = enc.decode(d, enc.reference_state(d, table))
        assert out.values.tolist() == [5, 0, 7, 2]

    def test_multi_register_roundtrip(self):
        d = enc.MultiRegister(3, 2)
        out = enc.decode(d, enc.reference_state(d, enc.integers([6, 1])))
        assert out.values.tolist() == [6, 1]

    def test_entangled_independent_roundtrip(self):
        d = enc.Entangled((enc.Basis(2), enc.Basis(1)))
        st_ = enc.reference_state(d, [enc.integers([2]), enc.integers([1])])
        got = enc.decode(d, st_)
        assert got[0] == 2 and got[1] == 1

    def test_entangled_rejects_true_entanglement(self):
        d = enc.Entangled((enc.Basis(1), enc.Basis(1)))
        bell = sim.state_from_amplitudes([2**-0.5, 0, 0, 2**-0.5])
        with pytest.raises(DecodeError):
            enc.decode(d, bell)

    def test_width_mismatch_and_joint_entangled_raise(self):
        with pytest.raises(DecodeError, match="needs 3"):
            enc.decode(enc.Basis(3), sim.zero_state(2))
        joint = enc.Entangled((enc.Basis(1), enc.Basis(1)), joint=True)
        with pytest.raises(DecodeError, match="descriptor-only"):
            enc.decode(joint, sim.zero_state(2))

    def test_data_register_leaves_out_ancillas_and_values(self):
        assert enc.data_register(enc.QRam(2, 3)) == (0, 1)
        assert enc.data_register(enc.DivideConquer(2)) == (0, 1)
        assert enc.data_register(enc.Basis(3)) == (0, 1, 2)

    def test_divide_conquer_moduli(self):
        a = np.sqrt([0.1, 0.2, 0.3, 0.4])
        d = enc.DivideConquer(2)
        out = enc.decode(d, enc.reference_state(d, enc.reals(a)))
        np.testing.assert_allclose(out.values, a, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_roundtrip_property(m, seed):
    rng = np.random.default_rng(seed)
    x = int(rng.integers(0, 1 << m))
    assert enc.decode(enc.Basis(m), enc.reference_state(enc.Basis(m), x)) == x
    assert enc.decode(enc.Fourier(m), enc.reference_state(enc.Fourier(m), x)) == x
    thetas = enc.reals(rng.uniform(0, np.pi / 2, size=min(m, 4)))
    d = enc.Angle(len(thetas))
    np.testing.assert_allclose(
        enc.decode(d, enc.reference_state(d, thetas)).values, thetas.values, atol=1e-9
    )
    n = min(m, 4)
    a = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    a /= np.linalg.norm(a)
    da = enc.Amplitude(n)
    np.testing.assert_allclose(
        enc.decode(da, enc.reference_state(da, enc.normalized(a))).values, a, atol=1e-9
    )


# The eleven variants of TestDescriptorJson.test_roundtrip_all_variants, each
# with a seeded generator of valid data.
def _unit_complex(rng, size):
    a = rng.normal(size=size) + 1j * rng.normal(size=size)
    return a / np.linalg.norm(a)


def _phase_fixed(a):
    """``a`` with its largest entry real positive, the phase Entangled
    decode gives a component."""
    lead = a[np.argmax(np.abs(a))]
    return a * (np.conj(lead) / abs(lead))


def _nonneg_unit(rng, size):
    a = rng.random(size)
    return a / np.linalg.norm(a)


CONTRACT_CASES = [
    (enc.Basis(3), lambda rng: int(rng.integers(8))),
    (enc.MappedBasis(1, ((4, 0), (9, 1))), lambda rng: int(rng.choice([4, 9]))),
    (enc.Angle(2), lambda rng: enc.reals(rng.uniform(0, np.pi / 2, 2))),
    (enc.Fourier(4), lambda rng: int(rng.integers(16))),
    (enc.MultiRegister(2, 3), lambda rng: enc.integers(rng.integers(0, 4, 3))),
    (enc.EquallyWeighted(3), lambda rng: enc.integers(np.sort(rng.choice(8, int(rng.integers(1, 9)), replace=False)))),
    (enc.Amplitude(5), lambda rng: enc.normalized(_unit_complex(rng, 32))),
    (enc.DivideConquer(3), lambda rng: enc.reals(_nonneg_unit(rng, 8))),
    (enc.Bidirectional(4, 2), lambda rng: enc.reals(_nonneg_unit(rng, 16))),
    (enc.QRam(2, 3), lambda rng: enc.integers(rng.integers(0, 8, 4))),
    (
        enc.Entangled((enc.Basis(1), enc.Amplitude(2)), joint=False),
        lambda rng: [int(rng.integers(2)), enc.normalized(_phase_fixed(_unit_complex(rng, 4)))],
    ),
]
CONTRACT_IDS = [type(d).__name__ for d, _ in CONTRACT_CASES]
SET_FORMATS = (enc.Basis, enc.MappedBasis, enc.MultiRegister, enc.EquallyWeighted, enc.QRam)


def _flat(data) -> np.ndarray:
    """Input or decoded data as one flat complex array."""
    if isinstance(data, list):
        return np.concatenate([_flat(part) for part in data])
    return np.atleast_1d(np.asarray(getattr(data, "values", data), dtype=np.complex128))


class TestDecodeContract:
    """decode returns x only if reference_state(d, x) has fidelity at least
    1 - ATOL_DECODE with the state; otherwise it raises DecodeError."""

    @pytest.mark.parametrize("d, draw", CONTRACT_CASES, ids=CONTRACT_IDS)
    def test_valid_data_roundtrips(self, d, draw):
        rng = np.random.default_rng(31)
        for _ in range(5):
            x = draw(rng)
            got = enc.decode(d, enc.reference_state(d, x))
            np.testing.assert_allclose(_flat(got), _flat(x), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("d, draw", CONTRACT_CASES, ids=CONTRACT_IDS)
    def test_random_states_decode_or_raise(self, d, draw):
        rng = np.random.default_rng(32)
        n = enc.register_width(d)
        for _ in range(50):
            state = sim.state_from_amplitudes(_unit_complex(rng, 1 << n))
            try:
                x = enc.decode(d, state)
            except DecodeError:
                continue
            assert sim.fidelity(enc.reference_state(d, x), state) >= 1 - ATOL_DECODE

    @pytest.mark.parametrize("d, draw", CONTRACT_CASES, ids=CONTRACT_IDS)
    def test_nan_state_raises(self, d, draw):
        n = enc.register_width(d)
        with pytest.raises(DecodeError):
            enc.decode(d, sim.StateVector(n, np.full(1 << n, np.nan)))

    @pytest.mark.parametrize(
        "d, draw",
        [c for c in CONTRACT_CASES if isinstance(c[0], SET_FORMATS)],
        ids=[i for (d, _), i in zip(CONTRACT_CASES, CONTRACT_IDS) if isinstance(d, SET_FORMATS)],
    )
    def test_set_fidelity_matches_reference_state(self, d, draw):
        # The formats that superpose a set S of basis states read their
        # fidelity off the state, |sum of psi over S|^2 / |S|, instead of
        # building the reference state; both agree on random states and on
        # states near the reference, and decode accepts by that value.
        rng = np.random.default_rng(34)
        n = enc.register_width(d)
        for _ in range(20):
            x = draw(rng)
            ref = enc.reference_state(d, x).amplitudes
            noise = _unit_complex(rng, 1 << n)
            for amps in (noise, ref + 1e-5 * noise, ref + 0.3 * noise):
                state = sim.state_from_amplitudes(amps / np.linalg.norm(amps))
                expected = abs(np.vdot(ref, state.amplitudes)) ** 2
                got = enc._fidelity(d, enc.check(d, x), state)
                assert got == pytest.approx(expected, rel=0, abs=1e-14)
                try:
                    enc.decode(d, state)
                except DecodeError:
                    assert expected < 1 - ATOL_DECODE + 1e-14
                else:
                    assert expected >= 1 - ATOL_DECODE - 1e-14

    def test_angle_fidelity_matches_reference_state(self):
        # Angle contracts the state against each qubit's [cos t, sin t]
        # instead of building the reference state; both agree on product
        # states, on entangled states and on states near the reference,
        # and a state that is not a product still fails decode.
        rng = np.random.default_rng(36)
        for n in range(1, 13):
            d = enc.Angle(n)
            thetas = enc.check(d, rng.uniform(0.0, np.pi / 2, n))
            ref = enc.reference_state(d, thetas)
            product = np.ones(1)
            for _ in range(n):
                product = np.kron(_unit_complex(rng, 2), product)
            entangled = _unit_complex(rng, 1 << n)
            for amps in (product, entangled, ref.amplitudes + 1e-5 * entangled, ref.amplitudes):
                state = sim.state_from_amplitudes(amps / np.linalg.norm(amps))
                expected = sim.fidelity(ref, state)
                assert enc._fidelity(d, thetas, state) == pytest.approx(expected, rel=0, abs=EQUIV_ATOL)
            if n > 1:
                with pytest.raises(DecodeError):
                    enc.decode(d, sim.state_from_amplitudes(entangled))
                ghz = np.zeros(1 << n)
                ghz[[0, -1]] = 2**-0.5
                with pytest.raises(DecodeError):
                    enc.decode(d, sim.state_from_amplitudes(ghz))

    def test_angle_decode_makes_no_state_sized_temporary(self):
        # The fidelity check reads the state as a (high, low) matrix against
        # two half-width vectors, so decode's peak above the traced baseline
        # stays far below the state's size (a state-sized temporary, or a
        # first contraction pass over the state, reaches 1/2 or more).
        n = 16
        d = enc.Angle(n)
        thetas = np.random.default_rng(37).uniform(0.0, np.pi / 2, n)
        state = enc.reference_state(d, thetas)
        state.probabilities  # computed once per state, and kept
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = enc.decode(d, state)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(got.values, thetas, rtol=0, atol=1e-9)
        assert peak < state.amplitudes.nbytes / 16

    def test_norm_bound_is_the_same_everywhere(self):
        d = enc.Amplitude(2)
        unit = _unit_complex(np.random.default_rng(33), 4)
        for sign in (1, -1):
            inside = unit * np.sqrt(1 + sign * 0.5 * NORM_ATOL)
            assert enc.validate(d, inside) == []
            got = enc.decode(d, enc.reference_state(d, enc.normalized(inside)))
            np.testing.assert_array_equal(got.values, inside)
            loaders.load_amplitude(inside)
            outside = unit * np.sqrt(1 + sign * 2 * NORM_ATOL)
            assert enc.validate(d, outside) != []
            with pytest.raises(EncodingError):
                enc.normalized(outside)
            with pytest.raises(EncodingError):
                loaders.load_amplitude(outside)


class TestDescriptorJson:
    def test_roundtrip_all_variants(self):
        variants = [
            enc.Basis(3),
            enc.MappedBasis(1, ((4, 0), (9, 1))),
            enc.Angle(2),
            enc.Fourier(4),
            enc.MultiRegister(2, 3),
            enc.EquallyWeighted(3),
            enc.Amplitude(5),
            enc.DivideConquer(3),
            enc.Bidirectional(4, 2),
            enc.QRam(2, 3),
            enc.Entangled((enc.Basis(1), enc.Amplitude(2)), joint=False),
        ]
        for d in variants:
            back = enc.descriptor_from_json(enc.descriptor_to_json(d))
            assert back == d

    def test_variant_tag_present(self):
        obj = json.loads(enc.descriptor_to_json(enc.Amplitude(3)))
        assert obj["variant"] == "amplitude"

    def test_unknown_variant(self):
        for text in (
            '{"variant": "amplitud"}',
            '{"variant": "basis"}',
            '{"variant": "mapped_basis", "m": 1}',
            '{"variant": "mapped_basis", "m": 1, "g": [[4, 0], [9]]}',
            '{"variant": "entangled", "components": [{"variant": "basis"}]}',
            '{"variant": "basis", "m": 3, "n": 2}',
            '{"variant": "basis", "m": 3, "variant_": 1}',
            '{"variant": ["basis"], "m": 3}',
            '{"m": 3}',
            "[1]",
            "3",
            "{",
        ):
            with pytest.raises(EncodingError):
                enc.descriptor_from_json(text)

    def test_bidirectional_split_invariant(self):
        with pytest.raises(EncodingError):
            enc.Bidirectional(3, 4)


class TestDescriptorChecks:
    @pytest.mark.parametrize(
        "make, args",
        [
            (enc.Basis, (-1,)),
            (enc.Basis, (2.5,)),
            (enc.Basis, ("3",)),
            (enc.Basis, (True,)),
            (enc.Basis, (0,)),
            (enc.MappedBasis, (-1, ())),
            (enc.Angle, (0,)),
            (enc.Fourier, (0,)),
            (enc.Amplitude, (0,)),
            (enc.MultiRegister, (2, 0)),
            (enc.MultiRegister, (0, 3)),
            (enc.Bidirectional, (3.0, 1)),
            (enc.QRam, (0, 0)),
            (enc.QRam, (-1, 2)),
            (enc.Entangled, ((),)),
            (enc.DataSet, ([1], "bogus")),
        ],
    )
    def test_sizes_are_checked_when_made(self, make, args):
        with pytest.raises(EncodingError):
            make(*args)

    def test_accepted_sizes_are_ints(self):
        assert enc.register_width(enc.QRam(0, 2)) == 2  # a one-entry table
        d = enc.MultiRegister(np.int64(2), np.uint8(3))
        assert d == enc.MultiRegister(2, 3) and type(d.m) is int and type(d.n_registers) is int
        assert enc.descriptor_from_json(enc.descriptor_to_json(d)) == d
        with pytest.raises(EncodingError):
            enc.descriptor_from_json('{"variant": "basis", "m": "3"}')

    def test_one_unknown_descriptor_error(self):
        unknown = object()
        state = sim.zero_state(1)
        calls = (
            lambda: enc.register_width(unknown),
            lambda: enc.data_register(unknown),
            lambda: enc.validate(unknown, 0),
            lambda: enc.check(unknown, 0),
            lambda: enc.reference_state(unknown, 0),
            lambda: enc.decode(unknown, state),
            lambda: enc.descriptor_to_dict(unknown),
            lambda: enc.Entangled((enc.Basis(1), unknown)),
        )
        for call in calls:
            with pytest.raises(EncodingError, match="unknown descriptor"):
                call()
