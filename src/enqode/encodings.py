"""Encoding descriptors, their reference states, and decoders.

An :class:`EncodingDescriptor` names the format a classical data set takes
as a quantum state.  ``reference_state`` constructs that state
arithmetically, with no circuit, except for the divide-and-conquer and
bidirectional variants, whose loader circuits define them and are run; it
serves as ground truth for the other loader circuits.  ``decode`` inverts
it where the inverse is well defined, and ``validate`` reports domain
violations without raising.

Each format's data is read once, by ``_parse``, which holds every domain
rule: ``validate`` returns its violations, and ``check`` raises on them or
returns the value read, from which ``reference_state`` and every loader
build.  A squared norm is 1 within ``NORM_ATOL``, the simulator's own
bound.  Sizes are checked once, when a descriptor is made, and every entry
point raises ``EncodingError`` for anything that is not a descriptor
(``_known``).

Decode contract: ``decode`` computes a candidate ``x`` from the state and
returns it only if ``fidelity(reference_state(d, x), state) >= 1 -
ATOL_DECODE``; otherwise, or when ``x`` is outside the domain, it raises
``DecodeError``.  NaN fails the check.  Each format but Amplitude computes
one candidate (the basis family takes the peak outcome) and passes it
through that check; an Amplitude candidate is the state itself, accepted
when its squared norm is 1.  Two kinds of format compute that fidelity
without building the reference state (``_fidelity``): one whose reference
state is a uniform superposition of basis states reads it off the state's
amplitudes, and Angle contracts the amplitudes against its per-qubit
``[cos t, sin t]`` factors.

Bit conventions follow :mod:`enqode.sim`: qubit 0 is the least-significant
bit, so the amplitude of ``|x>`` sits at array index ``x``.  The Fourier
variant is defined normatively through the transform's closed form
``2**(-m/2) * sum_j exp(2*pi*i*x*j/2**m) |j>``; the per-qubit relative
phase of qubit ``k`` is then ``2*pi*(x mod 2**(m-k))/2**(m-k)``, the
binary fraction of the trailing bits of ``x``.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence, Union, get_args

import numpy as np

from . import sim
from .errors import CapacityError, DecodeError, EncodingError
from .sim import StateVector, state_from_amplitudes
from .tolerances import ATOL_DECODE, NORM_ATOL

INTEGERS = "integers"
REALS = "reals"
NORMALIZED_COMPLEX = "normalized-complex-vector"
PROBABILITY = "probability-vector"

_KINDS = (INTEGERS, REALS, NORMALIZED_COMPLEX, PROBABILITY)


@dataclass(frozen=True)
class DataSet:
    """A classical value collection tagged with its domain kind."""

    values: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise EncodingError(f"unknown data kind {self.kind!r}")
        arr = np.asarray(self.values)
        if arr.dtype.kind not in "biufc":  # not numbers, refused as ``_array`` refuses them
            raise EncodingError(f"expected numbers, got {self.values!r}")
        if self.kind == INTEGERS:
            violations: list[str] = []
            arr = _integral(arr, violations)
            if violations:
                raise EncodingError("; ".join(violations))
            arr = arr.astype(np.int64)
        elif self.kind in (REALS, PROBABILITY):
            if arr.dtype.kind == "c" and np.any(arr.imag != 0):  # as ``_reals`` refuses it
                raise EncodingError(f"{self.kind} requires a real vector")
            arr = np.asarray(arr.real, dtype=np.float64)
        else:
            arr = np.asarray(arr, dtype=np.complex128)
            if not _unit(np.vdot(arr, arr).real):
                raise EncodingError("complex vector is not normalized")
        if self.kind == PROBABILITY:
            if np.any(arr < 0):
                raise EncodingError("probability vector has negative entries")
            if not _unit(arr.sum()):
                raise EncodingError("probability vector does not sum to 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


def _unit(norm_sq) -> bool:
    """Whether a squared norm is 1 within ``NORM_ATOL``; NaN is not."""
    return abs(norm_sq - 1.0) <= NORM_ATOL


def integers(values) -> DataSet:
    return DataSet(np.asarray(values), INTEGERS)


def reals(values) -> DataSet:
    return DataSet(np.asarray(values), REALS)


def normalized(values) -> DataSet:
    return DataSet(np.asarray(values), NORMALIZED_COMPLEX)


def probabilities(values) -> DataSet:
    return DataSet(np.asarray(values), PROBABILITY)


# --------------------------------------------------------------------------
# Descriptor variants
# --------------------------------------------------------------------------


class _Sized:
    """Checks a descriptor's sizes once, when it is made: each ``int``
    field must be an integer >= 0 (stored as ``int``), and the register
    must have at least one qubit."""

    def __post_init__(self):
        for f in fields(self):
            if f.type != "int":
                continue
            value = getattr(self, f.name)
            if not sim._is_integer(value) or value < 0:
                raise EncodingError(f"{type(self).__name__} size {f.name}={value!r} is not an integer >= 0")
            object.__setattr__(self, f.name, int(value))
        if register_width(self) == 0:
            raise EncodingError(f"{type(self).__name__} register has no qubits")


@dataclass(frozen=True)
class Basis(_Sized):
    """Integer x in {0..2^m-1} stored as the basis state |x>."""

    m: int
    variant: str = field(default="basis", init=False)


@dataclass(frozen=True)
class MappedBasis(_Sized):
    """Basis encoding through a bijection g: domain -> {0..2^m-1}.

    ``g`` is an explicit table, the most general desk-scale form; any
    iterable of (value, index) pairs is stored as a tuple of tuples.
    """

    m: int
    g: tuple[tuple[object, int], ...]
    variant: str = field(default="mapped_basis", init=False)

    def __post_init__(self):
        super().__post_init__()
        size = 1 << self.m
        try:
            object.__setattr__(self, "g", tuple((k, operator.index(v)) for k, v in self.g))
            bijective = len(self.g) == len(self.forward()) == size and set(self.backward()) == set(range(size))
        except (TypeError, ValueError):  # not pairs, an unhashable value, an index that is no integer
            bijective = False
        if not bijective:
            raise EncodingError(f"g is not a bijection onto 0..{size - 1}")

    def forward(self) -> dict:
        return {k: v for k, v in self.g}

    def backward(self) -> dict:
        return {v: k for k, v in self.g}


@dataclass(frozen=True)
class Angle(_Sized):
    """N reals in [0, pi/2], one qubit each: cos(t)|0> + sin(t)|1>."""

    n_points: int
    variant: str = field(default="angle", init=False)


@dataclass(frozen=True)
class Fourier(_Sized):
    """Integer x stored in per-qubit phases; the image of |x> under the
    Fourier transform circuit."""

    m: int
    variant: str = field(default="fourier", init=False)


@dataclass(frozen=True)
class MultiRegister(_Sized):
    """N integers, each in its own m-qubit register in basis encoding.
    Register i occupies qubits [i*m, (i+1)*m)."""

    m: int
    n_registers: int
    variant: str = field(default="multi_register", init=False)


@dataclass(frozen=True)
class EquallyWeighted(_Sized):
    """Uniform superposition of the basis states of a set of integers."""

    m: int
    variant: str = field(default="equally_weighted", init=False)


@dataclass(frozen=True)
class Amplitude(_Sized):
    """Normalized complex vector stored directly in the amplitudes."""

    n: int
    variant: str = field(default="amplitude", init=False)


@dataclass(frozen=True)
class DivideConquer(_Sized):
    """Amplitude data on an n-qubit register entangled with a 2^n-qubit
    ancilla register; the loader circuit is the operative definition."""

    n: int
    variant: str = field(default="divide_conquer", init=False)


@dataclass(frozen=True)
class Bidirectional(_Sized):
    """Split-level interpolation between amplitude (s = n) and
    divide-and-conquer (s = 1) loading trade-offs."""

    n: int
    s: int
    variant: str = field(default="bidirectional", init=False)

    def __post_init__(self):
        super().__post_init__()
        if not 1 <= self.s <= self.n:
            raise EncodingError(f"split level {self.s} outside 1..{self.n}")


@dataclass(frozen=True)
class QRam(_Sized):
    """Values entangled with addresses: 2^(-idx/2) * sum_i |i>|x_i>, the
    state a query oracle produces from a uniform index register."""

    index_qubits: int
    value_qubits: int
    variant: str = field(default="qram", init=False)


@dataclass(frozen=True)
class Entangled(_Sized):
    """A composite of component encodings.

    ``joint=False`` means independently encoded components (tensor
    product); component 0 occupies the lowest qubits.  ``joint=True`` is a
    descriptor-only marker for jointly distributed registers and has no
    reference state here.
    """

    components: tuple["EncodingDescriptor", ...]
    joint: bool = False
    variant: str = field(default="entangled", init=False)


EncodingDescriptor = Union[
    Basis,
    MappedBasis,
    Angle,
    Fourier,
    MultiRegister,
    EquallyWeighted,
    Amplitude,
    DivideConquer,
    Bidirectional,
    QRam,
    Entangled,
]
_DESCRIPTORS = get_args(EncodingDescriptor)


def _known(d) -> None:
    """Raise ``EncodingError`` unless ``d`` is a descriptor: the one check
    behind every entry point that takes one."""
    if not isinstance(d, _DESCRIPTORS):
        raise EncodingError(f"unknown descriptor {d!r}")


def register_width(d: EncodingDescriptor) -> int:
    """Qubits of the full register the reference state lives on."""
    _known(d)
    if isinstance(d, (Basis, MappedBasis, Fourier, EquallyWeighted)):
        return d.m
    if isinstance(d, Angle):
        return d.n_points
    if isinstance(d, MultiRegister):
        return d.m * d.n_registers
    if isinstance(d, Amplitude):
        return d.n
    if isinstance(d, DivideConquer):
        return d.n + (1 << d.n)
    if isinstance(d, Bidirectional):
        return d.n + (1 << d.n) - (1 << d.s)
    if isinstance(d, QRam):
        return d.index_qubits + d.value_qubits
    return sum(register_width(c) for c in d.components)  # Entangled


def data_register(d: EncodingDescriptor) -> tuple[int, ...]:
    """Qubits holding the payload (excludes ancillas of the generalized
    amplitude family and the value register of qram)."""
    if isinstance(d, (DivideConquer, Bidirectional)):
        return tuple(range(d.n))
    if isinstance(d, QRam):
        return tuple(range(d.index_qubits))
    return tuple(range(register_width(d)))


# --------------------------------------------------------------------------
# Reading data
# --------------------------------------------------------------------------


def validate(d: EncodingDescriptor, data) -> list[str]:
    """Domain violations of ``data`` for ``d``; empty iff
    ``reference_state`` would succeed."""
    violations: list[str] = []
    _parse(d, data, violations)
    return violations


def check(d: EncodingDescriptor, data):
    """Raise ``EncodingError`` listing ``validate``'s violations, if any;
    otherwise return the value ``data`` reads as (see ``_parse``), the one
    ``reference_state`` and the loaders build from."""
    violations: list[str] = []
    x = _parse(d, data, violations)
    if violations:
        raise EncodingError(f"{type(d).__name__} domain violation: " + "; ".join(violations))
    return x


def _parse(d: EncodingDescriptor, data, v: list[str]):
    """Read ``data`` under ``d`` once: append each domain violation to
    ``v`` and return the value read (of no use once a violation is
    appended): an ``int`` for Basis and Fourier, the index ``g(x)`` for
    MappedBasis, an int64 array for MultiRegister, EquallyWeighted and
    QRam, a float64 array for Angle, DivideConquer and Bidirectional, a
    complex128 array for Amplitude, and the components' values for
    Entangled."""
    _known(d)
    if isinstance(d, (Basis, Fourier)):
        xs = _integers(data, v, 1 << d.m, 1)
        if xs is not None and not isinstance(data, DataSet) and np.ndim(data) != 0:
            v.append(f"expected an integer, got {data!r}")
        return None if xs is None else int(xs[0])
    if isinstance(d, MappedBasis):
        x = data.values.item() if isinstance(data, DataSet) and len(data) == 1 else data
        try:
            return d.forward()[x]
        except (KeyError, TypeError):  # TypeError: x is unhashable
            v.append(f"value {x!r} not in the domain of g")
            return None
    if isinstance(d, Angle):
        thetas = _reals(data, v, d.n_points)
        if thetas is not None:
            bad = thetas[~((thetas >= 0) & (thetas <= np.pi / 2))]
            v.extend(f"angle {t} outside [0, pi/2]" for t in bad.tolist())
        return thetas
    if isinstance(d, MultiRegister):
        return _integers(data, v, 1 << d.m, d.n_registers)
    if isinstance(d, EquallyWeighted):
        xs = _integers(data, v, 1 << d.m)
        if xs is not None and xs.size == 0:
            v.append("empty index set")
        if xs is not None and np.unique(xs).size != xs.size:
            v.append("duplicate indices in the set")
        return xs
    if isinstance(d, Amplitude):
        a = _array(data, v, "numbers")
        if a is not None:
            a = a.astype(np.complex128)
            if a.size > (1 << d.n):
                v.append(f"{a.size} amplitudes exceed 2^{d.n}")
            elif not _unit(np.vdot(a, a).real):
                v.append("not normalized")
        return a
    if isinstance(d, (DivideConquer, Bidirectional)):
        a = _reals(data, v, 1 << d.n)
        if a is not None:
            if not _unit(np.dot(a, a)):
                v.append("not normalized")
            if np.any(a < 0):
                v.append("requires nonnegative entries (signs are a loader concern)")
        return a
    if isinstance(d, QRam):
        return _integers(data, v, 1 << d.value_qubits, 1 << d.index_qubits)
    if d.joint:  # Entangled
        v.append("joint entangled encodings are descriptor-only (no reference state)")
        return None
    if not isinstance(data, Sequence) or len(data) != len(d.components):
        v.append(f"expected {len(d.components)} component data sets")
        return None
    values = []
    for i, (c, cd) in enumerate(zip(d.components, data)):
        component: list[str] = []
        values.append(_parse(c, cd, component))
        v.extend(f"component {i}: {msg}" for msg in component)
    return values


def _array(data, violations: list[str], what: str, size: int | None = None) -> np.ndarray | None:
    """``data`` (a ``DataSet``, a sequence or a scalar) as a 1-D numeric
    array, or None, with a violation, when it is not a flat sequence of
    numbers (a string, a 2-D or ragged sequence) or, given a ``size``, has
    another number of values."""
    try:
        a = np.atleast_1d(np.asarray(data.values if isinstance(data, DataSet) else data))
    except ValueError:  # a ragged sequence
        a = None
    if a is None or a.ndim != 1 or a.dtype.kind not in "biufc":
        violations.append(f"expected a flat sequence of {what}, got {data!r}")
        return None
    if size is not None and a.size != size:
        violations.append(f"expected {size} {what}, got {a.size}")
        return None
    return a


def _integers(data, violations: list[str], bound: int, size: int | None = None) -> np.ndarray | None:
    """``data`` as an int64 array, or None, with a violation for each
    value, when some value is not an integer in ``0..bound-1`` (2.7, NaN,
    2+1j, -1).  Integral floats such as 3.0 count as integers."""
    a = _array(data, violations, "integers", size)
    if a is not None:
        a = _integral(a, violations)
    if a is None:
        return None
    outside = [f"value {int(x)} outside 0..{bound - 1}" for x in a.tolist() if not 0 <= x < bound]
    violations.extend(outside)
    return None if outside else a.astype(np.int64)


def _integral(a: np.ndarray, violations: list[str]) -> np.ndarray | None:
    """``a`` with its float or complex values made real, or None, with a
    violation for each value, when some value is not an integer (2.7, NaN,
    2+1j).  Integral floats such as 3.0 count as integers.  ``DataSet``
    applies this rule too, so ``integers([2.7])`` is refused as ``2.7``
    is."""
    if a.dtype.kind in "fc":
        integral = np.isfinite(a) & (a == np.round(a.real))
        if not integral.all():
            violations.extend(f"value {x} is not an integer" for x in a[~integral].tolist())
            return None
        a = a.real
    return a


def value_count(data) -> int:
    """How many values ``data`` (a ``DataSet``, a sequence or a scalar)
    holds: the size of the descriptor a loader reads it under.  Raises
    ``EncodingError``, as ``check`` would, when ``data`` is not a flat
    sequence of numbers (a string, a 2-D or ragged sequence)."""
    violations: list[str] = []
    a = _array(data, violations, "numbers")
    if a is None:
        raise EncodingError("domain violation: " + "; ".join(violations))
    return a.size


def _reals(data, violations: list[str], size: int) -> np.ndarray | None:
    """``data`` as a float64 array, or None, with a violation, when it is
    not a flat sequence of ``size`` real numbers.  Complex values with
    imaginary part 0 count as real."""
    a = _array(data, violations, "real numbers", size)
    if a is not None and np.iscomplexobj(a):
        if np.any(a.imag != 0):
            violations.append("requires a real vector")
            return None
        a = a.real
    return None if a is None else a.astype(np.float64)


# --------------------------------------------------------------------------
# Reference states
# --------------------------------------------------------------------------


def reference_state(d: EncodingDescriptor, data) -> StateVector:
    """The mathematically defined state of ``data`` under ``d``.

    Built arithmetically except for the divide-and-conquer and
    bidirectional variants, whose loader circuits are definitional.
    Raises ``CapacityError``, before any array is made, when the register
    is wider than the simulator's cap.
    """
    width = register_width(d)
    if width > sim.MAX_QUBITS:
        raise CapacityError(f"{type(d).__name__} needs {width} qubits; states are capped at {sim.MAX_QUBITS}")
    return _reference(d, check(d, data))


def _angle_factors(thetas) -> np.ndarray:
    """The Kronecker product of ``[cos t, sin t]`` over ``thetas``, the
    first angle's qubit least significant."""
    out = np.ones(1)
    for t in thetas:
        out = np.outer([np.cos(t), np.sin(t)], out).ravel()
    return out


def _reference(d: EncodingDescriptor, x) -> StateVector:
    """The reference state of ``x``, a value ``check`` returned for ``d``."""
    width = register_width(d)
    support = _support(d, x)
    if support is not None:
        amps = np.zeros(1 << width, dtype=np.complex128)
        amps[support] = 1.0 / np.sqrt(len(support))
        return StateVector._owning(width, amps)
    if isinstance(d, Angle):
        return StateVector._owning(width, _angle_factors(x).astype(np.complex128))
    if isinstance(d, Fourier):
        dim = 1 << d.m
        j = np.arange(dim)
        return StateVector._owning(width, np.exp(2j * np.pi * x * j / dim) / np.sqrt(dim))
    if isinstance(d, Amplitude):
        amps = np.zeros(1 << d.n, dtype=np.complex128)
        amps[: x.size] = x
        return StateVector._owning(width, amps)
    if isinstance(d, (DivideConquer, Bidirectional)):
        from . import loaders  # loader output is the definition here

        if isinstance(d, DivideConquer):
            return sim.run(loaders.load_divide_conquer(x).circuit)
        return sim.run(loaders.load_bidirectional(x, d.s).circuit)
    amps = np.array([1.0], dtype=np.complex128)  # Entangled
    for c, cx in zip(d.components, x):
        amps = np.kron(_reference(c, cx).amplitudes, amps)
    return StateVector._owning(width, amps)


def _support(d: EncodingDescriptor, x):
    """The basis states whose uniform superposition is the reference state
    of ``x``, a value ``check`` returned for ``d``, when ``d`` is Basis,
    MappedBasis, MultiRegister, EquallyWeighted or QRam; None for every
    other format."""
    if isinstance(d, (Basis, MappedBasis)):
        return [x]
    if isinstance(d, MultiRegister):
        return [sum(int(xi) << (i * d.m) for i, xi in enumerate(x))]
    if isinstance(d, QRam):
        return np.arange(x.size) | (x << d.index_qubits)
    if isinstance(d, EquallyWeighted):
        return x
    return None


# --------------------------------------------------------------------------
# Decoding
# --------------------------------------------------------------------------


def decode(d: EncodingDescriptor, state: StateVector):
    """Recover the classical data represented by ``state`` under ``d``.

    Raises :class:`DecodeError` when the state is not representable in the
    encoding (e.g. a superposition offered to a basis decode); see the
    module docstring for the acceptance rule.
    """
    if state.n_qubits != register_width(d):
        raise DecodeError(
            f"state has {state.n_qubits} qubits, {type(d).__name__} needs {register_width(d)}"
        )
    amps = state.amplitudes
    if isinstance(d, Amplitude):
        try:
            return normalized(amps)
        except EncodingError as err:
            raise DecodeError(f"not an amplitude encoding: {err}") from err

    if isinstance(d, (Basis, MappedBasis, MultiRegister)):
        x = int(np.argmax(state.probabilities))
        if isinstance(d, MappedBasis):
            x = d.backward()[x]
        elif isinstance(d, MultiRegister):
            x = integers([(x >> (i * d.m)) & ((1 << d.m) - 1) for i in range(d.n_registers)])
    elif isinstance(d, Angle):
        marginals = np.sqrt(sim.qubit_marginals(state))
        x = reals(np.arctan2(marginals[:, 1], marginals[:, 0]))
    elif isinstance(d, Fourier):
        # Qubit k carries phase 2*pi*(x mod 2^(m-k))/2^(m-k) relative to
        # |0>; walk from the top qubit down, revealing one low bit of x at a
        # time.  A NaN phase reveals nothing and fails the final check.
        x = 0
        for k in range(d.m - 1, -1, -1):
            span = 1 << (d.m - k)
            phase = np.angle(amps[1 << k]) - np.angle(amps[0])
            if np.round(phase / (2 * np.pi) * span) % span - x >= span // 2:
                x |= span // 2
    elif isinstance(d, EquallyWeighted):
        probs = state.probabilities
        x = integers(np.flatnonzero(probs > probs.max() / 2))
    elif isinstance(d, (DivideConquer, Bidirectional)):
        probs = sim.marginal_probabilities(state, data_register(d))
        x = reals(np.sqrt(probs))
    elif isinstance(d, QRam):
        probs = state.probabilities.reshape(1 << d.value_qubits, 1 << d.index_qubits)
        x = integers(probs.argmax(axis=0))
    elif d.joint:  # Entangled
        raise DecodeError("joint entangled encodings are descriptor-only")
    else:
        x = []
        rest = amps
        for c in d.components:
            # Component c holds the lowest qubits of what is left: in a
            # product state every row of this matrix is a multiple of its
            # state, so the largest row is the candidate factor.
            mat = rest.reshape(-1, 1 << register_width(c))
            row = mat[np.argmax(np.linalg.norm(mat, axis=1))]
            lead = row[np.argmax(np.abs(row))]
            # fix the factor's global phase so basis-style decodes are
            # clean; a zero or NaN row gives a NaN factor, which fails
            with np.errstate(invalid="ignore", divide="ignore"):
                factor = row * (np.conj(lead) / (np.abs(lead) * np.linalg.norm(row)))
            x.append(decode(c, state_from_amplitudes(factor)))
            rest = mat @ np.conj(factor)
    return _verified(d, x, state)


def _verified(d: EncodingDescriptor, x, state: StateVector):
    """``x`` if its reference state under ``d`` has fidelity at least
    ``1 - ATOL_DECODE`` with ``state``; ``DecodeError`` otherwise."""
    try:
        value = check(d, x)
    except EncodingError as err:
        raise DecodeError(f"decoded candidate is outside the domain: {err}") from err
    if not _fidelity(d, value, state) >= 1.0 - ATOL_DECODE:
        raise DecodeError(f"state is not a {type(d).__name__} encoding of its decoded candidate")
    return x


def _fidelity(d: EncodingDescriptor, x, state: StateVector) -> float:
    """The fidelity of ``state`` with the reference state of ``x``, a value
    ``check`` returned for ``d``.  A uniform superposition over a set S of
    basis states (``_support``) has fidelity ``|sum_{y in S} psi_y|**2 /
    |S|``, read off the amplitudes without building the reference state.
    The Angle reference is the real product of ``[cos t, sin t]`` over its
    qubits, the Kronecker product of one vector over the low ``n // 2``
    qubits and one over the rest.  Its overlap with ``state`` is the
    amplitudes, as a (high, low) matrix, contracted with the low vector
    and then the high one: the state is read once, and no temporary is
    larger than ``2**(n - n//2)`` entries."""
    if isinstance(d, Angle):
        low, high = (_angle_factors(half) for half in np.split(x, [len(x) // 2]))
        amps = state.amplitudes.reshape(high.size, low.size)
        return float(abs(high @ (amps @ low)) ** 2)
    support = _support(d, x)
    if support is None:
        return sim.fidelity(_reference(d, x), state)
    return float(abs(state.amplitudes[support].sum()) ** 2 / len(support))


# --------------------------------------------------------------------------
# Descriptor (de)serialization
# --------------------------------------------------------------------------

_VARIANTS = {cls.variant: cls for cls in _DESCRIPTORS}


def descriptor_to_dict(d: EncodingDescriptor) -> dict:
    _known(d)
    out = {f.name: getattr(d, f.name) for f in fields(d)}
    if isinstance(d, Entangled):
        out["components"] = [descriptor_to_dict(c) for c in d.components]
    return out


def descriptor_from_dict(obj: Mapping) -> EncodingDescriptor:
    """The descriptor ``descriptor_to_dict`` made ``obj`` from.  Anything
    else (not a mapping, an unknown variant, a missing or unknown field, a
    value the descriptor rejects) raises ``EncodingError``."""
    try:
        kwargs = {**obj}
        cls = _VARIANTS[kwargs.pop("variant")]
        if cls is Entangled:
            kwargs["components"] = tuple(descriptor_from_dict(c) for c in kwargs["components"])
        return cls(**kwargs)
    except (KeyError, TypeError, ValueError) as err:
        raise EncodingError(f"not an encoding descriptor: {obj!r} ({err})") from err


def descriptor_to_json(d: EncodingDescriptor) -> str:
    return json.dumps(descriptor_to_dict(d), sort_keys=True)


def descriptor_from_json(text: str) -> EncodingDescriptor:
    try:
        obj = json.loads(text)
    except ValueError as err:
        raise EncodingError(f"descriptor JSON does not parse: {err}") from err
    return descriptor_from_dict(obj)
