"""Encoding descriptors, their reference states, and decoders.

An :class:`EncodingDescriptor` names the format a classical data set takes
as a quantum state.  ``reference_state`` constructs that state
arithmetically (no circuit) and serves as ground truth for the loader
circuits; ``decode`` inverts it where the inverse is well defined, and
``validate`` reports domain violations without raising.

Each domain rule is written once, in ``validate``; ``check`` raises on its
violations, and ``reference_state`` and every loader call it.  A squared
norm is 1 within ``NORM_ATOL``, the simulator's own bound.  Sizes are
checked once, when a descriptor is made, and every entry point raises
``EncodingError`` for anything that is not a descriptor (``_known``).

Decode contract: ``decode`` computes a candidate ``x`` from the state and
returns it only if ``fidelity(reference_state(d, x), state) >= 1 -
ATOL_DECODE``; otherwise, or when ``x`` is outside the domain, it raises
``DecodeError``.  NaN fails the check.  A basis-family candidate is the
peak outcome, whose reference fidelity is its probability
(``sim.certain_outcome``); an Amplitude candidate is the state itself,
accepted when its squared norm is 1.

Bit conventions follow :mod:`enqode.sim`: qubit 0 is the least-significant
bit, so the amplitude of ``|x>`` sits at array index ``x``.  The Fourier
variant is defined normatively through the transform's closed form
``2**(-m/2) * sum_j exp(2*pi*i*x*j/2**m) |j>``; the per-qubit relative
phase of qubit ``k`` is then ``2*pi*(x mod 2**(m-k))/2**(m-k)``, the
binary fraction of the trailing bits of ``x``.
"""
from __future__ import annotations

import json
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
        if self.kind == INTEGERS:
            arr = np.asarray(arr, dtype=np.int64)
        elif self.kind == REALS:
            arr = np.asarray(arr, dtype=np.float64)
        elif self.kind == PROBABILITY:
            arr = np.asarray(arr, dtype=np.float64)
            if np.any(arr < 0):
                raise EncodingError("probability vector has negative entries")
            if not _unit(arr.sum()):
                raise EncodingError("probability vector does not sum to 1")
        else:
            arr = np.asarray(arr, dtype=np.complex128)
            if not _unit(np.vdot(arr, arr).real):
                raise EncodingError("complex vector is not normalized")
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
            if type(value) is bool or not isinstance(value, (int, np.integer)) or value < 0:
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

    ``g`` is an explicit table, the most general desk-scale form.
    """

    m: int
    g: tuple[tuple[object, int], ...]
    variant: str = field(default="mapped_basis", init=False)

    def __post_init__(self):
        super().__post_init__()
        size = 1 << self.m
        if len(self.g) != size or len(self.forward()) != size or set(self.backward()) != set(range(size)):
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
# Validation
# --------------------------------------------------------------------------


def validate(d: EncodingDescriptor, data) -> list[str]:
    """Domain violations of ``data`` for ``d``; empty iff
    ``reference_state`` would succeed."""
    _known(d)
    v: list[str] = []
    if isinstance(d, (Basis, Fourier)):
        x = _scalar_int(data, v)
        if x is not None and not 0 <= x < (1 << d.m):
            v.append(f"value {x} outside 0..{(1 << d.m) - 1}")
    elif isinstance(d, MappedBasis):
        table = d.forward()
        if isinstance(data, DataSet):
            if len(data) != 1:
                v.append("expected a single domain value")
                return v
            x = data.values.item()
        else:
            x = data
        if x not in table:
            v.append(f"value {x!r} not in the domain of g")
    elif isinstance(d, Angle):
        thetas = _as_array(data)
        if thetas.size != d.n_points:
            v.append(f"expected {d.n_points} angles, got {thetas.size}")
        bad = thetas[~((thetas >= 0) & (thetas <= np.pi / 2))]
        for t in np.atleast_1d(bad):
            v.append(f"angle {float(t)} outside [0, pi/2]")
    elif isinstance(d, MultiRegister):
        xs = _integers(data, v)
        if xs is not None:
            if xs.size != d.n_registers:
                v.append(f"expected {d.n_registers} integers, got {xs.size}")
            v.extend(f"value {int(x)} outside 0..{(1 << d.m) - 1}" for x in xs if not 0 <= x < (1 << d.m))
    elif isinstance(d, EquallyWeighted):
        xs = _integers(data, v)
        if xs is not None:
            if xs.size == 0:
                v.append("empty index set")
            if len(set(xs.tolist())) != xs.size:
                v.append("duplicate indices in the set")
            v.extend(f"index {int(x)} outside 0..{(1 << d.m) - 1}" for x in xs if not 0 <= x < (1 << d.m))
    elif isinstance(d, Amplitude):
        a = _as_array(data).astype(np.complex128)
        if a.size > (1 << d.n):
            v.append(f"{a.size} amplitudes exceed 2^{d.n}")
        elif not _unit(np.vdot(a, a).real):
            v.append("not normalized")
    elif isinstance(d, (DivideConquer, Bidirectional)):
        a = _as_array(data)
        if np.iscomplexobj(a) and np.any(np.abs(a.imag) > 0):
            v.append("requires a real vector")
        a = np.real(a)
        if a.size != (1 << d.n):
            v.append(f"expected 2^{d.n} entries, got {a.size}")
        elif not _unit(np.dot(a, a)):
            v.append("not normalized")
        if np.any(a < 0):
            v.append("requires nonnegative entries (signs are a loader concern)")
    elif isinstance(d, QRam):
        xs = _integers(data, v)
        if xs is not None:
            if xs.size != (1 << d.index_qubits):
                v.append(f"table length {xs.size} != 2^{d.index_qubits}")
            v.extend(
                f"value {int(x)} overflows {d.value_qubits} value qubits" for x in xs if not 0 <= x < (1 << d.value_qubits)
            )
    elif d.joint:  # Entangled
        v.append("joint entangled encodings are descriptor-only (no reference state)")
    elif not isinstance(data, Sequence) or len(data) != len(d.components):
        v.append(f"expected {len(d.components)} component data sets")
    else:
        for i, (c, cd) in enumerate(zip(d.components, data)):
            v.extend(f"component {i}: {msg}" for msg in validate(c, cd))
    return v


def _scalar_int(data, violations: list[str]):
    if isinstance(data, DataSet):
        if len(data) != 1:
            violations.append("expected a single integer")
            return None
    elif np.ndim(data) != 0:
        violations.append(f"expected an integer, got {data!r}")
        return None
    xs = _integers(data, violations)
    return None if xs is None else int(xs[0])


def _integers(data, violations: list[str]) -> np.ndarray | None:
    """The values of ``data`` as a real array, or None, with a violation
    for each value, when some value is not an integer (2.7, NaN, 2+1j, a
    string).  Integral floats such as 3.0 count as integers."""
    a = _as_array(data)
    if a.dtype.kind in "biu":
        return a
    if a.dtype.kind in "fc":
        integral = np.isfinite(a) & (a == np.round(a.real))
        if integral.all():
            return a.real
        violations.extend(f"value {x} is not an integer" for x in a[~integral].tolist())
    else:
        violations.append(f"expected integers, got {data!r}")
    return None


def _as_array(data) -> np.ndarray:
    if isinstance(data, DataSet):
        return np.asarray(data.values)
    return np.atleast_1d(np.asarray(data))


# --------------------------------------------------------------------------
# Reference states
# --------------------------------------------------------------------------


def check(d: EncodingDescriptor, data) -> None:
    """Raise ``EncodingError`` listing ``validate``'s violations, if any."""
    problems = validate(d, data)
    if problems:
        raise EncodingError(f"{type(d).__name__} domain violation: " + "; ".join(problems))


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
    check(d, data)

    if isinstance(d, Basis):
        return sim.basis_state(d.m, _scalar_int(data, []))
    if isinstance(d, MappedBasis):
        x = data.values.item() if isinstance(data, DataSet) and len(data) == 1 else data
        return sim.basis_state(d.m, d.forward()[x])
    if isinstance(d, Angle):
        thetas = _as_array(data).astype(np.float64)
        amps = np.array([1.0], dtype=np.complex128)
        for t in thetas:  # qubit i gets theta_i; lowest qubit varies fastest
            amps = np.kron(np.array([np.cos(t), np.sin(t)]), amps)
        return StateVector._owning(width, amps)
    if isinstance(d, Fourier):
        x = _scalar_int(data, [])
        dim = 1 << d.m
        j = np.arange(dim)
        return StateVector._owning(width, np.exp(2j * np.pi * x * j / dim) / np.sqrt(dim))
    if isinstance(d, MultiRegister):
        xs = _as_array(data).astype(np.int64)
        index = 0
        for i, xval in enumerate(xs):
            index |= int(xval) << (i * d.m)
        return sim.basis_state(width, index)
    if isinstance(d, EquallyWeighted):
        xs = _as_array(data).astype(np.int64)
        amps = np.zeros(1 << d.m, dtype=np.complex128)
        amps[xs] = 1.0 / np.sqrt(xs.size)
        return StateVector._owning(width, amps)
    if isinstance(d, Amplitude):
        a = _as_array(data).astype(np.complex128)
        amps = np.zeros(1 << d.n, dtype=np.complex128)
        amps[: a.size] = a
        return StateVector._owning(width, amps)
    if isinstance(d, (DivideConquer, Bidirectional)):
        from . import loaders  # loader output is the definition here

        a = np.real(_as_array(data))
        if isinstance(d, DivideConquer):
            out = loaders.load_divide_conquer(a)
        else:
            out = loaders.load_bidirectional(a, d.s)
        return sim.run(out.circuit)
    if isinstance(d, QRam):
        xs = _as_array(data).astype(np.int64)
        n_idx = d.index_qubits
        amps = np.zeros(1 << (n_idx + d.value_qubits), dtype=np.complex128)
        for i, xval in enumerate(xs):
            amps[i | (int(xval) << n_idx)] = 1.0 / np.sqrt(xs.size)
        return StateVector._owning(width, amps)
    amps = np.array([1.0], dtype=np.complex128)  # Entangled
    for c, cd in zip(d.components, data):
        amps = np.kron(reference_state(c, cd).amplitudes, amps)
    return StateVector._owning(width, amps)


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

    if isinstance(d, (Basis, MappedBasis, MultiRegister)):
        top = sim.certain_outcome(state.probabilities)
        if top is None:
            raise DecodeError("superposition is not a basis state")
        if isinstance(d, Basis):
            return top
        if isinstance(d, MappedBasis):
            return d.backward()[top]
        return integers([(top >> (i * d.m)) & ((1 << d.m) - 1) for i in range(d.n_registers)])

    if isinstance(d, Angle):
        marginals = np.sqrt(sim.qubit_marginals(state))
        return _verified(d, reals(np.arctan2(marginals[:, 1], marginals[:, 0])), state)

    if isinstance(d, Fourier):
        # Qubit k carries phase 2*pi*(x mod 2^(m-k))/2^(m-k) relative to
        # |0>; walk from the top qubit down, revealing one low bit of x at a
        # time.  A NaN phase reveals nothing and fails the final check.
        x = 0
        for k in range(d.m - 1, -1, -1):
            span = 1 << (d.m - k)
            phase = np.angle(amps[1 << k]) - np.angle(amps[0])
            if np.round(phase / (2 * np.pi) * span) % span - x >= span // 2:
                x |= span // 2
        return _verified(d, x, state)

    if isinstance(d, EquallyWeighted):
        probs = state.probabilities
        return _verified(d, integers(np.flatnonzero(probs > probs.max() / 2)), state)

    if isinstance(d, Amplitude):
        try:
            return normalized(amps)
        except EncodingError as err:
            raise DecodeError(f"not an amplitude encoding: {err}") from err

    if isinstance(d, (DivideConquer, Bidirectional)):
        probs = sim.marginal_probabilities(state, data_register(d))
        return _verified(d, reals(np.sqrt(probs)), state)

    if isinstance(d, QRam):
        probs = state.probabilities.reshape(1 << d.value_qubits, 1 << d.index_qubits)
        return _verified(d, integers(probs.argmax(axis=0)), state)

    if d.joint:  # Entangled
        raise DecodeError("joint entangled encodings are descriptor-only")
    out = []
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
        out.append(decode(c, state_from_amplitudes(factor)))
        rest = mat @ np.conj(factor)
    return _verified(d, out, state)


def _verified(d: EncodingDescriptor, x, state: StateVector):
    """``x`` if its reference state under ``d`` has fidelity at least
    ``1 - ATOL_DECODE`` with ``state``; ``DecodeError`` otherwise."""
    try:
        ref = reference_state(d, x)
    except EncodingError as err:
        raise DecodeError(f"decoded candidate is outside the domain: {err}") from err
    if not sim.fidelity(ref, state) >= 1.0 - ATOL_DECODE:
        raise DecodeError(f"state is not a {type(d).__name__} encoding of its decoded candidate")
    return x


# --------------------------------------------------------------------------
# Descriptor (de)serialization
# --------------------------------------------------------------------------

_VARIANTS = {cls.variant: cls for cls in _DESCRIPTORS}


def descriptor_to_dict(d: EncodingDescriptor) -> dict:
    _known(d)
    out = {f.name: getattr(d, f.name) for f in fields(d)}
    if isinstance(d, MappedBasis):
        out["g"] = [[k, v] for k, v in d.g]
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
        if cls is MappedBasis:
            kwargs["g"] = tuple((k, v) for k, v in kwargs["g"])
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
