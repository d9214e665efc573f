"""The benchmark's workloads: seeded inputs, one instance, one check.

Each workload draws its inputs from ``(seed, instance index)`` alone, so a
run is reproducible from its seed, and the program under test receives only
those inputs.  ``run`` calls enqode through the module objects it is handed,
so the tracer's wrappers (installed on those modules) see every call.
``check`` is an independent oracle: it never reuses the code path it checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def instance_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for instance ``index`` of a run seeded with ``seed``.

    Warm-up instances use negative indices, so they never repeat a timed
    instance's inputs.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index + (1 << 20)])))


@dataclass(frozen=True)
class AmpRoundtrip:
    """Complex amplitude load -> run -> decode (ROADMAP scenario 1).

    Circuit building (trees + loaders, with the O(4^k) Gray angles) is about
    3/4 of an instance; complex input makes the diagonal phase pass run.
    """

    n: int = 9
    name: str = "amp_roundtrip"

    @property
    def state_qubits(self) -> int:
        return self.n

    def make_input(self, rng: np.random.Generator):
        dim = 1 << self.n
        a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return a / np.linalg.norm(a)

    def run(self, mods, a):
        out = mods.loaders.load_amplitude(a)
        state = mods.sim.run(out.circuit)
        return mods.encodings.decode(mods.encodings.Amplitude(self.n), state)

    def check(self, mods, a, decoded) -> bool:
        values = np.asarray(decoded.values, dtype=np.complex128)
        fid = abs(np.vdot(a, values)) ** 2
        return values.shape == a.shape and fid >= 1.0 - mods.encodings.ATOL_DECODE


@dataclass(frozen=True)
class Qae:
    """Amplitude estimation on a loaded n-qubit state (ROADMAP scenario 2).

    The simulator does about 9/10 of the work (per-gate overhead on a small
    state); loader work is under 2%.  Nonnegative input skips the phase pass.
    """

    n: int = 3
    m: int = 7
    shots: int = 1024
    name: str = "qae"

    @property
    def flag(self) -> int:
        return self.n - 1

    @property
    def state_qubits(self) -> int:
        return self.n + self.m

    def make_input(self, rng: np.random.Generator):
        a = np.abs(rng.normal(size=1 << self.n))
        return a / np.linalg.norm(a), int(rng.integers(1 << 31))

    def run(self, mods, inp):
        a, sample_seed = inp
        f = mods.loaders.load_amplitude(a).circuit
        return mods.extractors.qae_estimate(f, self.m, self.shots, sample_seed, flag=self.flag)

    def check(self, mods, inp, result) -> bool:
        a, _ = inp
        idx = np.arange(a.size)
        mu = float(np.sum(a[(idx >> self.flag) & 1 == 1] ** 2))
        # Brassard-Hoyer-Mosca-Tapp error bound (quant-ph/0005055, Thm 12, k=1).
        big_m = 1 << self.m
        bound = 2 * math.pi * math.sqrt(mu * (1 - mu)) / big_m + math.pi**2 / big_m**2
        return abs(result.estimate - mu) <= bound


@dataclass(frozen=True)
class WideSample:
    """Angle load -> run -> sample -> decode on a wide (4 MiB) state.

    Gate application is bandwidth-bound; sampling and decode/marginals each
    take about a third of an instance.
    """

    n: int = 18
    shots: int = 1 << 13
    name: str = "wide_sample"

    @property
    def state_qubits(self) -> int:
        return self.n

    def make_input(self, rng: np.random.Generator):
        return rng.uniform(0.0, np.pi / 2, size=self.n), int(rng.integers(1 << 31))

    def run(self, mods, inp):
        thetas, sample_seed = inp
        circuit = mods.loaders.load_angle(thetas).circuit
        state = mods.sim.run(circuit)
        shots = mods.sim.sample_shots(state, {"data": tuple(range(self.n))}, self.shots, sample_seed)
        decoded = mods.encodings.decode(mods.encodings.Angle(self.n), state)
        return shots, decoded

    def check(self, mods, inp, result) -> bool:
        thetas, _ = inp
        shots, decoded = result
        got = np.asarray(decoded.values, dtype=np.float64)
        if got.shape != thetas.shape or np.max(np.abs(got - thetas)) > 1e-9:
            return False
        outcomes = np.fromiter((s.measured_bits["data"] for s in shots), dtype=np.int64, count=len(shots))
        if outcomes.size != self.shots:
            return False
        p1 = np.sin(thetas) ** 2
        freq = ((outcomes[:, None] >> np.arange(self.n)) & 1).mean(axis=0)
        # Bernstein's inequality holds for every p, where a k-sigma normal
        # bound fails near p = 0 or 1 (one miss in 8192 shots at
        # p = 1 - 1e-6 is a 10-sigma event).  With exponent 28 a correct
        # program trips it with probability ~1e-12 per qubit; at p = 1/2 the
        # tolerance is 7.7 sigma.
        n, exponent = self.shots, 28.0
        lin = 2 * exponent / 3
        tol = (lin + np.sqrt(lin**2 + 8 * n * exponent * p1 * (1 - p1))) / (2 * n)
        return bool(np.all(np.abs(freq - p1) <= tol))


WORKLOADS = {w.name: w for w in (AmpRoundtrip(), Qae(), WideSample())}
