"""In-memory spans around enqode's layer boundaries, and the per-layer
metrics derived from them.

The tracer replaces each traced public function on the module its callers
look it up in (``sim.apply_circuit`` finds ``apply_gate`` in ``sim``,
``loaders`` binds ``build_state_tree`` from ``trees``, ``extractors`` binds
``qft_circuit`` from ``converters``), so nothing under ``src/`` changes and
uninstalling restores the originals.  A span is (name, start, end, parent,
instance); a layer's self time is its spans' durations minus the part their
child spans cover.  Counts that need a call's result are taken after the
instance ends, so they add nothing to any span.
"""
from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("trees", "loaders", "sim", "encodings", "extractors", "converters")
GATE_KINDS = ("x", "h", "ry", "p", "cnot", "cp", "swap", "cry", "mry", "perm")
INSTANCE = "bench.instance"

# (module the caller looks the function up in, attribute, span name)
TRACED = (
    ("loaders", "build_state_tree", "trees.build_state_tree"),
    ("loaders", "tree_to_angles", "trees.tree_to_angles"),
    ("loaders", "load_amplitude", "loaders.load_amplitude"),
    ("loaders", "load_angle", "loaders.load_angle"),
    ("sim", "run", "sim.run"),
    ("sim", "apply_circuit", "sim.apply_circuit"),
    ("sim", "apply_gate", "sim.apply_gate"),
    ("sim", "sample_shots", "sim.sample_shots"),
    ("sim", "marginal_probabilities", "sim.marginal_probabilities"),
    ("encodings", "decode", "encodings.decode"),
    ("extractors", "qae_estimate", "extractors.qae_estimate"),
    ("extractors", "qae_circuit", "extractors.qae_circuit"),
    ("extractors", "mode_readout", "extractors.mode_readout"),
    ("extractors", "qft_circuit", "converters.qft_circuit"),
)

SPAN_NAMES = (INSTANCE,) + tuple(
    name for _, _, name in TRACED if name != "sim.apply_gate"
) + tuple(f"sim.apply_gate.{k}" for k in GATE_KINDS)


def _loader_counts(out, args):
    return {"loaders.gates_emitted": len(out.circuit.gates), "loaders.cnots_emitted": out.circuit.cnot_count}


# Counts taken from (result, args) once the instance has ended; they add up
# over an instance, except the norm drift, whose maximum is kept.
HOOKS = {
    "trees.build_state_tree": lambda res, args: {"trees.leaves": int(np.size(args[0]))},
    "loaders.load_amplitude": _loader_counts,
    "loaders.load_angle": _loader_counts,
    "sim.sample_shots": lambda res, args: {"sim.shots": int(args[2])},
    "sim.run": lambda res, args: {"sim.norm_drift": abs(res.norm_sq - 1.0)},
    "extractors.qae_circuit": lambda res, args: {"extractors.gates_emitted": len(res.gates)},
    "extractors.qae_estimate": lambda res, args: {"extractors.oracle_queries": res.oracle_queries},
}
COUNT_KEYS = (
    "trees.leaves",
    "loaders.gates_emitted",
    "loaders.cnots_emitted",
    "sim.shots",
    "sim.norm_drift",
    "extractors.gates_emitted",
    "extractors.oracle_queries",
)


class Tracer:
    """Span recorder for one run; spans live in flat typed arrays."""

    def __init__(self, mods):
        self.mods = mods
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.instance = array("i")
        self.stack = [-1]
        self.current = -1
        self.errors = dict.fromkeys(LAYERS, 0)
        self.pending: list = []
        self.counts: dict[int, dict] = {}
        self.originals = {}
        self.wrappers = {}
        for mod_name, attr, span in TRACED:
            mod = getattr(mods, mod_name)
            fn = getattr(mod, attr)
            self.originals[(mod_name, attr)] = fn
            self.wrappers[(mod_name, attr)] = self._wrap(fn, span)

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.instance.append(self.current)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, fn, span: str):
        layer = span.split(".", 1)[0]
        hook = HOOKS.get(span)
        if span == "sim.apply_gate":
            kind_ids = {k: self.name_ids[f"sim.apply_gate.{k}"] for k in GATE_KINDS}
            name_of = lambda args: kind_ids[args[1].kind]  # noqa: E731
        else:
            fixed = self.name_ids[span]
            name_of = lambda args: fixed  # noqa: E731

        def traced(*args, **kwargs):
            i = self._open(name_of(args))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                self._close(i)
            if hook is not None:
                self.pending.append((hook, result, args))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for (mod_name, attr), fn in self.wrappers.items():
            setattr(getattr(self.mods, mod_name), attr, fn)

    def uninstall(self) -> None:
        for (mod_name, attr), fn in self.originals.items():
            setattr(getattr(self.mods, mod_name), attr, fn)

    def run_instance(self, index: int, call):
        """Run ``call()`` as traced instance ``index``; returns its result."""
        self.current = index
        self.install()
        root = self._open(self.name_ids[INSTANCE])
        try:
            return call()
        finally:
            self._close(root)
            self.uninstall()
            self.current = -1
            counts = dict.fromkeys(COUNT_KEYS, 0)
            for hook, result, args in self.pending:
                for key, value in hook(result, args).items():
                    combine = max if key == "sim.norm_drift" else sum
                    counts[key] = combine((counts[key], value))
            self.pending.clear()
            self.counts[index] = counts

    def table(self):
        """Per-instance, per-span-name sums: (instances, calls, self_ns, dur_ns)."""
        name = np.frombuffer(self.name, dtype=np.int16).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        inst = np.frombuffer(self.instance, dtype=np.int32).astype(np.int64)
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_ns = dur - covered
        instances, row = np.unique(inst, return_inverse=True)
        k = len(SPAN_NAMES)
        key = row * k + name
        size = instances.size * k
        calls = np.bincount(key, minlength=size).reshape(-1, k)
        self_sum = np.bincount(key, weights=self_ns, minlength=size).reshape(-1, k)
        dur_sum = np.bincount(key, weights=dur, minlength=size).reshape(-1, k)
        return instances, calls, self_sum, dur_sum

    def write(self, path: Path, machine: dict) -> None:
        """Write every span, the span names and the machine facts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int16),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            instance=np.frombuffer(self.instance, dtype=np.int32),
            span_names=np.array(SPAN_NAMES),
            machine=np.array(json.dumps(machine)),
        )


def floor_s(n: int, reps: int) -> float:
    """Median time of one ``psi * 1.0`` pass over an n-qubit state: the
    cheapest full read+write of the state numpy can do."""
    psi = np.ones(1 << n, dtype=np.complex128) / np.sqrt(1 << n)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        out = psi * 1.0
        times.append(time.perf_counter_ns() - t0)
    del out
    return float(np.median(times)) * 1e-9


def kernel_sweep(sim, n: int, seed: int, reps: int = 3) -> dict:
    """``sim.apply_gate`` once per gate kind on a seeded n-qubit state,
    against a ``psi * 1.0`` floor timed in the same call.  Each kind is the
    median of ``reps`` calls; ``perm`` is reported with its destination
    cache warm.  Returns {metric name: value}."""
    rng = np.random.Generator(np.random.PCG64(seed))
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi /= np.linalg.norm(psi)
    t, c1, c2 = n // 2, 1, n - 2
    gates = {
        "x": sim.x(t),
        "h": sim.h(t),
        "ry": sim.ry(0.3, t),
        "p": sim.p(0.3, t),
        "cnot": sim.cnot(c1, t),
        "cp": sim.cp(0.3, c1, t),
        "swap": sim.swap(c1, t),
        "cry": sim.cry(0.3, c1, t),
        "mry": sim.multiplexed_ry([0.1, 0.2, 0.3, 0.4], [c1, c2], t),
        "perm": sim.permutation((0, 1, 2, 5, 4, 3, 6, 7), (c1, c2, t)),
    }
    floor = floor_s(n, 7)
    out = {"sim.kernel_floor_s": floor}
    for kind in GATE_KINDS:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            sim.apply_gate(psi, gates[kind], n)
            times.append(time.perf_counter_ns() - t0)
        out[f"sim.kernel_floor_ratio.{kind}"] = float(np.median(times)) * 1e-9 / floor
    return out


def layer_metrics(tracer: Tracer, state_qubits: int, floor: float) -> dict:
    """Per-instance medians of every per-layer metric over the traced
    instances (counts are exact when they do not vary between instances)."""
    instances, calls, self_ns, dur_ns = tracer.table()
    ids = tracer.name_ids
    s = 1e-9

    def col(a, name):
        return a[:, ids[name]]

    def cols(a, prefix):
        return sum(a[:, i] for name, i in ids.items() if name.startswith(prefix))

    def counts(key):
        return np.array([tracer.counts[int(i)][key] for i in instances], dtype=np.float64)

    wall = col(dur_ns, INSTANCE) * s
    gate_n = cols(calls, "sim.apply_gate.")
    gate_s = cols(dur_ns, "sim.apply_gate.") * s
    sample_s = col(dur_ns, "sim.sample_shots") * s
    marginal_s = col(dur_ns, "sim.marginal_probabilities") * s
    sim_s = cols(self_ns, "sim.") * s
    layer_s = {layer: cols(self_ns, layer + ".") * s for layer in LAYERS}
    shots = counts("sim.shots")
    gate_us = np.divide(gate_s * 1e6, gate_n, out=np.zeros_like(gate_s), where=gate_n > 0)

    per_instance = {
        "trees.calls": cols(calls, "trees."),
        "trees.leaves": counts("trees.leaves"),
        "trees.self_s": layer_s["trees"],
        "loaders.calls": cols(calls, "loaders."),
        "loaders.self_s": layer_s["loaders"],
        "loaders.gates_emitted": counts("loaders.gates_emitted"),
        "loaders.cnots_emitted": counts("loaders.cnots_emitted"),
        # loader self time over the simulator's state-update time
        "loaders.build_to_run_ratio": layer_s["loaders"] / (sim_s - sample_s - marginal_s),
        "sim.gate_us_mean": gate_us,
        "sim.apply_s": col(self_ns, "sim.apply_circuit") * s,
        "sim.floor_ratio": gate_us * 1e-6 / floor,
        "sim.bytes_moved_computed": gate_n * 2 * 16 * (1 << state_qubits),
        "sim.sample_s": sample_s,
        "sim.shots": shots,
        "sim.sample_us_per_shot": np.divide(
            sample_s * 1e6, shots, out=np.zeros_like(sample_s), where=shots > 0
        ),
        "sim.marginal_calls": col(calls, "sim.marginal_probabilities"),
        "sim.marginal_s": marginal_s,
        "encodings.decode_calls": col(calls, "encodings.decode"),
        "encodings.decode_s": layer_s["encodings"],
        "extractors.build_s": col(self_ns, "extractors.qae_circuit") * s,
        "extractors.gates_emitted": counts("extractors.gates_emitted"),
        "extractors.readout_s": col(self_ns, "extractors.mode_readout") * s,
        "extractors.oracle_queries": counts("extractors.oracle_queries"),
        "converters.calls": cols(calls, "converters."),
        "converters.build_s": layer_s["converters"],
        "share.trees": layer_s["trees"] / wall,
        "share.loaders": layer_s["loaders"] / wall,
        "share.sim_gates": gate_s / wall,
        "share.sim_apply": (sim_s - gate_s - sample_s - marginal_s) / wall,
        "share.sim_sample": sample_s / wall,
        "share.sim_marginal": marginal_s / wall,
        "share.encodings": layer_s["encodings"] / wall,
        "share.extractors": layer_s["extractors"] / wall,
        "share.converters": layer_s["converters"] / wall,
    }
    for kind in GATE_KINDS:
        per_instance[f"sim.gates.{kind}"] = col(calls, f"sim.apply_gate.{kind}")
        per_instance[f"sim.gate_s.{kind}"] = col(dur_ns, f"sim.apply_gate.{kind}") * s
    out = {name: float(np.median(v)) for name, v in per_instance.items()}
    out["sim.floor_s"] = floor
    out["sim.norm_drift_max"] = float(np.max(counts("sim.norm_drift")))
    for layer in LAYERS:
        out[f"{layer}.errors"] = float(tracer.errors[layer])
    return out
