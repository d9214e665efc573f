"""Closed-loop benchmark of enqode's encode -> simulate -> extract pipeline.

    python3 benchmarks/run.py --workload qae --seed 1 --seconds 30 --trace 0

One process, one thread, one caller: the next instance starts only when the
previous one has finished and been checked.  With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics instead, from a run whose
instances alternate between traced and untraced (the difference is the
tracing overhead), plus a gate-kernel sweep.  The spans of a traced run are
written to ``benchmarks/traces/<workload>.npz``.  Every metric is also
printed on its own line, by name and unit, before the JSON, together with
the error rate and the plain wall-clock figures.

Time unit ``ref``: on a shared machine the speed of a core swings by up to
1.7x for seconds at a time, so latencies in seconds differ by 15-30% from
one run to the next.  Every instance is therefore also divided by a fixed
reference computation (``Yardstick``) timed on the same core just before
and just after it (the slower of the two); one ``ref`` is one pass of it,
about 3.5 ms on a 2 GHz Xeon core.  The ratio cancels most of the
machine's momentary speed, and the benchmark, not the program, owns the
yardstick.  ``setup_s`` is measured the same way and given in seconds of
the baseline machine (``REF_S`` seconds per ref).

Imports enqode from ``src/`` beside this directory and nowhere else.
"""
from __future__ import annotations

import os

# BLAS threads are held fixed (and reported) so runs compare; must be set
# before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, instance_rng  # noqa: E402

MODULES = ("trees", "loaders", "sim", "encodings", "extractors", "converters")
MIN_INSTANCES = 100  # so at least 10 latency samples lie beyond p90
SETUP_REPS = 5
WARMUP_INSTANCES = 2
SWEEP_QUBITS = 20
FLOOR_REPS = 101
# Median time of one yardstick pass on the machine BENCH_0.json was taken
# on (2 vCPUs of a 2.0 GHz Xeon VM); turns ref into that machine's seconds.
REF_S = 0.0035

UNITS = {
    "throughput_per_kref": "1/kref",
    "latency_p50_ref": "ref",
    "latency_p90_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_ops_s": "1/s",
    "latency_samples": "count",
}


def unit_of(name: str) -> str:
    """Unit of a metric: end-to-end ones are listed, per-layer ones follow
    their naming convention."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s") or ".gate_s." in name:
        return "s"
    if name.endswith("_us_per_shot") or name.endswith("_us_mean"):
        return "us"
    if name.startswith("share.") or "ratio" in name or name.endswith("drift_max"):
        return "ratio"
    if name.startswith("sim.bytes_moved"):
        return "B"
    return "count"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (e.g. enqode's sources are missing)."""


def import_enqode() -> SimpleNamespace:
    """Import enqode afresh from ``src/`` and return its modules.

    Previously imported enqode modules are dropped first, so every call
    pays the full import and starts with empty caches (such as
    ``sim._perm_destinations``).
    """
    if not (SRC / "enqode" / "__init__.py").is_file():
        raise BenchmarkError(f"enqode sources not found under {SRC}")
    for name in [m for m in sys.modules if m == "enqode" or m.startswith("enqode.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("enqode")
    if Path(pkg.__file__).resolve().parent != (SRC / "enqode").resolve():
        raise BenchmarkError(f"imported enqode from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"enqode.{m}") for m in MODULES})


def machine_facts() -> dict:
    def sysconf(code):  # glibc _SC_LEVEL2_CACHE_SIZE / _SC_LEVEL3_CACHE_SIZE
        try:
            return os.sysconf(code)
        except (ValueError, OSError):
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": sysconf(191),
        "l3_bytes": sysconf(194),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas_threads": int(BLAS_THREADS),
    }


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


class Yardstick:
    """A fixed reference computation that says how fast this core runs right
    now.  Other tenants of a shared machine slow the core for seconds at a
    time, and they slow small numpy calls, allocation and memory streaming
    by different amounts; the yardstick does some of each.  Its mix was
    fitted on traces of the three workloads so that each one's slowdown
    tracks the yardstick's (slopes 0.87-1.13 in log-log; a pure-Python loop
    alone gave 1.43 for amp_roundtrip)."""

    def __init__(self):
        self.small = np.ones(1 << 10, dtype=np.complex128)  # 16 KiB, stays in cache
        self.big = np.ones(1 << 18, dtype=np.complex128)  # 4 MiB, streams

    def __call__(self) -> float:
        """Seconds for one pass of the reference computation."""
        t0 = time.perf_counter()
        for _ in range(300):
            self.small * 1.0
        nodes = [_Node(i, (i, i)) for i in range(3_000)]
        self.big * 1.0
        del nodes
        return time.perf_counter() - t0


FAILED = object()


def call_program(workload, mods, inp, call=lambda f: f()):
    """One instance of the program; an exception is reported and returns
    ``FAILED``, so a failing instance is counted, not fatal."""
    try:
        return call(lambda: workload.run(mods, inp))
    except Exception as exc:
        print(f"instance raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return FAILED


def passed(workload, mods, inp, out) -> bool:
    return out is not FAILED and bool(workload.check(mods, inp, out))


def setup(workload, seed: int, reps: int, warmups: int, yardstick: Yardstick):
    """Import enqode and run the untimed warm-up instances, ``reps`` times.

    Returns (modules from the last repetition, set-up seconds, plain median
    wall-clock seconds, whether every warm-up passed its check).  Input generation and the checks are outside
    the timed part.  Like an instance, each repetition is divided by the
    slower of its two yardstick brackets; the median, in ``ref``, is given
    in seconds of the baseline machine (``REF_S``), so that it moves with
    the program and not with the neighbours.
    """
    inputs = [workload.make_input(instance_rng(seed, -1 - i)) for i in range(warmups)]
    ref = yardstick()
    wall, in_ref, ok = [], [], True
    for _ in range(reps):
        t0 = time.perf_counter()
        mods = import_enqode()
        outs = [call_program(workload, mods, inp) for inp in inputs]
        elapsed = time.perf_counter() - t0
        ok &= all(passed(workload, mods, inp, out) for inp, out in zip(inputs, outs))
        after = yardstick()
        wall.append(elapsed)
        in_ref.append(elapsed / max(ref, after))
        ref = after
    return mods, float(np.median(in_ref)) * REF_S, float(np.median(wall)), ok


def closed_loop(workload, mods, seed, seconds, min_instances, yardstick, tracer=None):
    """Instances back to back for ``seconds`` (and at least
    ``min_instances``).  With a tracer, even-numbered instances are traced
    and odd ones are not.

    Each instance is bracketed by passes of the yardstick; the slower of its
    two brackets is its ``ref``.  ``cycle`` is input generation + program +
    check; ``latency`` is the program alone.
    """
    rows = []
    index = 0
    ref = yardstick()
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds or index < min_instances:
        c0 = time.perf_counter()
        inp = workload.make_input(instance_rng(seed, index))
        traced = tracer is not None and index % 2 == 0
        call = (lambda f, i=index: tracer.run_instance(i, f)) if traced else (lambda f: f())
        t0 = time.perf_counter()
        out = call_program(workload, mods, inp, call)
        latency = time.perf_counter() - t0
        ok = passed(workload, mods, inp, out)
        cycle = time.perf_counter() - c0
        after = yardstick()
        rows.append((latency, cycle, max(ref, after), traced, ok))
        ref = after
        index += 1
    cols = [np.array(c) for c in zip(*rows)]
    return SimpleNamespace(**dict(zip(("latency", "cycle", "ref", "traced", "ok"), cols)))


def run(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    min_instances: int = MIN_INSTANCES,
    setup_reps: int = SETUP_REPS,
    sweep_qubits: int = SWEEP_QUBITS,
    trace_dir: Path | None = HERE / "traces",
):
    """One benchmark run.  Returns (result dict as printed, extra facts)."""
    yardstick = Yardstick()
    mods, setup_s, setup_wall_s, warmups_ok = setup(workload, seed, setup_reps, WARMUP_INSTANCES, yardstick)
    # high-water mark of import + warm-up instances (+ the yardstick's 8 MiB)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    machine = machine_facts()
    extra = {"machine": machine}
    if not trace:
        loop = closed_loop(workload, mods, seed, seconds, min_instances, yardstick)
        lat_ref = loop.latency / loop.ref
        metrics = {
            "throughput_per_kref": 1000.0 * loop.ok.sum() / np.sum(loop.cycle / loop.ref),
            "latency_p50_ref": np.percentile(lat_ref, 50),
            "latency_p90_ref": np.percentile(lat_ref, 90),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        extra["seconds"] = {
            "throughput_ops_s": loop.ok.sum() / loop.cycle.sum(),
            "latency_p50_s": np.percentile(loop.latency, 50),
            "latency_p90_s": np.percentile(loop.latency, 90),
            "setup_wall_s": setup_wall_s,
            "ref_s": np.median(loop.ref),
            "latency_samples": loop.latency.size,
        }
    else:
        sweep = tracing.kernel_sweep(mods.sim, sweep_qubits, seed)
        floor = tracing.floor_s(workload.state_qubits, FLOOR_REPS)
        tracer = tracing.Tracer(mods)
        loop = closed_loop(workload, mods, seed, seconds, min_instances, yardstick, tracer)
        metrics = tracing.layer_metrics(tracer, workload.state_qubits, floor)
        metrics.update(sweep)
        lat_ref = loop.latency / loop.ref
        metrics["trace.overhead_ratio"] = (
            np.median(lat_ref[loop.traced]) / np.median(lat_ref[~loop.traced]) - 1.0
        )
        metrics["trace.ref_s"] = np.median(loop.ref)
        extra["tracer"] = tracer
        if trace_dir is not None:
            tracer.write(trace_dir / f"{workload.name}.npz", machine)
    attempted = int(loop.ok.size)
    failed = int(attempted - loop.ok.sum())
    extra["error_rate"] = failed / attempted
    result = {
        "correct": bool(warmups_ok and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return result, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        result, extra = run(workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(extra["machine"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate {extra['error_rate']:.6g} ratio")
    for name, value in extra.get("seconds", {}).items():
        print(f"{args.workload} {name} {value:.6g} {unit_of(name)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
