"""Self-tests of the benchmark harness, kept out of the tier-1 suite (the
file name does not match pytest's ``test_*.py`` pattern).  Run them with

    python3 -m pytest -q benchmarks/selftest.py
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, AmpRoundtrip, Qae, WideSample, instance_rng  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "amp_roundtrip": AmpRoundtrip(n=3),
    "qae": Qae(n=2, m=3, shots=64),
    "wide_sample": WideSample(n=4, shots=256),
}


def tiny_run(workload, trace, tmp_path, seed=3):
    return bench.run(
        workload,
        seed,
        0.0,
        trace,
        min_instances=4,
        setup_reps=1,
        sweep_qubits=6,
        trace_dir=tmp_path,
    )


def test_benchmark_json_names_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_seed_and_index(name):
    w = WORKLOADS[name]
    a = w.make_input(instance_rng(7, 5))
    b = w.make_input(instance_rng(7, 5))
    c = w.make_input(instance_rng(7, 6))
    flat = lambda x: np.concatenate([np.ravel(v) for v in (x if isinstance(x, tuple) else (x,))])  # noqa: E731
    assert np.array_equal(flat(a), flat(b))
    assert not np.array_equal(flat(a), flat(c))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    result, extra = tiny_run(TINY[name], trace, tmp_path)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert extra["error_rate"] == 0.0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    if trace:
        spans = np.load(tmp_path / f"{name}.npz")
        assert spans["start"].size == spans["end"].size > 0
    else:
        assert all(result["metrics"][k]["value"] > 0 for k in expected)


class Corrupted:
    """A workload whose instances return a damaged result (or raise)."""

    def __init__(self, inner, damage):
        self.inner, self.damage = inner, damage

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def run(self, mods, inp):
        return self.damage(self.inner.run(mods, inp))


def _raise(_):
    raise ValueError("injected failure")


DAMAGE = {
    "amp_phase": ("amp_roundtrip", lambda d: SimpleNamespace(values=np.roll(d.values, 1))),
    "qae_estimate": ("qae", lambda r: dataclasses.replace(r, estimate=r.estimate + 1.0)),
    "wide_angles": ("wide_sample", lambda r: (r[0], SimpleNamespace(values=r[1].values + 1e-6))),
    "wide_shots": (
        "wide_sample",
        lambda r: ([SimpleNamespace(measured_bits={"data": 0})] * len(r[0]), r[1]),
    ),
    "raises": ("qae", _raise),
}


@pytest.mark.parametrize("case", sorted(DAMAGE))
def test_corrupted_result_counts_as_failure(case, tmp_path):
    name, damage = DAMAGE[case]
    result, extra = tiny_run(Corrupted(TINY[name], damage), False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 4
    assert extra["error_rate"] == 1.0


@pytest.mark.parametrize("name", sorted(TINY))
def test_layer_self_times_within_instance_wall(name, tmp_path):
    result, extra = tiny_run(TINY[name], True, tmp_path)
    instances, calls, self_ns, dur_ns = extra["tracer"].table()
    root = extra["tracer"].name_ids[tracing.INSTANCE]
    assert instances.size >= 2 and np.all(calls[:, root] == 1)
    layers = np.delete(self_ns, root, axis=1)
    assert np.all(layers >= 0)
    assert np.all(layers.sum(axis=1) <= dur_ns[:, root])
    shares = sum(v["value"] for k, v in result["metrics"].items() if k.startswith("share."))
    assert 0 < shares <= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("traces", "__pycache__"))
    cmd = [*SPEC["command"], "--workload", "qae", "--seed", "1", "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
