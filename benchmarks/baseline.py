"""Run every workload untraced and traced, print every metric by name and
unit, and optionally save the results as a baseline file.

    python3 benchmarks/baseline.py                      # print only
    python3 benchmarks/baseline.py --out benchmarks/BENCH_0.json

Each run is its own process (``benchmarks/run.py``), so peak RSS is that of
one workload.  Settings (command, run length) come from ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict, dict]:
    """(last-line result, machine facts, every "<workload> <name> <value> <unit>"
    line as {name: {"value", "unit"}}) of one run."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable  # the command names python3
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(line[len("machine ") :]) for line in lines if line.startswith("machine "))
    printed = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[0] == workload:
            printed[fields[1]] = {"value": float(fields[2]), "unit": fields[3]}
    return json.loads(lines[-1]), machine, printed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, help="write the results here as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"seed": args.seed, "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        untraced, machine, printed = run_once(spec, name, args.seed, 0)
        traced, _, _ = run_once(spec, name, args.seed, 1)
        report["machine"] = machine
        # end_to_end holds every printed figure: the metrics, the error rate
        # and the plain wall-clock ones
        entry = {"why": w["why"], "end_to_end": printed}
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        for key, res in (("end_to_end", untraced), ("per_layer", traced)):
            entry[key + "_check"] = {k: res[k] for k in ("correct", "attempted", "failed")}
            ok &= res["correct"]
        report["workloads"][name] = entry
        for metric, m in printed.items():
            print(f"{name:14s} {metric:20s} {m['value']:12.6g} {m['unit']}")
        shares = {k: v for k, v in entry["per_layer"].items() if k.startswith("share.")}
        print(f"{name:14s} layer shares: " + ", ".join(f"{k[6:]} {v:.3f}" for k, v in shares.items()))
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
