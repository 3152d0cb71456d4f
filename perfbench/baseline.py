#!/usr/bin/env python3
"""Record a baseline of every workload into perfbench/baseline.json.

From the repository root:

    python3 perfbench/baseline.py --seed 1 --seconds 20

Runs run.py once per workload untraced (end-to-end metrics) and once traced
(per-layer metrics), notes the environment, and turns the traced bign_count
spans into the count_weighted cost curve: block pairs visited against self
time, binned by powers of two.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    digest = next(line.split("inputs digest ")[1].split()[0] for line in lines if "inputs digest" in line)
    return json.loads(lines[-1]), digest


def cost_curve(spans_path: Path) -> dict:
    from tracing import Tracer, quadratic_curve

    tracer = Tracer()
    with open(spans_path) as fh:
        tracer.spans = [json.loads(line) for line in fh]
    points = [(pairs, ms) for pairs, ms in quadratic_curve(tracer, tracer.self_times()) if pairs]
    bins: dict[int, list] = {}
    for pairs, ms in points:
        bins.setdefault(pairs.bit_length(), []).append((pairs, ms))
    total_pairs = sum(p for p, _ in points)
    return {
        "source": f"count_weighted spans of the traced run ({spans_path.name}); "
                  "raw wall times on the recording machine, not speed-scaled",
        "ns_per_pair": sum(ms for _, ms in points) * 1e6 / total_pairs,
        "bins": [
            {
                "block_pairs_min": min(p for p, _ in rows),
                "block_pairs_max": max(p for p, _ in rows),
                "calls": len(rows),
                "median_block_pairs": statistics.median(p for p, _ in rows),
                "median_self_ms": statistics.median(ms for _, ms in rows),
            }
            for _, rows in sorted(bins.items())
        ],
    }


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import OUT_DIR
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or None
    out = {
        "commit": commit,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    for name in WORKLOADS:
        e2e, digest = run(name, args.seed, args.seconds, 0)
        layers, _ = run(name, args.seed, args.seconds, 1)
        out["workloads"][name] = {
            "ops_digest": digest,
            "attempted": e2e["attempted"],
            "failed_ratio": e2e["failed"] / e2e["attempted"],
            "correct": e2e["correct"] and layers["correct"],
            "end_to_end": e2e["metrics"],
            "per_layer": layers["metrics"],
        }
        print(f"{name}: done", file=sys.stderr)
    out["count_weighted_cost_curve"] = cost_curve(
        ROOT / OUT_DIR / f"spans-bign_count-seed{args.seed}.jsonl")
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
