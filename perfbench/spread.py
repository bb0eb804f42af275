"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads warm_hits cold_misses --seeds 1-10

For every workload and metric this prints the median of the runs and
the distance between the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.  A metric
whose spread exceeds a third of its bound is marked ``!``.  Runs are
sequential; each run's last output line is appended to ``--log``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log", type=pathlib.Path, default=ROOT / ".perfbench" / "spread.jsonl")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    args.log.parent.mkdir(parents=True, exist_ok=True)
    worst = 0.0
    for workload in args.workloads:
        values: Dict[str, List[float]] = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            with args.log.open("a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({len(args.seeds)} seeds)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            share = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = "!" if bound and share > bound / 3 else " "
            if bound and name != "setup_s":
                worst = max(worst, share / bound)
            print(f" {flag} {name:34s} median {med:12.6g}  iqr/median {share:7.4f}"
                  + (f"  bound {bound}" if bound else ""))
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
