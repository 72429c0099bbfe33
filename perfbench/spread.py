"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--trace 0]

For every metric: the median over the runs and the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the bound in BENCHMARK.json.  Runs one seed at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        digest = next((line.split()[1] for line in lines if line.startswith("output_digest")), "")
        print(f"seed {seed}: correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed, digest {digest[:16]}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:40s} median {med:.6g}  spread {spread:.3f}  bound {bounds.get(name)}  "
              f"values {' '.join(f'{v:.4g}' for v in vals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
