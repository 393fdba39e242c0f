"""Run one workload N times, each in a fresh process, and show the spread.

    python3 perfbench/repeat.py --workload des-revisit --runs 10

Runs ``perfbench/run.py`` one process after another with seeds 1..N and
prints, per metric, the median, the first and third quartiles
(``statistics.quantiles(n=4)``), the spread ``(q3 - q1) / median`` and the
bound ``BENCHMARK.json`` fixes.  Exits non-zero when a run fails, a check
fails, the share of failed operations differs between runs, or a spread
exceeds its bound.  This is how the bounds were set and are checked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results = []
    for seed in range(1, args.runs + 1):
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{name}={metric['value']:.4g}"
                         for name, metric in result["metrics"].items()),
              flush=True)

    ok = all(result["correct"] for result in results)
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    if len(shares) > 1:
        ok = False
    print(f"failed share: {sorted(str(s) for s in shares)}")
    print(f"{'metric':40s} {'unit':>6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = metric["bound"]
        flag = "ok" if spread <= bound / 3 else "WIDE" \
            if spread > bound else "over a third"
        if spread > bound:
            ok = False
        print(f"{metric['name']:40s} {metric['unit']:>6s} {median:12.5g} "
              f"{q1:12.5g} {q3:12.5g} {spread:7.2%} {bound:6.2f} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
