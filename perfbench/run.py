"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload des-revisit --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program under test is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics.
With ``--trace 1`` every round runs twice, once plain and once with the
layer wrappers of ``tracing.py`` installed (in alternating order), and the
run reports the per-layer metrics, the tracing overhead, and fails its
check unless both executions produced identical outputs.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
a human-readable summary goes to standard error.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: set-ups per run; ``setup_s`` reports their median plus the imports
SETUP_REPEATS = 3
#: passed operations needed for ten to lie beyond the 90th percentile
P90_MIN_OPS = 100


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _measure(workload, seconds: float, tracer):
    """Closed loop over whole rounds until ``seconds`` have passed."""
    tally = {"attempted": 0, "failed": 0, "passed_s": [], "bytes": 0,
             "problems": Counter(), "mismatches": 0, "plain_s": 0.0,
             "traced_s": 0.0, "traced_cpu_ns": 0}

    def traced(spec):
        workload.tracer = tracer
        tracer.install()
        cpu = time.process_time_ns()
        try:
            return workload.run_round(spec)
        finally:
            tally["traced_cpu_ns"] += time.process_time_ns() - cpu
            tracer.uninstall()
            workload.tracer = None

    start = time.perf_counter()
    cpu_start = time.process_time_ns()
    for index, spec in enumerate(workload.rounds()):
        if tracer is None:
            outcomes = workload.run_round(spec)
        else:
            if index % 2 == 0:
                plain = workload.run_round(spec)
                outcomes = traced(spec)
            else:
                outcomes = traced(spec)
                plain = workload.run_round(spec)
            tally["plain_s"] += sum(op.wall_s for op in plain)
            tally["traced_s"] += sum(op.wall_s for op in outcomes)
            if len(plain) != len(outcomes) or any(
                    a.signature != b.signature
                    or bool(a.problems) != bool(b.problems)
                    for a, b in zip(plain, outcomes)):
                tally["mismatches"] += 1
        for op in outcomes:
            tally["attempted"] += 1
            tally["bytes"] += op.bytes_down
            if op.problems:
                tally["failed"] += 1
                for problem in op.problems:
                    tally["problems"][problem.split(":")[0]] += 1
            else:
                tally["passed_s"].append(op.wall_s)
        if time.perf_counter() - start >= seconds:
            break
    tally["wall_s"] = time.perf_counter() - start
    tally["cpu_ns"] = time.process_time_ns() - cpu_start
    return tally


def main(argv=None) -> int:
    args = _parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"perfbench: no program to measure: {source / 'repro'} is "
              "missing; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    try:
        import workloads
        from tracing import PER_LAYER_METRICS, LayerTracer
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    imports_s = time.perf_counter() - _START
    workload_cls = workloads.WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        begin = time.perf_counter()
        workload = workload_cls(args.seed)
        workload.setup()
        setup_times.append(time.perf_counter() - begin)
    setup_s = imports_s + statistics.median(setup_times)

    tracer = LayerTracer() if args.trace else None
    try:
        tally = _measure(workload, args.seconds, tracer)
        run_problems = workload.finish()
    finally:
        workload.close()

    attempted, failed = tally["attempted"], tally["failed"]
    passed_s = tally["passed_s"]
    if tally["mismatches"]:
        run_problems.append(f"trace-identity: {tally['mismatches']} rounds "
                            "differ between traced and plain execution")
    if not passed_s:
        run_problems.append("no operation passed its checks")
    unexpected = {kind: count for kind, count in tally["problems"].items()
                  if kind not in workload.EXPECTED_FAILURES}
    if unexpected:
        run_problems.append(f"unexpected failures: {unexpected}")
    correct = not run_problems

    if tracer is None:
        passed_ms = sorted(1000.0 * s for s in passed_s) or [0.0]
        p90 = (statistics.quantiles(passed_ms, n=10)[8]
               if len(passed_ms) > 1 else passed_ms[0])
        values = {
            "ops_per_s": (len(passed_s) / tally["wall_s"], "1/s"),
            "op_ms_p50": (statistics.median(passed_ms), "ms"),
            "op_ms_p90": (p90, "ms"),
            "cpu_ms_per_op": (tally["cpu_ns"] / 1e6 / max(attempted, 1),
                              "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MiB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        overhead = (tally["traced_s"] - tally["plain_s"]) \
            / max(attempted, 1) * 1000.0
        layer = tracer.report(attempted, tally["traced_cpu_ns"],
                              tally["bytes"], overhead)
        values = {name: (layer[name], unit)
                  for name, unit in PER_LAYER_METRICS}
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in values.items()}

    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {attempted} attempted, {failed} failed, "
          f"{len(passed_s)} passed in {tally['wall_s']:.1f}s; "
          f"set-ups {', '.join(f'{t:.2f}s' for t in setup_times)} "
          f"after {imports_s:.2f}s of imports", file=sys.stderr)
    for kind, count in sorted(tally["problems"].items()):
        print(f"  failed check {kind}: {count}", file=sys.stderr)
    for problem in run_problems:
        print(f"  run check failed: {problem}", file=sys.stderr)
    if tracer is None and len(passed_s) < P90_MIN_OPS:
        print(f"  warning: {len(passed_s)} passed operations leave fewer "
              "than ten beyond the 90th percentile", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
