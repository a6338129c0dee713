"""The evosql benchmark: one command per workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The program is imported from ``src/``
beside this directory; everything the benchmark writes goes under
``perfbench/.work/``.

With ``--trace 0`` the workload runs untraced timed units for ``--seconds``
and reports the end-to-end metrics. With ``--trace 1`` it spends half the
time on untraced units and half on traced ones, and reports the per-layer
metrics, including the tracing overhead. Either way it checks the program's
outputs, prints a readable report, and prints as its last line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. A violated
correctness gate makes the exit code 1.
"""

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

# Every end-to-end metric: (name, unit). The workload decides what its work
# item and operation are; see README.md in this directory.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Put the checkout's src/ first on the path and import evosql from it.

    Exits non-zero, before any work, when the checkout holds no program.
    """
    package = ROOT / "src" / "evosql" / "__init__.py"
    if not package.is_file():
        sys.exit(f"no evosql sources at {package.parent}; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import evosql

    if Path(evosql.__file__).resolve() != package.resolve():
        sys.exit(f"imported evosql from {evosql.__file__}, expected {package}")


def run_units(workload, seconds: float, tracer_factory=None, first_index: int = 0):
    """Run timed units until seconds have passed (at least one unit).

    With tracer_factory, each unit runs under a fresh tracer, returned
    beside the unit's result.
    """
    results = []
    deadline = time.perf_counter() + seconds
    index = first_index
    while not results or time.perf_counter() < deadline:
        tracer = None
        if tracer_factory:
            tracer = tracer_factory()
            tracer.install()
        try:
            result = workload.unit(index, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        results.append((result, tracer))
        index += 1
    return results


def gate(results, digest_path: Path) -> list[str]:
    """Cross-unit and cross-invocation checks of the run digest."""
    violations = [v for r, _ in results for v in r.violations]
    digests = {r.digest for r, _ in results}
    if len(digests) > 1:
        violations.append(f"output digest differs between repeats: {sorted(digests)}")
    digest = next(iter(digests))
    if digest_path.is_file():
        recorded = json.loads(digest_path.read_text())["digest"]
        if recorded != digest:
            violations.append(f"output digest {digest} differs from an earlier run of "
                              f"this seed ({recorded})")
    else:
        digest_path.write_text(json.dumps({"digest": digest}) + "\n")
    return violations


def end_to_end(workload, results) -> tuple[dict, list[str]]:
    from tracer import TAIL_PERCENTILE, percentile, tail

    units = [r for r, _ in results]
    setup = [s for r in units for s in r.setup]
    ops = [op for r in units for op in r.ops]
    run_s = statistics.median(r.run_s for r in units)
    values = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "work_per_s": statistics.median(r.work / r.run_s for r in units),
        "op_p50_ms": percentile(ops, 50) * 1e3,
        # Each unit makes the same number of operations, so a unit's tail
        # always sits at the same rank, however many units the run fits.
        "op_tail_ms": statistics.median(tail(r.ops) for r in units) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = [
        f"setup_s = {values['setup_s']:.6f} s (median of {len(setup)} set-ups)",
        f"run_s = {run_s:.4f} s (median of {len(units)} units)",
        f"work_per_s = {values['work_per_s']:.4g} 1/s, reported as "
        f"{workload.work_label} (median of {len(units)} units; "
        f"{units[0].work} work items per unit)",
        f"op_p50_ms = {values['op_p50_ms']:.3f} ms, p50 {workload.op_label} latency "
        f"({len(ops)} samples)",
        f"op_tail_ms = {values['op_tail_ms']:.3f} ms, p{TAIL_PERCENTILE:g} "
        f"{workload.op_label} latency of each unit's {len(units[0].ops)} samples "
        f"(median of {len(units)} units)",
        f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB",
    ]
    analyze = [r.analyze_s for r in units if r.analyze_s is not None]
    if analyze:
        report.append(f"analyze_p50_s = {statistics.median(analyze):.4f} s "
                      f"({len(analyze)} samples)")
    return values, report


def per_layer(untraced, traced) -> tuple[dict, list[str]]:
    from tracer import layer_metrics
    from workloads import WORKERS

    per_unit = []
    for result, tracer in traced:
        metrics = layer_metrics(tracer.spans, WORKERS)
        metrics["orchestrator.state_bytes"] = float(result.state_bytes)
        metrics["failed_frac"] = result.failed / result.attempted
        per_unit.append(metrics)
    values = {name: statistics.median(m[name] for m in per_unit) for name in per_unit[0]}
    values["trace_overhead_frac"] = (
        statistics.median(r.run_s for r, _ in traced)
        / statistics.median(r.run_s for r, _ in untraced) - 1
    )
    report = [f"per-layer metrics: median of {len(traced)} traced units; tracing overhead "
              f"against {len(untraced)} untraced units"]
    return values, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one evosql benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the smoke test")
    args = parser.parse_args(argv)

    import_program()
    from tracer import LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work_dir = WORK / args.workload / f"seed{args.seed}-{args.size}"
    (work_dir / "tmp").mkdir(parents=True, exist_ok=True)
    # The program stages tool runs and drafts in temporary directories; keep
    # them inside the checkout.
    tempfile.tempdir = str(work_dir / "tmp")

    workload = WORKLOADS[args.workload](work_dir, args.seed, args.size)
    workload.prepare()
    if args.trace:
        untraced = run_units(workload, args.seconds / 2)
        traced = run_units(workload, args.seconds / 2, Tracer, first_index=len(untraced))
        spans_path = work_dir / "spans.jsonl"
        spans_path.unlink(missing_ok=True)
        for index, (_, tracer) in enumerate(traced):
            tracer.write(spans_path, index)
        results = untraced + traced
        metrics, report = per_layer(untraced, traced)
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        results = run_units(workload, args.seconds)
        metrics, report = end_to_end(workload, results)
        units = dict(END_TO_END)

    workload.cleanup()
    violations = gate(results, work_dir / "digest.json")
    attempted = sum(r.attempted for r, _ in results)
    failed = sum(r.failed for r, _ in results) + len(violations)
    correct = not violations and failed == 0

    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, "
          f"trace {args.trace}")
    print("inputs: " + json.dumps(workload.inputs["sizes"], sort_keys=True))
    for line in report:
        print(line)
    print(f"failed_frac = {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for violation in violations:
        print(f"GATE VIOLATION: {violation}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
