"""DIABLO benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload groupby_merge --seed 1 --seconds 20 --trace 0

Run from the repository root. Workloads (see ``settings.json`` for the
programs and sizes of each):

* ``groupby_merge``  Word Count, Histogram, Group-By: group-by, outer
  lookup of a freshly initialised target, full-outer-join merge; this
  run also checks that every suite program compiles and that its
  tiny-size sequential result equals the literal interpreter's;
* ``iterative_join`` PageRank, KMeans: ``while`` loops with a driver
  round trip per test, generated joins, range-fill then incremental
  merge.

A run compiles the workload's programs for a quarter of its compile
share of ``--seconds`` at each of four moments: before the JVM starts,
after set-up, after the measured part and after the JVM stops. It sets
up three times (session, inputs, persist; the first also launches the
JVM) and runs one warm-up iteration whose outputs are collected and
checked against the hand-written programs.

With ``--trace 0`` it then runs rounds (each program hand-written, par,
hand-written; then each program's seq three times) for the rest of
``--seconds`` and reports the end-to-end metrics of ``BENCHMARK.json``
(medians over rounds). The gated metrics resist a shared host's slow
phases: ``seq_s`` and ``compile_ms`` are this process's least CPU time
over their samples, and ``par_over_hand`` is the median over rounds of
par wall time divided by that of the hand-written runs around it. Plain
wall times (``par_s``, ``hand_s``) and the host's stolen CPU share
(``steal``) are in the results file and the report. ``pass_rate`` is the
lowest share of passing executions over (program, engine) cells. With
``--trace 1`` it makes two traced passes around one untraced one, and a
third traced pass when some program's Spark counts differ between the
first two, and reports the per-layer metrics. The full results (per-
program rows, samples, spans, settings, seed and sizes) go to
``.perfbench_out/results/``; the human-readable report goes to standard
error and the last line of standard output is the JSON summary.
``python3 perfbench/report.py`` prints Table 2 and Figure 3 from the
saved results of every workload.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def load_metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def parse_args(workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def main() -> int:
    if not (ROOT / "src" / "repro" / "core" / "pipeline.py").is_file():
        print("perfbench: no DIABLO sources under src/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    settings = json.loads((HERE / "settings.json").read_text())
    args = parse_args(sorted(settings["workloads"]))
    specs = load_metric_specs()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    scratch = str(OUT / "scratch")
    import sparkenv

    cores = min(settings["spark"]["max_cores"], os.cpu_count() or 1)
    sparkenv.configure_jvm(cores, scratch)
    import report
    from workload import Run, geomean

    run = Run(args.workload, settings, args.seed, args.seconds, scratch)
    extra = {}
    phases = {"imports": time.perf_counter() - T0}
    run.compile_phase(bool(args.trace))
    try:
        run.set_up()
        phases["setup"] = time.perf_counter() - T0
        run.compile_phase(bool(args.trace))
        if args.trace:
            metrics, rows, unstable = run.trace()
            extra["unstable_counts"] = unstable
        else:
            rows, extra = run.measure()
            metrics = {
                "par_s": sum(r["par_s"] for r in rows),
                "seq_s": sum(r["seq_s"] for r in rows),
                "par_over_hand": geomean([r["par_over_hand"] for r in rows]),
                "steal": statistics.median(r["steal"] for r in rows),
            }
        phases["measure"] = time.perf_counter() - T0
        run.compile_phase(bool(args.trace))
        run.tiny_check()
        metrics.update(run.setup_metrics())
    finally:
        sparkenv.shutdown(run.spark)
    phases["shutdown"] = time.perf_counter() - T0
    run.compile_phase(bool(args.trace))
    metrics.update(run.compile_metrics(bool(args.trace)))

    metrics["pass_rate"] = run.pass_rate()
    metrics["fail_rate"] = run.failed / max(1, run.attempted)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = specs[args.trace]
    reported = {k: {"value": metrics[k] if math.isfinite(metrics[k]) else None, "unit": u}
                for k, u in units.items() if k in metrics}
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": cores, "driver_memory": sparkenv.driver_memory(),
        "settings": settings, "sizes": run.cfg["sizes"], "attempted": run.attempted,
        "failed": run.failed, "failures": run.failures, "metrics": metrics,
        "programs": rows, "setup_samples": run.setup, "spans": run.tracer.spans,
        "phases": phases, **extra,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1, default=str))
    report.print_run(results, {**specs[0], **specs[1]}, file=sys.stderr)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
