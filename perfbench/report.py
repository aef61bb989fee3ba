"""Print benchmark results: every metric by name and unit, and Table 2
(par vs seq) and Figure 3 (generated vs hand-written) in the row format
of EXPERIMENTS.md.

    python3 perfbench/report.py [RESULTS.json ...]

Without arguments it reads the newest untraced and traced result of each
workload from ``.perfbench_out/results/``.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench_out" / "results"

# Figure 3 as the paper reports it (EXPERIMENTS.md's last column).
PAPER_FINDING = {
    "PageRank": 'slower, "erratic" (extra triple join)',
    "Matrix Factorization": "slower (unnecessary generated joins)",
    "KMeans": "much slower (centroids joined, not broadcast)",
}


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _winner(par, seq):
    if par is None or seq is None:
        return ""
    return f"par {seq / par:.2g}×" if par <= seq else f"**seq {par / seq:.2g}×**"


def print_metrics(res, units, file):
    print(f"\n## {res['workload']} (seed {res['seed']}, trace {res['trace']}, "
          f"{res['attempted']} executions, {res['failed']} failed)\n", file=file)
    print("| metric | value | unit |\n|---|---|---|", file=file)
    for k, v in res["metrics"].items():
        print(f"| {k} | {_fmt(v)} | {units.get(k, '')} |", file=file)
    for f in res["failures"]:
        print(f"FAILED {f['what']}: {f['detail'].strip().splitlines()[-1]}", file=file)


def print_table2(rows, file):
    from repro.programs.suite import BY_NAME

    print("\n## Table 2 — par vs seq evaluation time in secs\n", file=file)
    print("Ours are medians of wall time; the winner compares wall with wall. "
          "seq CPU is this process's CPU time, the figure behind `seq_s`.\n", file=file)
    print("| program | input rows (ours) | par (paper s) | par (ours s) | seq (paper s) "
          "| seq (ours s) | seq CPU (ours s) | winner (paper) | winner (ours) |", file=file)
    print("|---|---|---|---|---|---|---|---|---|", file=file)
    for r in rows:
        paper = BY_NAME[r["program"]].paper_t2 or {}
        print(f"| {r['program']} | {r['input_rows']:,} | {paper.get('par', '')} "
              f"| {r['par_s']:.2f} | {paper.get('seq', '')} | {r['seq_wall_s']:.2f} "
              f"| {r['seq_s']:.2f} | {_winner(paper.get('par'), paper.get('seq'))} "
              f"| {_winner(r['par_s'], r['seq_wall_s'])} |", file=file)


def print_figure3(rows, file):
    print("\n## Figure 3 — DIABLO vs hand-written Spark\n", file=file)
    print("Times are medians of wall time; the ratio is the median over rounds of "
          "par wall time over the mean of the two hand-written runs around it.\n",
          file=file)
    print("| program | DIABLO (ours s) | hand-written (ours s) | ratio | paper's finding |",
          file=file)
    print("|---|---|---|---|---|", file=file)
    for r in sorted(rows, key=lambda r: r["par_over_hand"]):
        print(f"| {r['program']} | {r['par_s']:.2f} | {r['hand_s']:.2f} "
              f"| {r['par_over_hand']:.2f}× | {PAPER_FINDING.get(r['program'], 'comparable')} |",
              file=file)
    if rows:
        g = math.exp(sum(math.log(r["par_over_hand"]) for r in rows) / len(rows))
        print(f"| geometric mean | | | {g:.2f}× | |", file=file)


def print_trace_rows(rows, file):
    print("\n## Per program, traced\n", file=file)
    keys = [k for k in rows[0] if k not in ("program", "statements")] if rows else []
    for r in rows:
        print(f"- {r['program']}: " + ", ".join(f"{k}={_fmt(r[k])}" for k in keys), file=file)
        for s in r["statements"]:
            print(f"    {s['stmt']}: {s['s']:.4f} s, " + ", ".join(
                f"{k}={s[k]}" for k in s if k not in ("stmt", "s") and s[k] is not None),
                file=file)


def print_run(res, units, file=sys.stdout):
    print_metrics(res, units, file)
    if res["trace"]:
        print_trace_rows(res["programs"], file)
        if res.get("unstable_counts"):
            print(f"programs whose counts never repeated: {res['unstable_counts']}",
                  file=file)
    else:
        print_table2(res["programs"], file)
        print_figure3(res["programs"], file)


def main(paths) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if not paths:
        newest = {}
        for p in sorted(RESULTS.glob("*.json"), key=lambda p: p.stat().st_mtime):
            res = json.loads(p.read_text())
            newest[(res["workload"], res["trace"])] = p
        paths = [newest[k] for k in sorted(newest)]
    if not paths:
        print("no results; run perfbench/run.py first", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    untraced = []
    for p in paths:
        res = json.loads(Path(p).read_text())
        print_metrics(res, units, sys.stdout)
        if res["trace"]:
            print_trace_rows(res["programs"], sys.stdout)
        else:
            untraced += res["programs"]
    if untraced:
        print_table2(untraced, sys.stdout)
        print_figure3(untraced, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
