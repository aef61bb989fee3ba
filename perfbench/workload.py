"""One benchmark run: set-up, the timed loop or the traced passes, and the
output checks.

The only client is this process: one ``SparkSession`` on ``local[n]``
running one program at a time (a closed loop with one client). Every
public function used here is called from outside ``repro``; nothing in
``src/`` is changed or patched.
"""
from __future__ import annotations

import collections
import dataclasses
import gc
import math
import statistics
import time
import traceback

from pyspark.sql import DataFrame

from repro import synth_data as sd
from repro.core import ast as A
from repro.core.backend import run_code
from repro.core.convert import approx_dict_equal, df_to_dict
from repro.core.interp import interpret
from repro.core.normalize import normalize_code
from repro.core.optimize import optimize_code
from repro.core.parser import parse
from repro.core.pipeline import compile_program, run_program
from repro.core.restrictions import check_program
from repro.core.seq_backend import run_code_seq, run_program_seq
from repro.core.translate import TAssign, TInit, TWhile, translate_program
from repro.programs.handwritten import HANDWRITTEN
from repro.programs.suite import BY_NAME

import inputs
import sparkenv

now = time.perf_counter

# Sequential executions of each program per round: one round is all a run
# has time for, and the least of three resists one slow host phase.
SEQ_RUNS = 3
PASS_METRICS = ("parser.parse_ms", "restrictions.check_ms", "translate.translate_ms",
                "normalize.normalize_ms", "optimize.optimize_ms")
_IR_MODULES = {"repro.core.comprehension", "repro.core.translate"}
# Counters that must repeat exactly between two traced passes.
COUNTS = ("jobs", "stages", "tasks", "exchanges", "joins")
# Shuffle volumes are measured like times (mean of two passes), not
# required to repeat: PageRank's while loop wrote a fifth more or fewer
# bytes from pass to pass with the same jobs and tasks, most likely
# because reduce tasks fetch shuffle blocks in arrival order and the next
# shuffle compresses the reordered rows differently.
BYTES = ("shuffle_write_bytes", "shuffle_read_bytes")
# Per-program row fields that are counts; None for a program whose counts
# no two traced passes repeat.
COUNT_METRICS = (
    "backend.jobs", "backend.stages", "backend.tasks", "backend.exchanges", "backend.joins",
    "handwritten.jobs", "handwritten.exchanges", "handwritten.joins",
)
# Traced per-layer metrics, summed over the workload's programs.
TRACED_METRICS = (
    "backend.stmt_s", "backend.force_s", "backend.jobs", "backend.stages", "backend.tasks",
    "backend.executor_run_s", "backend.shuffle_write_mb", "backend.shuffle_read_mb",
    "backend.exchanges", "backend.joins", "seq_backend.stmt_s", "handwritten.hand_s",
    "handwritten.jobs", "handwritten.shuffle_write_mb", "trace.overhead_s",
)


def ir_nodes(x) -> int:
    """Comprehension-IR and target-statement nodes in a code tree."""
    if isinstance(x, (list, tuple)):
        return sum(ir_nodes(y) for y in x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        own = 1 if type(x).__module__ in _IR_MODULES else 0
        return own + sum(ir_nodes(getattr(x, f.name)) for f in dataclasses.fields(x))
    return 0


def target_stmts(code) -> int:
    return sum(1 + (target_stmts(s.body) if isinstance(s, TWhile) else 0) for s in code)


def stmt_label(st) -> str:
    if isinstance(st, TInit):
        return f"init {st.name}"
    if isinstance(st, TAssign):
        return f"assign {st.name}"
    return "while"


def force(outs: dict) -> None:
    """Materialise every DataFrame output with a ``noop`` write."""
    for v in outs.values():
        if isinstance(v, DataFrame):
            v.write.format("noop").mode("overwrite").save()


def to_python(v, ndims):
    """An output as plain Python: arrays as dicts, scalars unchanged."""
    if isinstance(v, DataFrame):
        return df_to_dict(v, ndims)
    return v


def same_output(got, want) -> bool:
    if isinstance(want, dict) or isinstance(got, dict):
        return isinstance(got, dict) and isinstance(want, dict) and approx_dict_equal(got, want)
    if isinstance(want, float) or isinstance(got, float):
        if got is None or want is None:
            return False
        return abs(got - want) <= 1e-6 * max(1.0, abs(want))
    return got == want


def cpu_jiffies():
    """(stolen, busy) CPU time of all CPUs since boot, from /proc/stat:
    time the host ran something else while a CPU of this machine wanted
    to run, and all time a CPU wanted to run (stolen included)."""
    try:
        with open("/proc/stat") as f:
            user, nice, system, idle, iowait, irq, softirq, steal = (
                int(x) for x in f.readline().split()[1:9])
    except (OSError, ValueError):
        return 0, 0
    return steal, user + nice + system + irq + softirq + steal


def geomean(xs) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


class Tracer:
    """Spans kept in memory and written out with the results."""

    def __init__(self):
        self.spans = []
        self.t0 = now()

    def span(self, name, trace, parent=None, **attrs):
        s = {"id": len(self.spans), "parent": parent, "trace": trace, "name": name,
             "start": now() - self.t0, "end": None, "attrs": attrs}
        self.spans.append(s)
        return s

    def end(self, s, **attrs):
        s["end"] = now() - self.t0
        s["attrs"].update(attrs)


class Program:
    """One suite program with its inputs in both runtime forms."""

    def __init__(self, name, size, seed):
        self.name, self.size = name, size
        self.src = BY_NAME[name]
        self.spec = inputs.make_inputs(name, size, seed)
        self.rows = inputs.input_rows(self.spec)
        self.types = types_of(self.spec)
        self.dict_env = {k: (v.dict() if isinstance(v, sd.ArrayData) else v)
                         for k, v in self.spec.items()}
        self.spark_env = None
        self.compiled = None
        self.ref = None  # hand-written outputs as Python values

    def persist(self, spark):
        env = {}
        for k, v in self.spec.items():
            if isinstance(v, sd.ArrayData):
                env[k] = v.df(spark).persist()
                env[k].count()
            else:
                env[k] = v
        self.spark_env = env

    def ndims(self, out):
        t = self.compiled.types.get(out)
        return t.ndims if isinstance(t, A.TArray) else 0

    def outputs(self, env) -> dict:
        """The program's declared result variables."""
        return {k: env[k] for k in self.src.outputs}


class Run:
    """Everything one invocation of the benchmark measures."""

    def __init__(self, workload, settings, seed, seconds, scratch):
        self.cfg = settings["workloads"][workload]
        self.settings = settings
        self.seed, self.seconds, self.scratch = seed, seconds, scratch
        self.spark = None
        self.progs = []
        self.attempted = self.failed = 0
        self.failures = []
        # Executions and failures per (program, engine) cell, e.g. "KMeans/par".
        self.cell_attempts = collections.Counter()
        self.cell_fails = collections.Counter()
        self.setup = {"session_s": [], "datagen_s": [], "persist_s": [], "warmup_s": []}
        self.tracer = Tracer()
        self.sweeps = []

    # ------------------------------------------------------------ checks
    def attempt(self, what, fn):
        """Run one execution; an exception counts as a failure."""
        self.attempted += 1
        self.cell_attempts[what] += 1
        try:
            return True, fn()
        except Exception:
            self.fail(what, traceback.format_exc(limit=3))
            return False, None

    def fail(self, what, detail):
        self.failed += 1
        self.cell_fails[what] += 1
        self.failures.append({"what": what, "detail": detail[-2000:]})

    def pass_rate(self) -> float:
        """The lowest share of passing executions over (program, engine)
        cells. A cell is checked as few as once per run (the warm-up's par
        outputs), so one failure there moves this far from 1, whatever
        the number of executions elsewhere."""
        return min((1 - self.cell_fails[c] / n for c, n in self.cell_attempts.items()),
                   default=1.0)

    def check(self, p, engine, outs):
        """Compare one execution's outputs (Python values) with the
        hand-written reference; a mismatch counts as a failure."""
        bad = [k for k, want in p.ref.items() if not same_output(outs.get(k), want)]
        if bad:
            self.fail(f"{p.name}/{engine}", f"outputs differ from hand-written: {bad}")

    def collected(self, p, env):
        return {k: to_python(env[k], p.ndims(k)) for k in p.ref}

    # ------------------------------------------------------------- set-up
    def set_up(self):
        """Start a session, generate and persist the inputs; repeated
        ``setup_reps`` times (the first also launches the JVM), then one
        warm-up iteration whose outputs are collected and checked."""
        conf = self.settings["spark"]["conf"]
        for _ in range(self.settings["setup_reps"]):
            t0 = now()
            if self.spark is not None:
                self.spark.stop()
            self.spark = sparkenv.start_session(conf, self.scratch)
            t1 = now()
            self.progs = [Program(n, s, self.seed) for n, s in self.cfg["sizes"].items()]
            t2 = now()
            for p in self.progs:
                p.persist(self.spark)
            t3 = now()
            self.setup["session_s"].append(t1 - t0)
            self.setup["datagen_s"].append(t2 - t1)
            self.setup["persist_s"].append(t3 - t2)
        t0 = now()
        for p in self.progs:
            p.compiled = compile_program(p.src.source, p.types)
            hand = HANDWRITTEN[p.name](p.spark_env)
            p.ref = {k: to_python(v, p.ndims(k)) for k, v in hand.items()}
            ok, env = self.attempt(f"{p.name}/par", lambda: run_program(p.compiled, p.spark_env, self.spark))
            if ok:
                self.check(p, "par", self.collected(p, env))
        self.setup["warmup_s"].append(now() - t0)

    def setup_metrics(self) -> dict:
        m = {f"setup.{k}": statistics.median(v) for k, v in self.setup.items()}
        m["setup_s"] = sum(m.values())
        return m

    # ------------------------------------------------------------ compile
    def compile_set(self):
        """(source, extern types) of every program the workload runs."""
        return [(BY_NAME[n].source, types_of(inputs.make_inputs(n, s, self.seed)))
                for n, s in self.cfg["sizes"].items()]

    def compile_phase(self, per_pass):
        """Compile the workload's programs repeatedly for a quarter of its
        compile share of the run (at least three sweeps). Called at four
        moments: before the JVM starts, after set-up, after the measured
        part, and after the JVM has stopped; no Spark job runs meanwhile."""
        items = self.compile_set()
        end, n = now() + self.seconds * self.settings["compile_share"] / 4, 0
        while n < 3 or now() < end:
            s = compile_sweep(items)
            if per_pass:
                s.update(pass_sweep(items))
            self.sweeps.append(s)
            n += 1

    def compile_metrics(self, per_pass) -> dict:
        """The least time over all sweeps, plus IR sizes when passes
        are timed. A slow phase of a shared host can stretch CPU time
        twofold for tens of seconds; it only ever raises a sweep's time,
        and the sweeps sample four moments spread over the run."""
        m = {k: min(s[k] for s in self.sweeps) for k in self.sweeps[0]}
        if per_pass:
            m.update(self.ir_counts(self.compile_set()))
        return m

    @staticmethod
    def ir_counts(items):
        out = dict.fromkeys(("translate.ir_nodes", "normalize.ir_nodes",
                             "optimize.ir_nodes", "optimize.target_stmts"), 0)
        for src, _ in items:
            ast = parse(src)
            check_program(ast)
            code, _ = translate_program(ast)
            out["translate.ir_nodes"] += ir_nodes(code)
            code = normalize_code(code)
            out["normalize.ir_nodes"] += ir_nodes(code)
            code = optimize_code(code)
            out["optimize.ir_nodes"] += ir_nodes(code)
            out["optimize.target_stmts"] += target_stmts(code)
        return out

    # ------------------------------------------------------- timed loop
    def par(self, p):
        env = run_program(p.compiled, p.spark_env, self.spark)
        force(p.outputs(env))
        return env

    def hand(self, p):
        outs = HANDWRITTEN[p.name](p.spark_env)
        force(outs)
        return outs

    def execute(self, p, engine):
        if engine == "par":
            return self.par(p)
        if engine == "seq":
            return run_program_seq(p.compiled, p.dict_env)
        return self.hand(p)

    def timed(self, p, engine, times):
        """One timed execution; an exception counts as a failure. Keeps
        its wall time, this process's CPU time, and the share of the
        machine's busy CPU time that the host stole meanwhile (a logged
        diagnostic only). Returns the sample, or None on failure, and the
        output."""
        gc.collect()  # start each timed execution with an empty young heap
        (s0, b0), c0, t0 = cpu_jiffies(), time.process_time(), now()
        ok, out = self.attempt(f"{p.name}/{engine}", lambda: self.execute(p, engine))
        t1, c1, (s1, b1) = now(), time.process_time(), cpu_jiffies()
        if not ok:
            return None, None
        steal = (s1 - s0) / (b1 - b0) if b1 > b0 else 0.0
        x = {"wall": t1 - t0, "cpu": c1 - c0, "steal": steal}
        times[p.name][engine].append(x)
        return x, out

    def measure(self):
        """Rounds of par/seq/hand-written executions until the rest of
        the run's seconds, after the compile share, are used (at least
        one round). In a round each program runs hand-written, par and
        hand-written again: par's ratio to the mean of the two hand-written
        runs around it cancels slow host phases that span the three, and
        halves the noise of the short hand-written run. The seq runs come
        after all Spark runs of the round, because the first Spark job
        after a stretch of pure-Python work ran slower.
        ``par_over_hand`` is the median over rounds of that ratio."""
        end = now() + self.seconds * (1 - self.settings["compile_share"])
        times = {p.name: {"par": [], "seq": [], "hand": []} for p in self.progs}
        ratios = {p.name: [] for p in self.progs}
        rounds = 0
        while rounds == 0 or now() < end:
            for p in self.progs:
                before, _ = self.timed(p, "hand", times)
                par, _ = self.timed(p, "par", times)
                after, _ = self.timed(p, "hand", times)
                if par is not None and before is not None and after is not None:
                    ratios[p.name].append(2 * par["wall"] / (before["wall"] + after["wall"]))
            for p in self.progs:
                for _ in range(SEQ_RUNS):
                    x, out = self.timed(p, "seq", times)
                    if x is None:
                        break
                    self.check(p, "seq", out)
            rounds += 1
        rows = []
        for p in self.progs:
            t = times[p.name]

            def med(engine, f):
                return statistics.median(f(x) for x in t[engine]) if t[engine] else float("nan")

            def unstolen(x):
                return x["wall"] * (1 - x["steal"])

            rows.append({"program": p.name, "size": p.size, "input_rows": p.rows,
                         "par_s": med("par", lambda x: x["wall"]),
                         # least CPU time: a slow host phase only raises it
                         "seq_s": min((x["cpu"] for x in t["seq"]), default=float("nan")),
                         "seq_wall_s": med("seq", lambda x: x["wall"]),
                         "hand_s": med("hand", lambda x: x["wall"]),
                         "par_over_hand": (statistics.median(ratios[p.name])
                                           if ratios[p.name] else float("nan")),
                         "par_over_hand_unstolen": med("par", unstolen) / med("hand", unstolen),
                         "steal": med("par", lambda x: x["steal"]), "samples": t})
        return rows, {"rounds": rounds, "compile_sweeps": len(self.sweeps)}

    # ---------------------------------------------------------- tracing
    def traced_par(self, p, tid, root):
        sc, tr = self.spark.sparkContext, self.tracer
        env, stmts, forces = dict(p.spark_env), [], []
        par = tr.span("backend", tid, root)
        for i, st in enumerate(p.compiled.code):
            group = f"{tid}/par/s{i}"
            sc.setJobGroup(group, stmt_label(st))
            s = tr.span(f"stmt {i}: {stmt_label(st)}", tid, par["id"])
            env = run_code([st], env, self.spark, p.compiled.types)
            tr.end(s)
            stmts.append((group, s))
        for out, v in p.outputs(env).items():
            if not isinstance(v, DataFrame):
                continue
            group = f"{tid}/par/force/{out}"
            sc.setJobGroup(group, f"force {out}")
            s = tr.span(f"force {out}", tid, par["id"], **sparkenv.plan_counts(v))
            force({out: v})
            tr.end(s)
            forces.append((group, s))
        sparkenv.drain(sc)
        for group, s in stmts + forces:
            s["attrs"].update(sparkenv.group_counters(sc, group))
        tr.end(par)
        return env, [s for _, s in stmts], [s for _, s in forces], par

    def traced_seq(self, p, tid, root):
        tr = self.tracer
        env = {k: (dict(v) if isinstance(v, dict) else v) for k, v in p.dict_env.items()}
        seq = tr.span("seq_backend", tid, root)
        stmts = []
        for i, st in enumerate(p.compiled.code):
            s = tr.span(f"stmt {i}: {stmt_label(st)}", tid, seq["id"])
            env = run_code_seq([st], env, p.compiled.types)
            tr.end(s)
            stmts.append(s)
        tr.end(seq)
        return env, stmts

    def traced_hand(self, p, tid, root):
        sc, tr = self.spark.sparkContext, self.tracer
        group = f"{tid}/hand"
        sc.setJobGroup(group, "hand-written")
        s = tr.span("handwritten", tid, root)
        outs = HANDWRITTEN[p.name](p.spark_env)
        plans = [sparkenv.plan_counts(v) for v in outs.values() if isinstance(v, DataFrame)]
        force(outs)
        tr.end(s, exchanges=sum(x["exchanges"] for x in plans), joins=sum(x["joins"] for x in plans))
        sparkenv.drain(sc)
        s["attrs"].update(sparkenv.group_counters(sc, group))
        return outs, s

    def traced_pass(self, k):
        """Run every program statement by statement, each statement and
        each forced output in its own job group; returns per-program
        rows of spans."""
        rows = {}
        for p in self.progs:
            tid = f"{p.name}/pass{k}"
            root = self.tracer.span("program", tid)
            t0 = now()
            ok, res = self.attempt(f"{p.name}/par-traced", lambda: self.traced_par(p, tid, root["id"]))
            par_wall = now() - t0
            ok2, sres = self.attempt(f"{p.name}/seq-traced", lambda: self.traced_seq(p, tid, root["id"]))
            if ok2:
                self.check(p, "seq-traced", sres[0])
            ok3, hres = self.attempt(f"{p.name}/hand-traced", lambda: self.traced_hand(p, tid, root["id"]))
            self.tracer.end(root)
            if ok and ok2 and ok3:
                rows[p.name] = {"par_wall": par_wall, "stmts": res[1], "forces": res[2],
                                "seq_stmts": sres[1], "hand": hres[1]}
        self.spark.sparkContext.setJobGroup("perfbench/untraced", "untraced")
        return rows

    def trace(self):
        """The traced run: two traced passes around one untraced par and
        seq iteration (in the middle, so a steady warm-up trend cancels out
        of the overhead), and a third traced pass only if some program's
        counts differ between the first two. A program's counts come
        from a pass whose counts another pass repeats exactly; a program
        whose counts never repeat is listed as unstable, its counts are
        left out of its row and of the sums (NaN when no program's counts
        repeat)."""
        metrics = {}
        passes = [self.traced_pass(1)]
        untraced, seq_cpu = {}, {}
        for p in self.progs:
            t0 = now()
            self.attempt(f"{p.name}/par", lambda: self.par(p))
            untraced[p.name] = now() - t0
            c0 = time.process_time()
            ok, out = self.attempt(f"{p.name}/seq", lambda: run_program_seq(p.compiled, p.dict_env))
            seq_cpu[p.name] = time.process_time() - c0
            if ok:
                self.check(p, "seq", out)
        passes.append(self.traced_pass(2))
        first, second = passes
        if any(p.name not in first or p.name not in second
               or pass_counts(first[p.name]) != pass_counts(second[p.name]) for p in self.progs):
            passes.append(self.traced_pass(3))
        rows, unstable = [], []
        for p in self.progs:
            runs = [ps[p.name] for ps in passes if p.name in ps]
            if len(runs) < 2:
                continue
            counted = next((r for i, r in enumerate(runs) for o in runs[i + 1:]
                            if pass_counts(r) == pass_counts(o)), None)
            if counted is None:
                unstable.append(p.name)
            rows.append(program_trace_row(p, counted, runs[0], runs[1], untraced[p.name]))
        for k in TRACED_METRICS:
            vals = [r[k] for r in rows if r[k] is not None]
            metrics[k] = sum(vals) if vals else float("nan")
        metrics["par_s"] = sum(untraced.values())
        metrics["seq_s"] = sum(seq_cpu.values())
        return metrics, rows, unstable

    # --------------------------------------------------- tiny-size check
    def tiny_check(self):
        """Every suite program compiles, and at tiny size its sequential
        result equals the literal loop interpreter's."""
        for name, size in self.cfg.get("tiny_check_sizes", {}).items():
            spec = inputs.make_inputs(name, size, self.seed)
            types = types_of(spec)
            env = {k: (v.dict() if isinstance(v, sd.ArrayData) else v) for k, v in spec.items()}
            ok, compiled = self.attempt(f"{name}/compile", lambda: compile_program(BY_NAME[name].source, types))
            if not ok:
                continue
            ok, got = self.attempt(f"{name}/seq-tiny", lambda: run_program_seq(compiled, env))
            ok_i, want = self.attempt(f"{name}/interp-tiny", lambda: interpret(BY_NAME[name].source, env))
            if ok and ok_i:
                bad = [o for o in BY_NAME[name].outputs if not same_output(got.get(o), want.get(o))]
                if bad:
                    self.fail(f"{name}/seq-tiny", f"seq differs from interp: {bad}")


def pass_counts(run) -> list:
    spans = run["stmts"] + run["forces"] + [run["hand"]]
    return [tuple(s["attrs"].get(c) for c in COUNTS) for s in spans]


def program_trace_row(p, counted, a, b, untraced_s):
    """Per-program traced figures: times and shuffle volumes are the mean
    of the two passes around the untraced iteration, counts come from
    ``counted`` (None when no two passes agree: every count is then
    None)."""
    def tsum(spans):
        return sum(s["end"] - s["start"] for s in spans)

    def csum(spans, c):
        return sum(s["attrs"].get(c, 0) for s in spans)

    mb = 1 / (1 << 20)
    spark_spans = (counted or a)["stmts"] + (counted or a)["forces"]
    if counted is None:
        counts = dict.fromkeys(COUNT_METRICS)
    else:
        hand = counted["hand"]["attrs"]
        counts = {
            "backend.jobs": csum(spark_spans, "jobs"),
            "backend.stages": csum(spark_spans, "stages"),
            "backend.tasks": csum(spark_spans, "tasks"),
            "backend.exchanges": csum(counted["forces"], "exchanges"),
            "backend.joins": csum(counted["forces"], "joins"),
            "handwritten.jobs": hand["jobs"],
            "handwritten.exchanges": hand["exchanges"],
            "handwritten.joins": hand["joins"],
        }
    par_a, par_b = a["stmts"] + a["forces"], b["stmts"] + b["forces"]

    def mean(spans_a, spans_b, c):
        return (csum(spans_a, c) + csum(spans_b, c)) / 2

    return {
        "program": p.name,
        "backend.stmt_s": (tsum(a["stmts"]) + tsum(b["stmts"])) / 2,
        "backend.force_s": (tsum(a["forces"]) + tsum(b["forces"])) / 2,
        "backend.executor_run_s": mean(par_a, par_b, "executor_run_s"),
        **counts,
        "backend.shuffle_write_mb": mean(par_a, par_b, "shuffle_write_bytes") * mb,
        "backend.shuffle_read_mb": mean(par_a, par_b, "shuffle_read_bytes") * mb,
        "handwritten.shuffle_write_mb": mean([a["hand"]], [b["hand"]], "shuffle_write_bytes") * mb,
        "seq_backend.stmt_s": (tsum(a["seq_stmts"]) + tsum(b["seq_stmts"])) / 2,
        "handwritten.hand_s": (tsum([a["hand"]]) + tsum([b["hand"]])) / 2,
        "trace.overhead_s": (a["par_wall"] + b["par_wall"]) / 2 - untraced_s,
        "statements": [
            {"stmt": s["name"], "s": s["end"] - s["start"],
             **{c: s["attrs"].get(c) if counted else None for c in COUNTS},
             **{c: s["attrs"].get(c) for c in BYTES}}
            for s in spark_spans
        ],
    }


def types_of(spec: dict) -> dict:
    return {k: v.arr_type() for k, v in spec.items() if isinstance(v, sd.ArrayData)}


def compile_sweep(items) -> dict:
    """One compile sweep, timed in this process's CPU time."""
    t0 = time.process_time()
    for src, types in items:
        compile_program(src, types)
    return {"compile_ms": (time.process_time() - t0) * 1e3}


def pass_sweep(items) -> dict:
    """One compile sweep with each of the five passes timed on its own."""
    out = dict.fromkeys(PASS_METRICS, 0.0)
    for src, _ in items:
        t0 = now()
        ast = parse(src)
        t1 = now()
        check_program(ast)
        t2 = now()
        code, _ = translate_program(ast)
        t3 = now()
        code = normalize_code(code)
        t4 = now()
        optimize_code(code)
        t5 = now()
        for k, a, b in zip(PASS_METRICS, (t0, t1, t2, t3, t4), (t1, t2, t3, t4, t5)):
            out[k] += (b - a) * 1e3
    return out
