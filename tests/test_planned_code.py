"""Target code is planned once, at compile time (``plan.plan_code`` and
``plan.fuse_code``): once ``compile_program`` has run, neither engine
plans a comprehension or recognises a lowering again. With every planner
and recogniser made to raise, the compiled programs still run on seq and
on Spark, ``fuse`` on and off, and agree with the interpreter."""
import sys

import pytest

from repro.core import ast as A
from repro.core import plan as P
from repro.core.convert import approx_dict_equal, df_to_dict
from repro.core.interp import interpret
from repro.core.pipeline import compile_program, run_program
from repro.core.seq_backend import run_program_seq
from repro.programs.suite import BY_NAME, build_envs

PLANNERS = ("plan", "plan_group", "own_lookup", "range_fill", "fill_keys", "carried_join",
            "join_bounds")
# program -> the inputs it runs with that differ from its ``tiny`` ones
PROGRAMS = {
    "PageRank": {"num_steps": 2},
    "KMeans": {},
    "Histogram": {},
    "Matrix Multiplication": {},
    "Matrix Factorization": {},
}


def forbid_planning(monkeypatch) -> None:
    """Make each planner raise, in ``plan`` and in every module that
    imported it."""
    found = {name: getattr(P, name) for name in PLANNERS}

    def raiser(name):
        def planner(*args, **kwargs):
            raise AssertionError(f"{name} called at run time")
        return planner

    for mod in [m for n, m in list(sys.modules.items()) if n.startswith("repro")]:
        for name, fn in found.items():
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, raiser(name))


def test_forbid_planning_patches_every_importer(monkeypatch):
    from repro.core import backend, seq_backend

    forbid_planning(monkeypatch)
    for mod in (P, backend, seq_backend):
        for name in PLANNERS:
            if hasattr(mod, name):
                with pytest.raises(AssertionError, match=f"{name} called at run time"):
                    getattr(mod, name)()


@pytest.mark.parametrize("fuse", [True, False])
@pytest.mark.parametrize("name", PROGRAMS)
def test_no_engine_plans_at_run_time(spark, monkeypatch, name, fuse):
    prog = BY_NAME[name]
    spark_env, dict_env, types = build_envs(prog, "tiny", spark)
    spark_env.update(PROGRAMS[name])
    dict_env.update(PROGRAMS[name])
    want = interpret(prog.source, dict_env)
    compiled = compile_program(prog.source, types, fuse=fuse)
    forbid_planning(monkeypatch)
    seq = run_program_seq(compiled, dict_env)
    sp = run_program(compiled, spark_env, spark)
    for out in prog.outputs:
        t = compiled.types.get(out)
        if isinstance(t, A.TArray):
            assert approx_dict_equal(seq[out], want[out]), out
            assert approx_dict_equal(df_to_dict(sp[out], t.ndims), want[out]), out
        else:
            assert seq[out] == pytest.approx(want[out]) and sp[out] == pytest.approx(want[out]), out
