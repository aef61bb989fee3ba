"""Hand-written Spark baselines must agree with the DIABLO translation
(they are the 'hand-written' side of the paper's Figure 3)."""
import re

import pytest

from repro.core import ast as A
from repro.core.convert import approx_dict_equal, df_to_dict
from repro.core.pipeline import compile_program, run_program
from repro.programs.handwritten import HANDWRITTEN
from repro.programs.suite import BY_NAME, build_envs


@pytest.fixture(scope="module")
def pair_results(spark):
    out = {}
    for name, fn in HANDWRITTEN.items():
        prog = BY_NAME[name]
        spark_env, _, types = build_envs(prog, "tiny", spark)
        compiled = compile_program(prog.source, types)
        diablo = run_program(compiled, spark_env, spark)
        hand = fn(spark_env)
        out[name] = (compiled, diablo, hand)
    return out


@pytest.mark.parametrize("name", sorted(HANDWRITTEN), ids=str)
def test_handwritten_agrees_with_diablo(pair_results, name):
    compiled, diablo, hand = pair_results[name]
    for out, hv in hand.items():
        t = compiled.types.get(out)
        if isinstance(t, A.TArray):
            d = df_to_dict(diablo[out], t.ndims)
            h = df_to_dict(hv, t.ndims)
            assert approx_dict_equal(h, d), (
                f"{name}/{out}: handwritten != diablo\n"
                f"  hand={sorted(h.items())[:4]}\n  diablo={sorted(d.items())[:4]}"
            )
        else:
            d = diablo[out]
            if isinstance(d, float):
                assert abs(hv - d) <= 1e-6 * max(1.0, abs(d)), (name, out, hv, d)
            else:
                assert hv == d, (name, out, hv, d)


def _plan_shape(df):
    """(exchanges, joins) in a DataFrame's physical plan, read from a
    fresh projection (an executed adaptive plan also lists its initial
    plan, which would count every node twice)."""
    plan = df.select("*")._jdf.queryExecution().executedPlan().toString()
    nodes = [m.group(1) for ln in plan.splitlines()
             if (m := re.match(r"[\s:|+\-]*(?:\*\(\d+\)\s*)?([A-Za-z]+)", ln))]
    return (
        sum(n.endswith("Exchange") and n != "ReusedExchange" for n in nodes),
        sum(n.endswith("Join") or n == "CartesianProduct" for n in nodes),
    )


@pytest.mark.parametrize("name", ["Word Count", "Histogram", "Group-By"])
def test_fresh_target_plans_match_handwritten(spark, pair_results, name):
    # the generated outer lookup and ⊲ merge against a just-initialised
    # (empty) target are pruned by Catalyst, leaving the hand-written
    # program's single group-by shuffle; checked on the one-query-per-
    # statement translation, as Histogram's three updates are otherwise
    # one group (test_fused_histogram_outputs_read_one_checkpoint)
    prog = BY_NAME[name]
    spark_env, _, types = build_envs(prog, "tiny", spark)
    diablo = run_program(compile_program(prog.source, types, fuse=False), spark_env, spark)
    _, _, hand = pair_results[name]
    for out, hv in hand.items():
        assert _plan_shape(diablo[out]) == _plan_shape(hv) == (1, 0), out


def test_fused_histogram_outputs_read_one_checkpoint(pair_results):
    # the one GROUP BY of the three updates ran when the group did: each
    # output only filters its rows, with no shuffle and no join
    compiled, diablo, hand = pair_results["Histogram"]
    assert [type(st).__name__ for st in compiled.code][-1] == "TGroup"
    for out in hand:
        assert _plan_shape(diablo[out]) == (0, 0), out
