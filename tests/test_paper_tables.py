"""Smoke test of the paper-table harness ``jobs/paper_tables.py``: one
Table-1 row and one Table-2/Figure-3 row at ``tiny`` size, so a renamed
API fails here instead of in the untested script."""
import importlib.util
import pathlib

import pytest

from repro.programs.suite import BY_NAME

_PATH = pathlib.Path(__file__).resolve().parents[1] / "jobs" / "paper_tables.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("paper_tables", _PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_table1_row(harness):
    [row] = harness.table1([BY_NAME["Sum"]])
    assert row[0] == "Sum" and len(row) == 7
    assert row[-1].endswith(" ms")  # DIABLO translates every program


def test_table2_and_figure3_row(harness, spark, capsys):
    [t2], [f3] = harness.table2_figure3(spark, "tiny", [BY_NAME["Word Count"]])
    assert t2[0] == f3[0] == "Word Count"
    assert t2[1] == "80"  # input rows
    assert t2[3] == f3[1]  # Table 2's par time is Figure 3's DIABLO time
    assert f3[3].endswith("×")
    harness.print_table("T", ["a"], [["b"]])
    assert "| b |" in capsys.readouterr().out
