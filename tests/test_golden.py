"""Golden outputs: each reference command still writes what tests/golden.json records."""
import json

import numpy as np
import pytest

from golden_outputs import CASES, REFERENCE, REPORT_RTOL, SUM_ATOL, summarize

GOLDEN = json.loads(REFERENCE.read_text(encoding="utf-8"))


def test_reference_holds_every_case():
    assert list(GOLDEN) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden(name):
    got, want = summarize(CASES[name]), GOLDEN[name]
    assert set(got) == set(want)
    for key in set(want) - {"columns", "report", "levels"}:
        assert got[key] == want[key], key
    for column, sums in want.get("columns", {}).items():
        assert got["columns"][column]["nan"] == sums["nan"], column
        for key in ("sums", "squares"):
            np.testing.assert_allclose(got["columns"][column][key], sums[key], rtol=0, atol=SUM_ATOL,
                                       err_msg=f"{column} {key}")
    assert set(got.get("columns", {})) == set(want.get("columns", {}))
    report = want.get("report", {})
    assert list(got.get("report", {})) == list(report)
    for key, value in report.items():
        # a rounding-level value is kept only as whether it meets its bound
        if isinstance(value, bool):
            assert got["report"][key] is value, key
        else:
            assert got["report"][key] == pytest.approx(value, rel=REPORT_RTOL, abs=0), key
    levels = want.get("levels", [])
    assert len(got.get("levels", [])) == len(levels)
    for got_level, level in zip(got.get("levels", []), levels):
        assert got_level == pytest.approx(level, rel=REPORT_RTOL, abs=0), level


@pytest.mark.parametrize("name", ["failure_tags", "overflow_tag"])
def test_failure_cases_match_golden_without_the_band_solver(without_dgbsv, name):
    # where numpy's LAPACK has no dgbsv, the dense LU writes the same failure cells
    test_output_matches_golden(name)
