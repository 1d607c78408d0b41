"""`check` reports pinned against fixtures.

The first fixture holds, for every suite, the pass flag, the failure
records and the details of two exact reports on the Hoare-Rahman set
(1,2,3,4) at N = 2: `check` with all 12 suites, and `check --table` on
that set's table with one corrupted entry, in exact and in approx mode
(the approx one pins the failure records of the float comparisons).  The second holds the
12-suite `check` of the Milch set (1/2,1/4,1/8,1/8) at N = 2 in exact
and in approx mode, which pins d = 3, with its 256 unit pairs, in both
modes.  A refactor must leave every report as it is; a details dict may
gain keys but keeps the pinned ones.

Regenerate the fixtures only when a report changes on purpose:

    PYTHONPATH=src python tests/test_report_fixture.py
"""

import io
import json
import os
from contextlib import redirect_stdout
from fractions import Fraction as F

from mvkraw import cli, hyperg, kappa

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
FIXTURE = os.path.join(FIXTURES, "reports_hr1234_N2.json")
MILCH_FIXTURE = os.path.join(FIXTURES, "reports_milch_N2.json")
N = 2
CORRUPTED = (1, 2)  # row, column of the entry set to 9


def _check(argv, mode="exact"):
    """The per-suite reports of one `mvkraw check` run, read from stdout."""
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(["--mode", mode, "check", *argv])
    return {
        r["check"]: {k: r[k] for k in ("pass", "failures", "details")}
        for r in json.loads(out.getvalue())["reports"]
    }


def reports(tmp_dir: str) -> dict:
    k = kappa.family_hoare_rahman(1, 2, 3, 4)
    kappa_path = os.path.join(tmp_dir, "kappa.json")
    with open(kappa_path, "w") as fh:
        json.dump(kappa.to_json_dict(k), fh)
    obj = hyperg.table_to_json_dict(hyperg.table(k, N))
    r, c = CORRUPTED
    assert obj["values"][r][c] != "9"
    obj["values"][r][c] = "9"
    table_path = os.path.join(tmp_dir, "table.json")
    with open(table_path, "w") as fh:
        json.dump(obj, fh)
    return {
        "check": _check(["--kappa", kappa_path, "--N", str(N)]),
        "corrupted_table": _check(["--table", table_path]),
        "approx_corrupted_table": _check(["--table", table_path], "approx"),
    }


def milch_reports(tmp_dir: str) -> dict:
    k = kappa.family_milch([F(1, 2), F(1, 4), F(1, 8), F(1, 8)])
    kappa_path = os.path.join(tmp_dir, "milch.json")
    with open(kappa_path, "w") as fh:
        json.dump(kappa.to_json_dict(k), fh)
    argv = ["--kappa", kappa_path, "--N", str(N)]
    return {mode: _check(argv, mode) for mode in ("exact", "approx")}


def _assert_matches(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for run in want:
        assert list(got[run]) == list(want[run])
        for suite, pinned in want[run].items():
            now = got[run][suite]
            assert now["pass"] == pinned["pass"], (run, suite)
            assert now["failures"] == pinned["failures"], (run, suite)
            assert {k: now["details"].get(k) for k in pinned["details"]} == pinned["details"], (run, suite)


def test_exact_reports_match_fixture(tmp_path):
    with open(FIXTURE) as fh:
        _assert_matches(reports(str(tmp_path)), json.load(fh))


def test_milch_reports_match_fixture(tmp_path):
    with open(MILCH_FIXTURE) as fh:
        _assert_matches(milch_reports(str(tmp_path)), json.load(fh))


if __name__ == "__main__":
    import tempfile

    os.makedirs(FIXTURES, exist_ok=True)
    for path, make in ((FIXTURE, reports), (MILCH_FIXTURE, milch_reports)):
        with tempfile.TemporaryDirectory() as tmp:
            data = make(tmp)
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
