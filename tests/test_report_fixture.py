"""Exact `check` reports pinned against a fixture.

The fixture holds, for every suite, the pass flag, the failure records
and the details of two exact reports on the Hoare-Rahman set (1,2,3,4)
at N = 2: `check` with all 12 suites, and `check --table` on that set's
table with one corrupted entry.  A refactor must leave both reports as
they are; a details dict may gain keys but keeps the pinned ones.

Regenerate the fixture only when a report changes on purpose:

    PYTHONPATH=src python tests/test_report_fixture.py
"""

import io
import json
import os
from contextlib import redirect_stdout

from mvkraw import cli, hyperg, kappa

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "reports_hr1234_N2.json")
N = 2
CORRUPTED = (1, 2)  # row, column of the entry set to 9


def _check(argv):
    """The per-suite reports of one `mvkraw check` run, read from stdout."""
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(["check", *argv])
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
    }


def test_exact_reports_match_fixture(tmp_path):
    with open(FIXTURE) as fh:
        want = json.load(fh)
    got = reports(str(tmp_path))
    assert set(got) == set(want)
    for run in want:
        assert list(got[run]) == list(want[run])
        for suite, pinned in want[run].items():
            now = got[run][suite]
            assert now["pass"] == pinned["pass"], (run, suite)
            assert now["failures"] == pinned["failures"], (run, suite)
            assert {k: now["details"].get(k) for k in pinned["details"]} == pinned["details"], (run, suite)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = reports(tmp)
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
