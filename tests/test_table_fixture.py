"""`table` output pinned against a fixture, byte for byte.

The fixture holds the `mvkraw table` JSON, in exact and in approx mode,
of four sets: Hoare-Rahman (1,2,3,4) at N = 3, Milch (1/2,1/4,1/8,1/8)
at N = 2, ds q = 3, d = 1 at N = 8 and Griffiths (101/400,99/400,1/2)
at N = 3.  Approx kernel sums add their terms in the order in which
the kernels are enumerated, so the approx tables pin that order too: a
change to kernel enumeration or to the term arithmetic must leave
every value string as it is.

Regenerate the fixture only when a table changes on purpose:

    PYTHONPATH=src python tests/test_table_fixture.py
"""

import io
import json
import os
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest

from mvkraw import cli, kappa

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "tables_pinned.json")

SETS = {
    "hoare_rahman_1234_N3": (lambda: kappa.family_hoare_rahman(1, 2, 3, 4), 3),
    "milch_N2": (lambda: kappa.family_milch([F(1, 2), F(1, 4), F(1, 8), F(1, 8)]), 2),
    "ds_q3_d1_N8": (lambda: kappa.family_ds(3, 1), 8),
    "griffiths_N3": (lambda: kappa.griffiths_from_p([F(101, 400), F(99, 400), F(1, 2)]), 3),
}
MODES = ("exact", "approx")


def table_text(name: str, mode: str, tmp_dir: str) -> str:
    """The stdout of `mvkraw --mode <mode> table` for one pinned set."""
    build, N = SETS[name]
    kappa_path = os.path.join(tmp_dir, f"{name}.json")
    with open(kappa_path, "w") as fh:
        json.dump(kappa.to_json_dict(build()), fh)
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["--mode", mode, "table", "--kappa", kappa_path, "--N", str(N)]) == 0
    return out.getvalue()


def tables(tmp_dir: str) -> dict:
    return {name: {mode: table_text(name, mode, tmp_dir) for mode in MODES} for name in SETS}


@pytest.fixture(scope="module")
def pinned():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", list(SETS))
def test_table_matches_fixture(pinned, name, mode, tmp_path):
    assert table_text(name, mode, str(tmp_path)) == pinned[name][mode]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = tables(tmp)
    with open(FIXTURE, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
