"""Exact `stencil` dumps pinned against a fixture.

The fixture holds the JSON that `mvkraw stencil` prints for every
generator m_i and mtilde_i and for the universal operator, at N = 2, on
the Hoare-Rahman set (1,2,3,4) and the Milch set (1/2,1/4,1/8,1/8).  A
refactor of the stencil builders must leave every dump as it is.

Regenerate the fixture only when a stencil changes on purpose:

    PYTHONPATH=src python tests/test_stencil_fixture.py
"""

import io
import json
import os
from contextlib import redirect_stdout
from fractions import Fraction as F

from mvkraw import cli, kappa

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "stencils_N2.json")
N = 2
SETS = {
    "hr1234": lambda: kappa.family_hoare_rahman(1, 2, 3, 4),
    "milch": lambda: kappa.family_milch([F(1, 2), F(1, 4), F(1, 8), F(1, 8)]),
}


def _stencil(kappa_path: str, *argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["stencil", "--kappa", kappa_path, "--N", str(N), *argv]) == 0
    return json.loads(out.getvalue())


def dumps(tmp_dir: str) -> dict:
    data = {}
    for name, build in SETS.items():
        k = build()
        path = os.path.join(tmp_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(kappa.to_json_dict(k), fh)
        runs = {"universal": _stencil(path, "--operator", "universal")}
        for op in ("m", "mtilde"):
            for i in range(1, k.d + 1):
                runs[f"{op}_{i}"] = _stencil(path, "--operator", op, "--i", str(i))
        data[name] = runs
    return data


def test_exact_stencils_match_fixture(tmp_path):
    with open(FIXTURE) as fh:
        want = json.load(fh)
    assert dumps(str(tmp_path)) == want


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = dumps(tmp)
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
