"""End-to-end command-line behavior, including exit codes."""

import argparse
import inspect
import io
import json
import re
from fractions import Fraction as F

import pytest

from mvkraw import bispec, cli, hyperg, kappa, liemod, numeric, verify
from mvkraw.numeric import enumerate_lattice


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_kappa(tmp_path, k, name="kappa.json"):
    path = tmp_path / name
    path.write_text(json.dumps(kappa.to_json_dict(k)))
    return str(path)


@pytest.fixture
def milch2_file(tmp_path):
    return write_kappa(
        tmp_path, kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)]), "milch2.json"
    )


@pytest.fixture
def classical_file(tmp_path):
    return write_kappa(
        tmp_path, kappa.griffiths_from_p([F(1, 2), F(1, 2)]), "classical.json"
    )


@pytest.fixture
def perturbed_hr_file(tmp_path):
    # Hoare-Rahman (1,2,3,4) in decimals with one pt entry off by 1e-7 of
    # itself: a valid set at eps 1e-6, but not at the default 1e-10
    obj = kappa.to_json_dict(kappa.family_hoare_rahman(1, 2, 3, 4))
    decimals = lambda xs: [repr(float(F(x))) for x in xs]
    obj = {
        "d": obj["d"],
        "nu": repr(float(F(obj["nu"]))),
        "p": decimals(obj["p"]),
        "pt": decimals(obj["pt"]),
        "u": [decimals(row) for row in obj["u"]],
    }
    obj["pt"][1] = repr(float(obj["pt"][1]) * (1 + 1e-7))
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestParamsVerbs:
    def test_family_ds(self, capsys):
        code, out, _ = run(capsys, "params-family", "--family", "ds", "--q", "2", "--d", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["p"] == ["1/4", "1/4", "1/2"]
        assert obj["d"] == 2

    def test_family_milch_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "k.json"
        code, out, _ = run(
            capsys,
            "params-family", "--family", "milch", "--p", "1/3,2/3",
            "--output", str(out_path),
        )
        assert code == 0 and out == ""
        obj = json.loads(out_path.read_text())
        assert obj["nu"] == "3"

    def test_griffiths(self, capsys):
        code, out, _ = run(capsys, "params-griffiths", "--p", "1/2,1/2")
        assert code == 0
        obj = json.loads(out)
        assert obj["u"] == [["1", "1"], ["1", "-1"]]

    def test_validate_file(self, capsys, milch2_file):
        code, out, _ = run(capsys, "params-validate", "--input", milch2_file)
        assert code == 0
        assert json.loads(out)["d"] == 2

    def test_validate_stdin(self, capsys, monkeypatch):
        k = kappa.family_ds(F(2), 1)
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(kappa.to_json_dict(k)))
        )
        code, out, _ = run(capsys, "params-validate", "--input", "-")
        assert code == 0

    def test_involute_swaps_weights(self, capsys, milch2_file):
        code, out, _ = run(capsys, "params-involute", "--kappa", milch2_file)
        assert code == 0
        obj = json.loads(out)
        orig = json.loads(open(milch2_file).read())
        assert obj["p"] == orig["pt"]
        assert obj["pt"] == orig["p"]

    def test_forbidden_family_params_exit_3(self, capsys):
        code, _, err = run(
            capsys, "params-family", "--family", "hoare-rahman",
            "--params", "1,1,1,1",
        )
        assert code == 3
        assert "1-p1-p2" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["params-family", "--family", "ds", "--q", "2", "--d", "0"],
             "d must be positive"),
            (["params-griffiths", "--p", "1"], "need at least two weights"),
            (["params-griffiths", "--p", "1/2,1/2,0"], "weights must be nonzero"),
            (["params-griffiths", "--p", "1/2,1/4,1/8"], "must sum to 1"),
            (["params-family", "--family", "milch", "--p", "1"],
             "need at least two weights"),
        ],
        ids=["ds-d0", "griffiths-one-weight", "griffiths-zero-weight",
             "griffiths-sum", "milch-one-weight"],
    )
    def test_refused_family_input_exit_3(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert message in err

    def test_missing_family_args_exit_2(self, capsys):
        code, _, _ = run(capsys, "params-family", "--family", "hoare-rahman")
        assert code == 2
        code, _, _ = run(capsys, "params-family", "--family", "ds", "--q", "2")
        assert code == 2
        code, _, err = run(
            capsys, "params-family", "--family", "ds", "--q", "x", "--d", "2"
        )
        assert code == 2 and "bad scalar list" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--family", "hoare-rahman", "--params", "1,2,3"],
             "hoare-rahman takes exactly four parameters"),
            (["--family", "milch"], "milch needs --p weight list"),
            (["--family", "ds", "--q", "2,3", "--d", "1"], "ds takes exactly one --q"),
        ],
        ids=["hoare-rahman-three", "milch-no-p", "ds-two-q"],
    )
    def test_family_usage_errors_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, "params-family", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_invalid_set_exit_3(self, capsys, tmp_path):
        k = kappa.family_ds(F(2), 1)
        obj = kappa.to_json_dict(k)
        obj["nu"] = "7"  # breaks the defining identity
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "params-validate", "--input", str(path))
        assert code == 3

    @pytest.mark.parametrize(
        "k,d",
        [
            (kappa.family_ds(F(2), 1), True),
            (kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)]), 2.5),
        ],
        ids=["true-for-1", "2.5-for-2"],
    )
    def test_non_integer_d_exit_2(self, capsys, tmp_path, k, d):
        obj = kappa.to_json_dict(k)
        obj["d"] = d  # int(d) would equal the true d
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "params-validate", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "d must be an integer" in err

    def test_unreadable_input_exit_2(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "params-validate", "--input", str(tmp_path / "absent.json")
        )
        assert code == 2


class TestEval:
    def test_three_methods_agree(self, capsys, milch2_file):
        for method in ("hyper", "gen", "pairing"):
            code, out, _ = run(
                capsys,
                "eval", "--kappa", milch2_file, "--N", "2",
                "--m", "1,0", "--mt", "1,0", "--method", method,
            )
            assert code == 0
            assert out.strip() == "-1"

    def test_degree_bound_exit_2(self, capsys, milch2_file):
        code, _, err = run(
            capsys,
            "eval", "--kappa", milch2_file, "--N", "2",
            "--m", "2,1", "--mt", "0,0",
        )
        assert code == 2
        assert "exceeds" in err

    @pytest.mark.parametrize(
        "m,mt,message",
        [
            ("1", "1", "m must have 2 parts, got 1"),
            ("1,0", "-1,1", "mt parts must be nonnegative integers: (-1, 1)"),
            ("1,0", "3,0", "|mt| = 3 exceeds N = 2"),
            ("3,0", "1,0", "|m| = 3 exceeds N = 2"),
        ],
    )
    def test_bad_index_same_error_on_every_route(self, capsys, tmp_path, m, mt, message):
        path = write_kappa(tmp_path, kappa.family_hoare_rahman(1, 2, 3, 4))
        for method in ("hyper", "gen", "pairing"):
            code, out, err = run(
                capsys,
                "eval", "--kappa", path, "--N", "2",
                f"--m={m}", f"--mt={mt}", "--method", method,
            )
            assert (code, out, err) == (2, "", f"error: {message}\n"), method

    def test_bad_index_list_exit_2(self, capsys, milch2_file):
        code, _, _ = run(
            capsys,
            "eval", "--kappa", milch2_file, "--N", "2",
            "--m", "1,x", "--mt", "0,0",
        )
        assert code == 2


class TestCheck:
    def test_named_suites(self, capsys, milch2_file):
        code, out, _ = run(
            capsys,
            "check", "--kappa", milch2_file, "--N", "2",
            "--suite", "orthogonality,duality",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["pass"] is True
        assert [r["check"] for r in obj["reports"]] == ["orthogonality", "duality"]
        for r in obj["reports"]:
            assert set(r) == {"check", "kappa", "N", "pass", "failures", "details"}
            assert r["N"] == 2
            assert r["failures"] == []

    def test_default_runs_all_suites(self, capsys, classical_file):
        code, out, _ = run(capsys, "check", "--kappa", classical_file, "--N", "2")
        assert code == 0
        obj = json.loads(out)
        assert [r["check"] for r in obj["reports"]] == [
            "def11", "orthogonality", "duality", "recurrence", "universal",
            "commute", "lemma21", "lemma22", "norms", "adjacency",
            "transition", "threeway",
        ]

    @pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "corrupted-X"])
    def test_adjacency_alone_reports_as_in_a_full_run(
        self, capsys, monkeypatch, milch2_file, corrupt
    ):
        # adjacency reads the run's expansion matrix and generators; run
        # alone it builds them itself and must report exactly as it does
        # beside the other eleven suites, also when X is wrong at one entry
        if corrupt:
            expansion_matrix = liemod.expansion_matrix

            def corrupted(R, points):
                # X and, in transition, its inverse Y
                points = tuple(points)
                lines, D = expansion_matrix(R, points)
                if (1, 1, 1) in points:
                    lines[points.index((1, 1, 1))][points.index((3, 0, 0))] += 1
                return lines, D

            monkeypatch.setattr(liemod, "expansion_matrix", corrupted)
        reports = {}
        for suites in ("adjacency", ",".join(verify.SUITES)):
            code, out, _ = run(
                capsys, "check", "--kappa", milch2_file, "--N", "3", "--suite", suites
            )
            assert code == (1 if corrupt else 0)
            (reports[suites],) = [
                r for r in json.loads(out)["reports"] if r["check"] == "adjacency"
            ]
        alone, full = reports.values()
        assert alone == full
        assert alone["pass"] is not corrupt
        located = {"side": "dual-on-plain", "i": 1, "at": [1, 1, 1]}
        assert (located in alone["failures"]) is corrupt

    def test_kappa_only_suite_reports_null_N(self, capsys, milch2_file):
        code, out, _ = run(
            capsys, "check", "--kappa", milch2_file, "--suite", "def11,lemma21"
        )
        assert code == 0
        obj = json.loads(out)
        assert all(r["N"] is None for r in obj["reports"])

    def test_lattice_suite_without_N_exit_2(self, capsys, milch2_file):
        code, _, err = run(
            capsys, "check", "--kappa", milch2_file, "--suite", "orthogonality"
        )
        assert code == 2
        assert "needs N" in err

    def test_unknown_suite_exit_2(self, capsys, milch2_file):
        code, _, _ = run(
            capsys, "check", "--kappa", milch2_file, "--N", "2",
            "--suite", "nonsense",
        )
        assert code == 2

    def test_empty_suite_list_exit_2(self, capsys, milch2_file):
        code, out, err = run(
            capsys, "check", "--kappa", milch2_file, "--N", "2", "--suite", ",",
        )
        assert code == 2
        assert out == ""
        assert "--suite" in err

    def test_needs_kappa_or_table_exit_2(self, capsys):
        code, _, _ = run(capsys, "check", "--N", "2")
        assert code == 2


class TestTableFlow:
    def test_table_then_check_reuses_it(self, capsys, milch2_file, tmp_path):
        tab_path = tmp_path / "table.json"
        code, _, _ = run(
            capsys,
            "table", "--kappa", milch2_file, "--N", "2",
            "--output", str(tab_path),
        )
        assert code == 0
        obj = json.loads(tab_path.read_text())
        assert obj["order"] == "grlex"
        assert len(obj["values"]) == 6

        # kappa and N come from the table when omitted
        code, out, _ = run(
            capsys,
            "check", "--table", str(tab_path), "--suite", "orthogonality,recurrence",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_corrupted_table_exit_1(self, capsys, milch2_file, tmp_path):
        tab_path = tmp_path / "table.json"
        run(capsys, "table", "--kappa", milch2_file, "--N", "2",
            "--output", str(tab_path))
        obj = json.loads(tab_path.read_text())
        obj["values"][1][2] = "9"
        tab_path.write_text(json.dumps(obj))
        code, out, _ = run(
            capsys, "check", "--table", str(tab_path), "--suite", "orthogonality"
        )
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert report["reports"][0]["failures"]

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_corrupted_table_fails_duality_at_the_pair(
        self, capsys, milch2_file, tmp_path, mode
    ):
        tab_path = tmp_path / "table.json"
        run(capsys, "table", "--kappa", milch2_file, "--N", "2",
            "--output", str(tab_path))
        obj = json.loads(tab_path.read_text())
        assert obj["values"][1][2] != "9"
        obj["values"][1][2] = "9"
        tab_path.write_text(json.dumps(obj))
        code, out, _ = run(
            capsys, "--mode", mode,
            "check", "--table", str(tab_path), "--suite", "duality",
        )
        assert code == 1
        (report,) = json.loads(out)["reports"]
        row, col = [list(lam) for lam in enumerate_lattice(2, 2)][1:3]
        assert [(f["pair"], f["value"]) for f in report["failures"]] == [
            ([row, col], "9")
        ]

    def test_corrupted_table_fails_threeway_and_transition(
        self, capsys, milch2_file, tmp_path
    ):
        tab_path = tmp_path / "table.json"
        run(capsys, "table", "--kappa", milch2_file, "--N", "2",
            "--output", str(tab_path))
        obj = json.loads(tab_path.read_text())
        assert obj["values"][1][2] != "9"
        obj["values"][1][2] = "9"
        tab_path.write_text(json.dumps(obj))
        code, out, _ = run(
            capsys, "check", "--table", str(tab_path),
            "--suite", "threeway,transition",
        )
        assert code == 1
        threeway, transition = json.loads(out)["reports"]
        row, col = [list(lam) for lam in enumerate_lattice(2, 2)][1:3]
        assert [(f["pair"], f["kernel_sum"]) for f in threeway["failures"]] == [
            ([row, col], "9")
        ]
        assert transition["failures"] == [
            {"expansion": "substituted-over-plain", "at": col},
            {"expansion": "plain-over-substituted", "at": row},
        ]

    @pytest.mark.parametrize(
        "N,values",
        [(2.5, None), (-1, []), (True, None), ("2", None)],
        ids=["fraction", "negative", "bool", "string"],
    )
    def test_table_bad_N_exit_2(self, capsys, milch2_file, tmp_path, N, values):
        # N is refused unless it is a JSON integer >= 0: 2.5 is not read
        # as 2, and -1 with no values is not an empty table
        tab_path = tmp_path / "table.json"
        run(capsys, "table", "--kappa", milch2_file, "--N", "2",
            "--output", str(tab_path))
        obj = json.loads(tab_path.read_text())
        obj["N"] = N
        if values is not None:
            obj["values"] = values
        tab_path.write_text(json.dumps(obj))
        for suites in ("orthogonality", "def11,lemma21"):
            code, out, err = run(
                capsys, "check", "--table", str(tab_path), "--suite", suites
            )
            assert code == 2
            assert out == ""
            assert err == f"error: table N must be a non-negative integer, got {N!r}\n"

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_table_zero_denominator_exit_2(self, capsys, milch2_file, tmp_path, mode):
        # an entry such as "1/0" is refused as a parse error, as it is in
        # a parameter-set file, not left to escape as a traceback
        err = self._check_with_entry(capsys, milch2_file, tmp_path, mode, "1/0")
        assert err == "error: malformed table value: Fraction(1, 0)\n"

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_table_word_entry_exit_2(self, capsys, milch2_file, tmp_path, mode):
        # an entry that no parser reads keeps Fraction's message in both modes
        err = self._check_with_entry(capsys, milch2_file, tmp_path, mode, "x")
        assert err == "error: malformed table value: Invalid literal for Fraction: 'x'\n"

    def test_hand_edited_entries_give_the_canonical_report(self, capsys, tmp_path):
        # "2/4", "+3", " 1/2 ", "0.5" and "1e2" are read as the values of
        # their canonical forms: every entry respelled, and five entries
        # replaced by those spellings against the file with their
        # canonical texts, give the report bytes of the canonical file
        hr = write_kappa(tmp_path, kappa.family_hoare_rahman(1, 2, 3, 4))
        canonical = tmp_path / "table.json"
        run(capsys, "table", "--kappa", hr, "--N", "2", "--output", str(canonical))
        obj = json.loads(canonical.read_text())

        def report(values, name):
            path = tmp_path / name
            path.write_text(json.dumps(dict(obj, values=values)))
            return run(capsys, "check", "--table", str(path))

        def respell(text):
            num, _, den = text.partition("/")
            if den:
                return f" {2 * int(num)}/{2 * int(den)} "
            return f"+{num}" if not num.startswith("-") else f"{num}.0"

        want = report(obj["values"], "same.json")
        assert want[0] == 0
        respelled = [[respell(x) for x in row] for row in obj["values"]]
        assert report(respelled, "respelled.json") == want

        spellings = [("1/2", "2/4"), ("3", "+3"), ("1/2", " 1/2 "), ("1/2", "0.5"), ("100", "1e2")]
        canonical_values = [list(row) for row in obj["values"]]
        edited = [list(row) for row in obj["values"]]
        for k, (text, spelled) in enumerate(spellings):
            canonical_values[1 + k][2 + k % 3] = text
            edited[1 + k][2 + k % 3] = spelled
        want = report(canonical_values, "canonical.json")
        assert want[0] == 1 and want[2] == ""
        assert report(edited, "edited.json") == want

    @pytest.mark.parametrize(
        "k,N",
        [
            (kappa.family_hoare_rahman(1, 2, 3, 4), 3),
            (kappa.family_milch([F(1, 2), F(1, 4), F(1, 8), F(1, 8)]), 2),
            (kappa.family_ds(F(3), 1), 6),
        ],
        ids=["hr-d2", "milch-d3", "ds-d1"],
    )
    def test_exact_table_and_passing_checks_never_make_values(
        self, capsys, tmp_path, monkeypatch, k, N
    ):
        # the table is written from its integer lines, and a passing exact
        # check, of a table file or of a set, compares on their integer
        # view: none of them makes the table's Fraction values
        path = write_kappa(tmp_path, k)
        want = tmp_path / "want.json"
        run(capsys, "table", "--kappa", path, "--N", str(N), "--output", str(want))
        monkeypatch.setattr(
            hyperg.PolynomialTable, "values", property(lambda tab: pytest.fail("values read"))
        )
        got = tmp_path / "got.json"
        code, _, _ = run(capsys, "table", "--kappa", path, "--N", str(N), "--output", str(got))
        assert code == 0 and got.read_bytes() == want.read_bytes()
        for argv in (("--table", str(got)), ("--kappa", path, "--N", str(N))):
            code, out, err = run(capsys, "check", *argv)
            assert (code, err) == (0, "") and json.loads(out)["pass"] is True

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_table_signed_denominator_exit_2(self, capsys, milch2_file, tmp_path, mode):
        # "3/+4" is not the ASCII "a/b" that the fast parse reads, and
        # Fraction's own parser refuses it with its own message
        err = self._check_with_entry(capsys, milch2_file, tmp_path, mode, "3/+4")
        assert err == "error: malformed table value: Invalid literal for Fraction: '3/+4'\n"

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_table_exponent_past_the_bound_exit_2(self, capsys, milch2_file, tmp_path, mode):
        # Fraction would build 10**999999999 for this 11-character entry;
        # it is refused as a parse error at once
        err = self._check_with_entry(capsys, milch2_file, tmp_path, mode, "1e999999999")
        assert err == (
            "error: malformed table value: "
            "exponent past +-4300 in decimal literal '1e999999999'\n"
        )

    def test_table_entry_past_the_str_digit_limit_is_reported(self, capsys, milch2_file, tmp_path):
        # "1e4300" is inside the exponent bound, but it and the residuals
        # it makes have more digits than `str` writes for an int: the
        # report is still written, each record on a line through the
        # entry (row 1 on the rows side, column 2 on the columns side)
        tab_path = tmp_path / "table.json"
        run(capsys, "table", "--kappa", milch2_file, "--N", "2", "--output", str(tab_path))
        obj = json.loads(tab_path.read_text())
        obj["values"][1][2] = "1e4300"
        tab_path.write_text(json.dumps(obj))
        argv = ("check", "--table", str(tab_path), "--suite", "orthogonality")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        (report,) = json.loads(out)["reports"]
        assert not report["pass"] and report["failures"]
        points = [list(n) for n in enumerate_lattice(2, 2)]
        line = {"rows": points[1], "columns": points[2]}
        for f in report["failures"]:
            assert line[f["side"]] in f["pair"], f
            assert re.fullmatch(r"-?[0-9]+(/[0-9]+)?", f["residual"])
        assert max(len(f["residual"]) for f in report["failures"]) > 4300

    @staticmethod
    def _check_with_entry(capsys, milch2_file, tmp_path, mode, entry):
        """stderr of `check --table` on the Milch d=2 N=2 table with entry
        (1, 2) replaced by the string `entry`, after exit 2 and no stdout."""
        tab_path = tmp_path / "table.json"
        run(capsys, "table", "--kappa", milch2_file, "--N", "2",
            "--output", str(tab_path))
        obj = json.loads(tab_path.read_text())
        obj["values"][1][2] = entry
        tab_path.write_text(json.dumps(obj))
        code, out, err = run(
            capsys, "--mode", mode, "check", "--table", str(tab_path),
            "--suite", "orthogonality",
        )
        assert code == 2
        assert out == ""
        return err

    def test_table_values_not_rows_exit_2(self, capsys, milch2_file, tmp_path):
        # values must be a list of rows, each a list: a number or null in
        # either place is a parse error, not a TypeError traceback
        tab_path = tmp_path / "table.json"
        run(capsys, "table", "--kappa", milch2_file, "--N", "2",
            "--output", str(tab_path))
        obj = json.loads(tab_path.read_text())
        bad_rows = [obj["values"][:1] + [x] + obj["values"][2:] for x in (5, None)]
        for values in [5, None] + bad_rows:
            bad_path = tmp_path / "bad.json"
            bad_path.write_text(json.dumps(dict(obj, values=values)))
            code, out, err = run(
                capsys, "check", "--table", str(bad_path), "--suite", "orthogonality"
            )
            assert (code, out) == (2, ""), values
            assert err.startswith("error: malformed table "), err

    def test_table_kappa_mismatch_exit_2(self, capsys, milch2_file, classical_file, tmp_path):
        tab_path = tmp_path / "table.json"
        run(capsys, "table", "--kappa", milch2_file, "--N", "2",
            "--output", str(tab_path))
        code, _, err = run(
            capsys,
            "check", "--kappa", classical_file, "--table", str(tab_path),
        )
        assert code == 2
        assert "disagree" in err

    def test_table_N_mismatch_exit_2(self, capsys, milch2_file, tmp_path):
        tab_path = tmp_path / "table.json"
        run(capsys, "table", "--kappa", milch2_file, "--N", "2",
            "--output", str(tab_path))
        code, _, err = run(
            capsys,
            "check", "--table", str(tab_path), "--N", "3",
            "--suite", "orthogonality",
        )
        assert code == 2
        assert "does not match" in err


class TestModes:
    def test_approx_eval(self, capsys, tmp_path):
        k = kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)])
        obj = kappa.to_json_dict(k)
        path = tmp_path / "k.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(
            capsys,
            "--mode", "approx",
            "eval", "--kappa", str(path), "--N", "2",
            "--m", "1,0", "--mt", "1,0",
        )
        assert code == 0
        assert abs(float(out) + 1) < 1e-10

    def test_approx_check_passes(self, capsys, milch2_file):
        code, out, _ = run(
            capsys,
            "--mode", "approx", "--eps", "1e-10",
            "check", "--kappa", milch2_file, "--N", "2",
            "--suite", "orthogonality,recurrence,threeway",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_approx_recurrence_survives_round_off(self, capsys, tmp_path):
        # float round-off leaves residuals near 1e-15 in the affine
        # coefficients of this set's outward shifts; the lattice forms
        # read the integer lam_l instead, which is exactly 0 there
        ds = write_kappa(tmp_path, kappa.family_ds(F(3), 2))
        code, out, _ = run(
            capsys,
            "--mode", "approx",
            "check", "--kappa", ds, "--N", "10", "--suite", "recurrence",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True
        code, out, _ = run(
            capsys,
            "--mode", "approx",
            "check", "--kappa", ds, "--N", "6", "--suite", "universal,commute",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_approx_operators_take_no_tolerance(self, capsys, tmp_path):
        # the operators are built with no tolerance at all; only the
        # comparisons of the three stencil suites use the run's eps
        for fn in (bispec.operator_mtilde, bispec.operator_m, bispec.operator_universal,
                   bispec.apply, bispec._compose):
            assert "tol" not in inspect.signature(fn).parameters, fn.__name__
        ds = write_kappa(tmp_path, kappa.family_ds(F(3), 2))
        code, out, _ = run(
            capsys,
            "--mode", "approx",
            "check", "--kappa", ds, "--N", "6", "--suite", "recurrence,universal,commute",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("operator", ["m", "mtilde", "universal"])
    def test_approx_stencil_survives_round_off(self, capsys, tmp_path, operator):
        ds = write_kappa(tmp_path, kappa.family_ds(F(3), 2))
        code, out, _ = run(
            capsys,
            "--mode", "approx",
            "stencil", "--kappa", ds, "--N", "10", "--operator", operator,
        )
        assert code == 0
        assert json.loads(out)["N"] == 10

    def test_eps_requires_approx_exit_2(self, capsys, milch2_file):
        code, _, err = run(
            capsys,
            "--eps", "1e-8",
            "params-validate", "--input", milch2_file,
        )
        assert code == 2
        assert "approx" in err

    @pytest.mark.parametrize("eps", ["inf", "nan", "-1", "0"])
    def test_eps_must_be_positive_and_finite_exit_2(self, capsys, milch2_file, eps):
        # inf reads every defining condition as met and nan or a negative
        # eps every one as violated; 0 is the exact comparison, which
        # approx arithmetic cannot meet
        for argv in (
            ("params-validate", "--input", milch2_file),
            ("check", "--kappa", milch2_file, "--N", "2", "--suite", "orthogonality"),
        ):
            code, out, err = run(capsys, "--mode", "approx", f"--eps={eps}", *argv)
            assert code == 2
            assert out == ""
            assert err == f"error: --eps must be a positive finite number, got {float(eps)}\n"

    def test_threads_is_usage_error(self, capsys, milch2_file):
        code, out, _ = run(
            capsys,
            "--threads", "2",
            "table", "--kappa", milch2_file, "--N", "2",
        )
        assert code == 2
        assert out == ""

    def test_approx_norms_relative_to_large_values(self, capsys, tmp_path):
        # the norms of this set reach 6e9, where float round-off exceeds
        # the absolute eps
        hr = write_kappa(tmp_path, kappa.family_hoare_rahman(1, 2, 3, 4))
        code, out, _ = run(
            capsys,
            "--mode", "approx",
            "check", "--kappa", hr, "--N", "4", "--suite", "norms",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize(
        "family,N,suites",
        [
            ("hr", 7, "adjacency"),
            ("hr", 8, "adjacency,norms,transition"),
            ("ds", 20, "adjacency,norms,transition"),
        ],
    )
    def test_approx_module_suites_at_larger_N(self, capsys, tmp_path, family, N, suites):
        # round-off of the degree-N expansions reached 1.5e-10 at HR N = 8,
        # past the absolute eps; adjacency compares within eps times a
        # bound of its terms, and norms and transition keep passing
        k = {
            "hr": kappa.family_hoare_rahman(1, 2, 3, 4),
            "ds": kappa.family_ds(F(3), 1),
        }[family]
        code, out, _ = run(
            capsys,
            "--mode", "approx",
            "check", "--kappa", write_kappa(tmp_path, k), "--N", str(N),
            "--suite", suites,
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize(
        "family,N,suites",
        [
            ("ds-d1", 20, ("--suite", "recurrence,universal,threeway")),
            ("ds-d1", 16, ()),
            ("ds-d2", 14, ("--suite", "recurrence,universal,threeway,duality")),
            ("griffiths", 10, ("--suite", "recurrence")),
        ],
        ids=["ds-d1-N20", "ds-d1-N16-full", "ds-d2-N14", "griffiths-N10"],
    )
    def test_approx_kernel_sums_survive_cancellation(self, capsys, tmp_path, family, N, suites):
        # float kernel terms summed one by one cancelled to about 1e-9 of
        # the values at ds q = 3, d = 1, N = 20, and each of these checks
        # failed; the sums now run on the exact values of the floats and
        # round once, and every check passes at the default eps
        k = {
            "ds-d1": kappa.family_ds(F(3), 1),
            "ds-d2": kappa.family_ds(F(3), 2),
            "griffiths": kappa.griffiths_from_p([F(101, 400), F(99, 400), F(1, 2)]),
        }[family]
        code, out, _ = run(
            capsys,
            "--mode", "approx",
            "check", "--kappa", write_kappa(tmp_path, k), "--N", str(N), *suites,
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_approx_duality_relative_to_large_values(self, capsys, tmp_path):
        # values of this set reach 2.6e6 at N = 4, where the two routes
        # differ by more than the absolute eps
        hr = write_kappa(
            tmp_path,
            kappa.family_hoare_rahman(F(17, 101), F(-3, 7), F(29, 113), F(5, 211)),
        )
        code, out, _ = run(
            capsys,
            "--mode", "approx",
            "check", "--kappa", hr, "--N", "4", "--suite", "duality",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_eps_reaches_internal_rechecks(self, capsys, perturbed_hr_file):
        # the conjugator and the involution must re-check the set at the
        # run's eps too, not at the default 1e-10
        code, out, _ = run(
            capsys,
            "--mode", "approx", "--eps", "1e-6",
            "check", "--kappa", perturbed_hr_file, "--N", "2",
        )
        assert code in (0, 1)
        reports = json.loads(out)["reports"]
        assert len(reports) == 12
        assert code == (0 if all(r["pass"] for r in reports) else 1)

    def test_eps_reaches_params_involute(self, capsys, perturbed_hr_file):
        code, out, err = run(
            capsys,
            "--mode", "approx", "--eps", "1e-6",
            "params-involute", "--kappa", perturbed_hr_file,
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["d"] == 2

    def test_eps_reaches_pairing_eval(self, capsys, perturbed_hr_file):
        argv = ("--mode", "approx", "--eps", "1e-6", "eval", "--kappa", perturbed_hr_file,
                "--N", "2", "--m", "1,0", "--mt", "1,0", "--method")
        code, pairing, err = run(capsys, *argv, "pairing")
        assert (code, err) == (0, "")
        assert pairing == run(capsys, *argv, "hyper")[1]

    def test_approx_check_relative_to_large_values(self, capsys, tmp_path):
        # values of this set reach 6e5, where float round-off exceeds the
        # absolute eps in orthogonality, recurrence, universal and threeway
        hr = write_kappa(
            tmp_path,
            kappa.family_hoare_rahman(F(17, 101), F(-3, 7), F(29, 113), F(5, 211)),
        )
        code, out, _ = run(
            capsys,
            "--mode", "approx",
            "check", "--kappa", hr, "--N", "3",
        )
        assert code == 0
        reports = json.loads(out)["reports"]
        assert len(reports) == 12 and all(r["pass"] for r in reports)


class TestStencil:
    def test_dump_universal(self, capsys, milch2_file):
        code, out, _ = run(
            capsys,
            "stencil", "--kappa", milch2_file, "--N", "2",
            "--operator", "universal",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["operator"] == "universal"
        assert len(obj["terms"]) == 7

    def test_dump_builds_no_lattice_form(self, capsys, milch2_file, monkeypatch):
        # the dump reads the affine stencil only, so no monomial is acted on
        def refuse(*args):
            raise AssertionError("liemod.act called")

        monkeypatch.setattr(liemod, "act", refuse)
        for operator in ("mtilde", "m", "universal"):
            code, out, _ = run(
                capsys,
                "stencil", "--kappa", milch2_file, "--N", "40", "--operator", operator,
            )
            assert code == 0 and json.loads(out)["terms"]

    def test_bad_generator_index_exit_2(self, capsys, milch2_file):
        code, _, _ = run(
            capsys,
            "stencil", "--kappa", milch2_file, "--N", "2", "--i", "0",
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--N", "-1"],
        ["stencil", "--N", "-1"],
        ["check", "--N", "-2"],
        ["eval", "--N", "-1", "--m", "0,0", "--mt", "0,0"],
    ],
    ids=["table", "stencil", "check", "eval"],
)
def test_negative_N_exit_2(capsys, milch2_file, argv):
    code, out, err = run(capsys, *argv, "--kappa", milch2_file)
    assert code == 2
    assert out == ""
    assert "--N" in err


class TestInternalErrors:
    def test_internal_assertion_exit_4(self, capsys, milch2_file, monkeypatch):
        # a set corrupted past validation (pt_1 moved by 1/7) breaks the
        # conjugator's inverse: an internal error, not a failed check
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        pt = (k.pt[0], k.pt[1] + F(1, 7)) + k.pt[2:]
        corrupt = kappa.ParameterSet(k.d, k.nu, k.p, pt, k.u)
        monkeypatch.setattr(cli, "_load_kappa", lambda path, mode, tol: corrupt)
        code, out, err = run(
            capsys, "check", "--kappa", milch2_file, "--N", "2", "--suite", "norms"
        )
        assert code == 4
        assert out == ""
        assert err.startswith("error: internal invariant failed: ")
        assert "conjugator inverse failed; parameter set corrupt" in err

    def test_invalid_set_inside_a_check_run_exit_3(self, capsys, milch2_file, monkeypatch):
        # the same corrupt, unsealed set under duality: the involution
        # refuses its image, an invalid parameter set (exit 3), not a usage
        # error
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        pt = (k.pt[0], k.pt[1] + F(1, 7)) + k.pt[2:]
        corrupt = kappa.ParameterSet(k.d, k.nu, k.p, pt, k.u)
        monkeypatch.setattr(cli, "_load_kappa", lambda path, mode, tol: corrupt)
        code, out, err = run(
            capsys, "check", "--kappa", milch2_file, "--N", "2", "--suite", "duality"
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: invalid parameter set: ")
        assert err.count("\n") == 1

    def test_a_set_accepted_at_eps_is_not_refused_later(self, capsys, tmp_path):
        # Milch (1/2 - 1e-100, 1/2, 1e-100) loads at eps 1e-102, so its seal
        # holds for the run: the involute is its image with no second
        # diagnosis, and the conjugator makes no inverse check that float
        # round-off near 1e100 cannot meet; the lemma suites and adjacency
        # run and report their float defects as failures (exit 1), norms
        # exits 5 at its pairing weight, and duality passes
        w = F(1, 10**100)
        milch = write_kappa(tmp_path, kappa.family_milch([F(1, 2) - w, F(1, 2), w]))
        approx = ("--mode", "approx", "--eps", "1e-102")
        assert run(capsys, *approx, "params-validate", "--input", milch)[0] == 0
        code, out, err = run(capsys, *approx, "params-involute", "--kappa", milch)
        assert (code, err) == (0, "")
        image = json.loads(out)
        assert image["p"] == ["0.5", "0.5", "2e-100"] and image["pt"] == ["0.5", "0.5", "1e-100"]
        for suite in ("lemma21", "lemma22", "adjacency"):
            code, out, err = run(capsys, *approx, "check", "--kappa", milch, "--N", "4", "--suite", suite)
            assert (code, err) == (1, "")
            (report,) = json.loads(out)["reports"]
            assert report["failures"]
        code, out, err = run(capsys, *approx, "check", "--kappa", milch, "--N", "4", "--suite", "norms")
        assert (code, out) == (5, "")
        assert err.startswith("error: the approx pairing weight n!/(pt^n N!) at n = [0, 0, 4], N = 4")
        code, out, err = run(capsys, *approx, "check", "--kappa", milch, "--N", "1", "--suite", "duality")
        assert (code, err) == (0, "")
        assert json.loads(out)["pass"] is True

    def test_approx_power_of_nu_past_the_float_range_is_located(self, capsys, tmp_path):
        # Griffiths from p = (1e-100, 1/2, 1/2 - 1e-100) has nu = 1e100, so
        # nu^4 is past the float range: norms and orthogonality exit 5
        # naming the power, and exact mode has the values
        w = F(1, 10**100)
        grif = write_kappa(tmp_path, kappa.griffiths_from_p([w, F(1, 2), F(1, 2) - w]))
        error = (
            "error: the approx power nu^4 at nu = 1e+100 leaves the float range; "
            "exact mode has no float range\n"
        )
        for suite in ("norms", "orthogonality"):
            argv = ("check", "--kappa", grif, "--N", "4", "--suite", suite)
            assert run(capsys, "--mode", "approx", "--eps", "1e-102", *argv) == (5, "", error)
            assert run(capsys, *argv)[0] == 0

    def test_approx_overflow_exit_5(self, capsys, tmp_path):
        # Milch with the weight 1e-100 (valid at eps 1e-102) has omega_11
        # near 1e100, and P([4, 0], [4, 0]) near 1e399 at N = 4 is past the
        # float range, while P([3, 0], [3, 0]) near -2.5e299 is not: the
        # margin-form table and `eval` exit 5 naming the value, and exact
        # mode has the value
        w = F(1, 10**100)
        milch = write_kappa(tmp_path, kappa.family_milch([F(1, 2), w, F(1, 2) - w]))
        approx = ("--mode", "approx", "--eps", "1e-102")
        code, out, err = run(capsys, *approx, "table", "--kappa", milch, "--N", "4")
        assert (code, out) == (5, "")
        assert err == (
            "error: the approx kernel sum of P([4, 0], [4, 0]) at N = 4 leaves the float range; "
            "exact mode has no float range\n"
        )
        argv = ("eval", "--kappa", milch, "--N", "4", "--m", "4,0", "--mt", "4,0")
        code, out, err = run(capsys, *approx, *argv)
        assert (code, out) == (5, "")
        assert "P([4, 0], [4, 0]) at N = 4 leaves the float range" in err
        exact = hyperg.eval_hypergeometric(kappa.family_milch([F(1, 2), w, F(1, 2) - w]), 4, (4, 0), (4, 0))
        assert run(capsys, *argv) == (0, f"{exact}\n", "") and exact > 10**398
        code, out, _ = run(capsys, *approx, *argv[:-4], "--m", "3,0", "--mt", "3,0")
        assert code == 0 and float(out) == pytest.approx(-2.5e299)

    def test_approx_overflow_of_the_powers_exit_5(self, capsys, tmp_path):
        # at d = 1 the per-entry sums run on the exact values of the floats
        # too, and no float power is formed: with omega near 1e100,
        # P([4], [4]) near 1e399 at N = 4 exits 5 naming the value, and
        # P([3], [3]) is a float, although omega^4 is past the float range
        w = F(1, 10**100)
        k = kappa.family_milch([1 - w, w])
        milch = write_kappa(tmp_path, k, "milch.json")
        approx = ("--mode", "approx", "--eps", "1e-102")
        for verb in (("table",), ("eval", "--m", "4", "--mt", "4")):
            code, out, err = run(capsys, *approx, *verb, "--kappa", milch, "--N", "4")
            assert (code, out) == (5, "")
            assert err.startswith(
                "error: the approx kernel sum of P([4], [4]) at N = 4 leaves the float range"
            )
        argv = ("eval", "--kappa", milch, "--N", "4", "--m", "3", "--mt", "3")
        code, out, _ = run(capsys, *approx, *argv)
        exact = hyperg.eval_hypergeometric(k, 4, (3,), (3,))
        assert code == 0 and float(out) == pytest.approx(float(exact), rel=1e-12)
        assert exact < -1e299

    def test_approx_pairing_weight_past_the_float_range_is_located(self, capsys, tmp_path):
        # the Milch set of test_approx_overflow_exit_5 has pt_1 near
        # 5e-101, so pt^n underflows to 0 at n = (0, 4, 0) and the weight
        # n!/(pt^n N!) is near 1e400: norms, which weighs its form with
        # it, and the pairing route of `eval` exit 5 naming the weight
        # and its point, with no traceback, and exact mode has the values
        w = F(1, 10**100)
        milch = write_kappa(tmp_path, kappa.family_milch([F(1, 2), w, F(1, 2) - w]))
        error = (
            "error: the approx pairing weight n!/(pt^n N!) at n = [0, 4, 0], N = 4 leaves "
            "the float range; exact mode has no float range\n"
        )
        norms = ("check", "--kappa", milch, "--N", "4", "--suite", "norms")
        pairing = ("eval", "--kappa", milch, "--N", "4", "--m", "4,0", "--mt", "0,0", "--method",
                   "pairing")
        for argv in (norms, pairing):
            assert run(capsys, "--mode", "approx", "--eps", "1e-102", *argv) == (5, "", error)
            assert run(capsys, *argv)[0] == 0

    def test_approx_sym_power_past_the_float_range_is_located(self, capsys, tmp_path):
        # the Milch set of test_approx_overflow_exit_5 has u near 1e100,
        # so its generating matrices at N = 4 hold entries near 1e400: on a
        # table of zeros, duality and threeway exit 5 naming the entry of
        # the involute's matrix and of the set's
        w = F(1, 10**100)
        milch = write_kappa(tmp_path, kappa.family_milch([F(1, 2), w, F(1, 2) - w]))
        tab_path = tmp_path / "table.json"
        run(capsys, "table", "--kappa", milch, "--N", "4", "--output", str(tab_path))
        obj = json.loads(tab_path.read_text())
        obj["values"] = [["0"] * len(row) for row in obj["values"]]
        tab_path.write_text(json.dumps(obj))
        for suite in ("duality", "threeway"):
            argv = ("--eps", "1e-102", "check", "--table", str(tab_path), "--suite", suite)
            assert run(capsys, "--mode", "approx", *argv) == (
                5,
                "",
                "error: entry ([0, 4, 0], [0, 4, 0]) of an approx Sym^4 matrix leaves the "
                "float range; exact mode has no float range\n",
            )

    def test_approx_table_entry_past_the_float_range_is_located(
        self, capsys, milch2_file, tmp_path
    ):
        # "1e4300" is a valid exact entry, but no float: approx mode exits
        # 5 naming the entry and its row and column lattice points
        tab_path = tmp_path / "table.json"
        run(capsys, "table", "--kappa", milch2_file, "--N", "2", "--output", str(tab_path))
        obj = json.loads(tab_path.read_text())
        obj["values"][1][2] = "1e4300"
        tab_path.write_text(json.dumps(obj))
        argv = ("check", "--table", str(tab_path), "--suite", "orthogonality")
        code, out, err = run(capsys, "--mode", "approx", *argv)
        assert (code, out) == (5, "")
        points = [list(n) for n in enumerate_lattice(2, 2)]
        assert err.startswith(
            f"error: the table entry '1e4300' at row {points[1]}, column {points[2]}: "
        )
        assert err.endswith("; exact mode has no float range\n")

    def test_approx_parameter_field_past_the_float_range_is_located(
        self, capsys, milch2_file, tmp_path
    ):
        # each field of a parameter-set file is named by its place
        for place, keys in (("nu", ["nu"]), ("p[1]", ["p", 1]), ("pt[2]", ["pt", 2]),
                            ("u[2][1]", ["u", 2, 1])):
            obj = json.loads(open(milch2_file).read())
            *outer, last = keys
            field = obj
            for key in outer:
                field = field[key]
            field[last] = "-1e400"
            path = tmp_path / f"{keys[0]}.json"
            path.write_text(json.dumps(obj))
            code, out, err = run(capsys, "--mode", "approx", "params-validate", "--input", str(path))
            assert (code, out) == (5, "")
            assert err.startswith(f"error: the parameter-set field {place} = '-1e400': ")
            # exact mode reads the same file as a set that fails validation
            assert run(capsys, "params-validate", "--input", str(path))[0] == 3

    def test_approx_flag_list_past_the_float_range_is_located(self, capsys):
        for argv, flag, text in (
            (("params-griffiths", "--p", "1e400,1/2"), "--p", "1e400,1/2"),
            (("params-family", "--family", "milch", "--p", "1/2,1e400"), "--p", "1/2,1e400"),
            (("params-family", "--family", "hoare-rahman", "--params", "1,2,3,1e400"),
             "--params", "1,2,3,1e400"),
            (("params-family", "--family", "ds", "--q", "1e400", "--d", "1"), "--q", "1e400"),
        ):
            code, out, err = run(capsys, "--mode", "approx", *argv)
            assert (code, out) == (5, "")
            assert err.startswith(f"error: the list {flag} {text}: ")

    @pytest.mark.parametrize("q", ["1e200", "1e-200"])
    def test_approx_ds_weights_past_the_float_range_exit_5(self, capsys, q):
        # at d = 3 the weight q^-3 underflows to 0 at q = 1e200 and
        # overflows at q = 1e-200: both exit 5 naming q and d, not with a
        # traceback or the bare errno of the power, while exact mode
        # builds the set
        argv = ("params-family", "--family", "ds", "--q", q, "--d", "3")
        code, out, err = run(capsys, "--mode", "approx", *argv)
        assert (code, out) == (5, "")
        assert err == (
            f"error: the approx ds weights at q = {float(q)}, d = 3 leave the float range; "
            "exact mode has no float range\n"
        )
        assert run(capsys, *argv)[0] == 0


class TestLatticeBudget:
    def test_huge_N_is_refused_before_the_lattice_is_made(
        self, capsys, tmp_path, milch2_file, monkeypatch
    ):
        # comb(10^9 + 2, 2) lattice points: `table` and a lattice suite of
        # `check` exit 2 at once, and nothing is enumerated
        def refuse(d, degree):
            raise AssertionError("the lattice was enumerated")

        for module in (numeric, hyperg, liemod, verify):
            monkeypatch.setattr(module, "enumerate_lattice", refuse)
        N = str(10**9)
        message = f"error: --N {N} at d = 2 has more than {cli.MAX_LATTICE} lattice points\n"
        for argv in (
            ("table", "--kappa", milch2_file, "--N", N),
            ("--mode", "approx", "table", "--kappa", milch2_file, "--N", N),
            ("check", "--kappa", milch2_file, "--N", N),
            ("check", "--kappa", milch2_file, "--N", N, "--suite", "def11,norms"),
        ):
            assert run(capsys, *argv) == (2, "", message)
        # a table file that claims that N is refused by its size alone
        obj = {
            "kappa": json.loads(open(milch2_file).read()),
            "N": 10**9,
            "order": "grlex",
            "values": [["1"]],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "check", "--table", str(path))
        assert (code, out) == (2, "")
        assert err == "error: table dimensions do not match the lattice\n"
        # the kappa-only suites and the stencil take no lattice
        argv = ("check", "--kappa", milch2_file, "--N", N, "--suite", "def11,lemma21,lemma22")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["pass"]
        assert run(capsys, "stencil", "--kappa", milch2_file, "--N", N)[0] == 0

    def test_eval_is_refused_above_the_budget(self, capsys, tmp_path, monkeypatch):
        # comb(202, 2) = 20301 lattice points at N = 200: every route
        # exits 2 before the per-N factors of the kernel sums are made
        def refuse(kappa, N):
            raise AssertionError("the per-N view was built")

        monkeypatch.setattr(hyperg, "_integer_view", refuse)
        hr = write_kappa(tmp_path, kappa.family_hoare_rahman(1, 2, 3, 4))
        message = f"error: --N 200 at d = 2 has more than {cli.MAX_LATTICE} lattice points\n"
        for method in ("hyper", "gen", "pairing"):
            argv = ("eval", "--kappa", hr, "--N", "200", "--m", "1,0", "--mt", "0,1")
            assert run(capsys, *argv, "--method", method) == (2, "", message)
            assert run(capsys, "--mode", "approx", *argv, "--method", method) == (2, "", message)


class TestParser:
    def test_no_verb_exit_2(self, capsys):
        assert run(capsys, )[0] == 2

    def test_help_exit_0(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        # the parser, every sub-command's included, is built on the first
        # call only: it adds its sub-parsers once, one per verb
        verbs = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def counting(parser, **kwargs):
            action = add_subparsers(parser, **kwargs)
            add_parser = action.add_parser

            def counted(name, **kw):
                verbs.append(name)
                return add_parser(name, **kw)

            action.add_parser = counted
            return action

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
        cli._build_parser.cache_clear()
        try:
            argv = ("params-family", "--family", "ds", "--q", "2", "--d", "1")
            assert run(capsys, *argv)[0] == run(capsys, *argv)[0] == 0
        finally:
            cli._build_parser.cache_clear()
        assert verbs == [
            "params-validate", "params-griffiths", "params-family",
            "params-involute", "eval", "table", "check", "stencil",
        ]

    def test_reused_parser_keeps_help_and_usage_exits(self, capsys):
        # README: --help exits 0, a usage error exits 2 with the usage on
        # stderr; the same after earlier calls, and the same output each time
        outputs = []
        for _ in range(2):
            code, out, err = run(capsys, "--help")
            assert code == 0 and out.startswith("usage: mvkraw") and err == ""
            code, out, err = run(capsys, "check", "--threads", "2")
            assert code == 2 and out == "" and "unrecognized arguments: --threads" in err
            code, out, err = run(capsys, "eval", "--help")
            assert code == 0 and out.startswith("usage: mvkraw eval")
            code, out, err = run(capsys, "--mode", "fuzzy", "table")
            assert code == 2 and "invalid choice: 'fuzzy'" in err
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
