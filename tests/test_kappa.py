"""Parameter space: validation, families, involution, serialization."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mvkraw import cli, hyperg, kappa, liemod
from mvkraw import linalg, verify
from mvkraw.numeric import format_scalar, scalars_equal


def diagonal(entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


def matrix_identity_holds(k):
    """nu P U Pt U^t == I, multiplied out by hand."""
    n = k.d + 1
    prod = linalg.product(
        linalg.product(diagonal([k.nu * x for x in k.p]), k.u),
        linalg.product(diagonal(k.pt), linalg.transpose(k.u)),
    )
    return prod == linalg.identity(n)


class TestValidate:
    def test_milch_hand_values(self):
        k = kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)])
        assert k.pt == (F(1, 2), F(1, 6), F(1, 3))
        assert k.u[1][1] == -3 and k.u[2][2] == -2
        assert k.u[0] == (1, 1, 1)
        assert k.nu == 2
        assert matrix_identity_holds(k)

    def test_ds_hand_values(self):
        k = kappa.family_ds(2, 2)
        assert k.p == (F(1, 4), F(1, 4), F(1, 2))
        assert k.pt == k.p
        assert k.u == ((1, 1, 1), (1, 1, -1), (1, -1, 0))
        assert k.nu == 4
        assert matrix_identity_holds(k)
        # omega = 1 - u[i][j], i, j >= 1, as the kernel sums read it off
        # the set's integer view, with no denominator to clear
        assert k.integer_view[4][1] == 1
        assert hyperg._integer_view(k, 2).W == [[0, 2], [2, 1]]

    def test_hoare_rahman_hand_values(self):
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        assert k.p[0] == F(1, 126)
        assert k.p[1] == F(5, 18)
        assert k.pt[1] == F(5, 14)
        assert k.u[1][1] == F(-1, 5)
        assert matrix_identity_holds(k)

    def test_weights_sum_to_one(self):
        for k in (
            kappa.family_ds(3, 2),
            kappa.family_milch([F(1, 2), F(1, 6), F(1, 6), F(1, 6)]),
            kappa.family_hoare_rahman(F(1, 2), 1, 2, F(1, 3)),
        ):
            assert sum(k.p) == 1 and sum(k.pt) == 1
            assert k.p[0] == k.pt[0] == 1 / F(k.nu)

    def test_diagnose_locates_each_condition(self):
        good = kappa.family_ds(2, 2)
        # nu off: breaks (i) and (iii)
        bad = kappa.diagnose(5, good.p, good.pt, good.u)
        assert any(v.condition == "i" for v in bad)
        # first-row entry off: breaks (ii)
        u = [list(r) for r in good.u]
        u[0][1] = 7
        bad = kappa.diagnose(good.nu, good.p, good.pt, u)
        assert any(v.condition == "ii" and v.where == (0, 1) for v in bad)
        # interior entry off: breaks (iii) only
        u = [list(r) for r in good.u]
        u[1][2] = 9
        bad = kappa.diagnose(good.nu, good.p, good.pt, u)
        assert any(v.condition == "iii" for v in bad)
        assert not any(v.condition == "ii" for v in bad)
        # weight zero
        bad = kappa.diagnose(good.nu, (F(1, 4), 0, F(3, 4)), good.pt, good.u)
        assert any(v.condition == "weight_zero" and v.where == (1,) for v in bad)
        # dimension mismatch short-circuits
        bad = kappa.diagnose(2, (F(1, 2), F(1, 2)), (F(1, 2),), ((1, 1), (1, -1)))
        assert [v.condition for v in bad] == ["dimensions"]

    def test_validate_raises_with_violations(self):
        with pytest.raises(kappa.InvalidParameterSetError) as err:
            kappa.validate(3, (F(1, 3), F(2, 3)), (F(1, 3), F(2, 3)), ((1, 1), (1, 1)))
        assert err.value.violations

    def test_nu_zero(self):
        bad = kappa.diagnose(0, (F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)), ((1, 1), (1, -1)))
        assert any(v.condition == "nu_nonzero" for v in bad)

    def test_diagnose_dimension_branches(self):
        # one weight is d = 0, refused before anything else is read
        assert kappa.diagnose(1, (1,), (1,), ((1,),)) == [
            kappa.Violation("dimensions", (), "need d >= 1, got 0")
        ]
        good = kappa.family_ds(2, 2)
        ragged = ((1, 1, 1), (1, 1), (1, -1, 0))
        assert kappa.diagnose(good.nu, good.p, good.pt, ragged) == [
            kappa.Violation("dimensions", (), "u is not 3 x 3")
        ]

    def test_diagnose_first_column_and_weight_branches(self):
        good = kappa.family_ds(2, 2)
        u = [list(r) for r in good.u]
        u[2][0] = 3
        bad = kappa.diagnose(good.nu, good.p, good.pt, u)
        assert kappa.Violation("ii", (2, 0), "u[2][0] != 1") in bad
        # p and pt each off their sum by moving one entry
        p = (good.p[0], good.p[1], F(1, 4))
        bad = kappa.diagnose(good.nu, p, good.pt, good.u)
        assert kappa.Violation("weights_sum", (), "sum(p) != 1") in bad
        pt = (good.pt[0], good.pt[1], 0)
        bad = kappa.diagnose(good.nu, good.p, pt, good.u)
        assert kappa.Violation("weights_sum", (), "sum(pt) != 1") in bad
        assert kappa.Violation("weight_zero", (2,), "pt[2] = 0") in bad
        assert not any(v.detail.startswith("p[") for v in bad)

    def test_def11_fails_located_on_a_perturbed_u_entry(self):
        # a sealed set built past validation, with u[1][2] moved by 1/5:
        # def11 re-runs the diagnosis and reports each entry of
        # nu P U Pt U^t that the move reaches (u[2][2] = 0 shields (1, 2))
        good = kappa.family_ds(2, 2)
        u = [list(r) for r in good.u]
        u[1][2] += F(1, 5)
        bad = kappa.ParameterSet(good.d, good.nu, good.p, good.pt, linalg.freeze(u))
        (rep,) = verify.run_suites(["def11"], bad, None)
        assert not rep.passed
        assert rep.failures == [
            {"condition": "iii", "where": [0, 1], "detail": "(nu P U Pt U^t)[0][1] = 1/10 != 0"},
            {"condition": "iii", "where": [1, 0], "detail": "(nu P U Pt U^t)[1][0] = 1/10 != 0"},
            {"condition": "iii", "where": [1, 1], "detail": "(nu P U Pt U^t)[1][1] = 41/50 != 1"},
        ]
        assert rep.details == {"d": 2}


class TestFamilies:
    def test_hoare_rahman_forbidden_combinations(self):
        with pytest.raises(kappa.FamilyParameterError) as err:
            kappa.family_hoare_rahman(1, 1, 1, 1)
        assert err.value.factor == "1-p1-p2"
        with pytest.raises(kappa.FamilyParameterError) as err:
            kappa.family_hoare_rahman(1, -1, 3, 4)
        assert err.value.factor == "hp1+hp2"
        with pytest.raises(kappa.FamilyParameterError):
            kappa.family_hoare_rahman(0, 1, 1, 1)
        with pytest.raises(kappa.FamilyParameterError) as err:
            kappa.family_hoare_rahman(1, 2, -1, -2)
        assert err.value.factor == "hp1+hp2+hp3+hp4"

    def test_hoare_rahman_involution_is_parameter_swap(self):
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        assert kappa.involute(k, 0) == kappa.family_hoare_rahman(1, 3, 2, 4)

    def test_milch_structure(self):
        k = kappa.family_milch([F(1, 2), F(1, 6), F(1, 3)])
        d = k.d
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                if i < j:
                    assert k.u[i][j] == 0
                elif i > j:
                    assert k.u[i][j] == 1
        assert matrix_identity_holds(k)

    def test_milch_tail_sum_vanishes(self):
        with pytest.raises(kappa.FamilyParameterError) as err:
            kappa.family_milch([F(1, 2), 1, F(-1, 2)])
        assert "1-p[1..1]" == err.value.factor

    def test_ds_bad_q(self):
        for q in (0, 1):
            with pytest.raises(kappa.FamilyParameterError):
                kappa.family_ds(q, 2)
        with pytest.raises(ValueError):
            kappa.family_ds(2, 0)

    def test_ds_negative_q(self):
        k = kappa.family_ds(-1, 2)
        assert matrix_identity_holds(k)
        k = kappa.family_ds(F(1, 2), 3)
        assert matrix_identity_holds(k)

    def test_griffiths_d1_closed_form(self):
        k = kappa.griffiths_from_p([F(1, 3), F(2, 3)])
        # single orthogonalized column is (1, -p0/p1)
        assert k.u == ((1, 1), (1, F(-1, 2)))
        assert k.pt == k.p
        k2 = kappa.griffiths_from_p([F(1, 2), F(1, 2)])
        assert k2.u == ((1, 1), (1, -1))

    def test_griffiths_larger(self):
        for p in ([F(1, 2), F(1, 4), F(1, 4)], [F(1, 6), F(1, 3), F(1, 4), F(1, 4)]):
            k = kappa.griffiths_from_p(p)
            assert matrix_identity_holds(k)
            assert k.p == tuple(p)

    def test_griffiths_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            kappa.griffiths_from_p([F(1, 2), F(1, 4)])  # sum != 1
        with pytest.raises(ValueError):
            kappa.griffiths_from_p([F(1, 2), 0, F(1, 2)])

    def test_griffiths_degenerate_column(self):
        # the first orthogonalized vector has norm p1(1 - p1), which a
        # signed weight vector can kill
        with pytest.raises(kappa.GramSchmidtError) as err:
            kappa.griffiths_from_p([F(1, 2), 1, F(-1, 2)])
        assert err.value.j == 1
        # signed weights that stay nondegenerate still build a valid set
        k = kappa.griffiths_from_p([F(1, 2), F(1, 4), F(-1, 4), F(1, 2)])
        assert matrix_identity_holds(k)


class TestInvolution:
    def test_involution_swaps(self):
        k = kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)])
        b = kappa.involute(k, 0)
        assert b.p == k.pt and b.pt == k.p
        assert b.u == linalg.transpose(k.u)
        assert b.nu == k.nu

    def test_involution_is_involutive(self):
        k = kappa.family_hoare_rahman(F(1, 2), 2, 3, F(4, 3))
        assert kappa.involute(kappa.involute(k, 0), 0) == k

    def test_self_dual_family(self):
        k = kappa.family_ds(2, 3)
        b = kappa.involute(k, 0)
        assert b.p == k.p  # weights fixed; u transposes


class TestSeal:
    """`validate` proves the defining conditions once and seals the set
    with its tol; the involution, def11 and the conjugator read the seal
    at that tol, and a set built directly is diagnosed as it is."""

    def test_an_exact_run_diagnoses_once(self, tmp_path, monkeypatch, capsys):
        # the load's validation is the run's one diagnosis: the involute is
        # sealed by the swap, def11 reports the seal, and the conjugator
        # makes no inverse check
        path = tmp_path / "kappa.json"
        path.write_text(json.dumps(kappa.to_json_dict(kappa.family_hoare_rahman(1, 2, 3, 4))))
        calls = []
        diagnose = kappa.diagnose
        monkeypatch.setattr(kappa, "diagnose", lambda *a: calls.append(a) or diagnose(*a))
        assert cli.main(["check", "--kappa", str(path), "--N", "2"]) == 0
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_seal_is_kept_off_equality_hash_and_wire(self):
        k = kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)])
        twin = kappa.ParameterSet(k.d, k.nu, k.p, k.pt, k.u)
        assert kappa.sealed(k, 0) and not kappa.sealed(twin, 0)
        assert not kappa.sealed(k, 1e-10)
        assert k == twin and hash(k) == hash(twin)
        assert kappa.to_json_dict(k) == kappa.to_json_dict(twin)
        assert repr(k) == repr(twin)
        # the image of a sealed set is sealed at the same tol; an unsealed
        # set's image is validated, and so sealed too
        assert kappa.sealed(kappa.involute(k, 0), 0)
        assert kappa.sealed(kappa.involute(twin, 0), 0)
        assert kappa.involute(k, 0) == kappa.involute(twin, 0)

    def test_def11_at_another_tol_diagnoses_again(self, monkeypatch):
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        calls = []
        diagnose = kappa.diagnose
        monkeypatch.setattr(kappa, "diagnose", lambda *a: calls.append(a[-1]) or diagnose(*a))
        assert verify.check_def11(k, 0).passed and calls == []
        assert verify.check_def11(k, 1e-9).passed and calls == [1e-9]

    def test_an_unsealed_corrupt_set_is_still_caught(self):
        # pt_1 moved by 1/7, as in the CLI's internal-error test: def11
        # fails with located records, the involution refuses the image and
        # the conjugator refuses its inverse
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        pt = (k.pt[0], k.pt[1] + F(1, 7)) + k.pt[2:]
        corrupt = kappa.ParameterSet(k.d, k.nu, k.p, pt, k.u)
        (rep,) = verify.run_suites(["def11"], corrupt, None)
        assert not rep.passed
        assert {f["condition"] for f in rep.failures} == {"iii", "weights_sum"}
        assert all(len(f["where"]) == 2 for f in rep.failures if f["condition"] == "iii")
        with pytest.raises(kappa.InvalidParameterSetError):
            kappa.involute(corrupt, 0)
        with pytest.raises(AssertionError, match="conjugator inverse failed"):
            liemod.conjugator(corrupt, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(1, 2, 3, 4), (F(17, 101), F(-3, 7), F(29, 113), F(5, 211))]),
        st.integers(0, 2),
        st.integers(0, 2),
        st.fractions(-3, 3, max_denominator=9),
        st.booleans(),
    )
    def test_identity_iii_records_are_the_plain_products(self, params, r, c, move, approx):
        # a set with u[r][c] moved, in exact or float values: the records of
        # (iii) are those of the plain product of diagonal matrices, each
        # entry's text included
        k = kappa.family_hoare_rahman(*params)
        value = float if approx else (lambda x: x)
        u = [[value(x) for x in row] for row in k.u]
        u[r][c] += value(move)
        nu, p, pt = value(k.nu), [value(x) for x in k.p], [value(x) for x in k.pt]
        tol = 1e-10 if approx else 0
        product = linalg.product(
            linalg.product(diagonal([F(nu) * x if not approx else nu * x for x in p]), linalg.freeze(u)),
            linalg.product(diagonal(pt), linalg.transpose(linalg.freeze(u))),
        )
        want = [
            kappa.Violation(
                "iii", (i, j), f"(nu P U Pt U^t)[{i}][{j}] = {format_scalar(x)} != {int(i == j)}"
            )
            for i, row in enumerate(product)
            for j, x in enumerate(row)
            if not scalars_equal(x, int(i == j), tol)
        ]
        got = [v for v in kappa.diagnose(nu, p, pt, u, tol) if v.condition == "iii"]
        assert got == want


class TestJson:
    def test_round_trip(self):
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        obj = kappa.to_json_dict(k)
        assert list(obj) == ["d", "nu", "p", "pt", "u"]
        assert kappa.from_json_dict(obj) == k

    def test_malformed(self):
        with pytest.raises(ValueError):
            kappa.from_json_dict({"d": 1, "nu": "2"})
        with pytest.raises(ValueError):
            kappa.from_json_dict(
                {"d": 3, "nu": "2", "p": ["1/2", "1/2"], "pt": ["1/2", "1/2"],
                 "u": [["1", "1"], ["1", "-1"]]}
            )

    @pytest.mark.parametrize("d", [True, 2.5, 2.0, "2", None])
    def test_d_must_be_json_integer(self, d):
        obj = kappa.to_json_dict(kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)]))
        obj["d"] = d
        with pytest.raises(ValueError, match="d must be an integer"):
            kappa.from_json_dict(obj)


rational = st.fractions(min_value=F(1, 30), max_value=1, max_denominator=30)


@st.composite
def weight_vectors(draw, d):
    parts = [draw(rational) for _ in range(d + 1)]
    total = sum(parts)
    return [x / total for x in parts]


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_griffiths_always_valid(self, d, data):
        p = data.draw(weight_vectors(d))
        k = kappa.griffiths_from_p(p)
        assert matrix_identity_holds(k)
        assert kappa.diagnose(k.nu, k.p, k.pt, k.u) == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_milch_always_valid(self, d, data):
        p = data.draw(weight_vectors(d))
        k = kappa.family_milch(p)
        assert matrix_identity_holds(k)

    @settings(max_examples=40, deadline=None)
    @given(rational, rational, rational, rational)
    def test_hoare_rahman_positive_quadruples_valid(self, a, b, c, e):
        # positivity clears every factor except 1 - p1 - p2, which the
        # derived weights can still hit (all parameters equal, say)
        try:
            k = kappa.family_hoare_rahman(a, b, c, e)
        except kappa.FamilyParameterError as err:
            assert err.factor == "1-p1-p2"
            return
        assert matrix_identity_holds(k)
        assert kappa.involute(k, 0) == kappa.family_hoare_rahman(a, c, b, e)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_involution_preserves_validity(self, d, data):
        p = data.draw(weight_vectors(d))
        k = kappa.family_milch(p)
        b = kappa.involute(k, 0)
        assert kappa.diagnose(b.nu, b.p, b.pt, b.u) == []
