"""Parameter space: validation, families, involution, serialization."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mvkraw import kappa
from mvkraw import linalg


def matrix_identity_holds(k):
    """nu P U Pt U^t == I, multiplied out by hand."""
    n = k.d + 1
    prod = linalg.mat_mul(
        linalg.mat_mul(linalg.diagonal([k.nu * x for x in k.p]), k.u),
        linalg.mat_mul(linalg.diagonal(k.pt), linalg.transpose(k.u)),
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
        assert kappa.omega(k) == ((0, 2), (2, 1))

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
