"""Evaluation routes, tables, orthogonality, duality."""

import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvkraw import hyperg, kappa, verify
from mvkraw.numeric import enumerate_degree_points, enumerate_lattice
from test_bispec import FAMILIES


def milch1():
    return kappa.family_milch([F(1, 3), F(2, 3)])


def milch2():
    return kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)])


def gauss_sum(om, N, m, mt):
    """Independent d=1 oracle: terminating 2F1(-m, -mt; -N; om)."""
    acc = F(0)
    for a in range(min(m, mt, N) + 1):
        num = den = 1
        for t in range(a):
            num *= (-m + t) * (-mt + t)
            den *= -N + t
        acc += F(num, den * math.factorial(a)) * om**a
    return acc


class TestHandValues:
    def test_zero_first_argument_is_one(self):
        k = milch2()
        for mt in enumerate_degree_points(2, 3):
            assert hyperg.eval_hypergeometric(k, 3, (0, 0), mt) == 1

    def test_zero_second_argument_is_one(self):
        k = kappa.family_ds(F(2), 2)
        for m in enumerate_degree_points(2, 3):
            assert hyperg.eval_hypergeometric(k, 3, m, (0, 0)) == 1

    def test_frozen_entries(self):
        k = milch2()
        assert hyperg.eval_hypergeometric(k, 2, (1, 0), (1, 0)) == -1
        assert hyperg.eval_hypergeometric(k, 2, (1, 1), (0, 2)) == -2
        assert hyperg.eval_hypergeometric(k, 3, (2, 0), (1, 1)) == F(-5, 3)
        kds = kappa.family_ds(F(2), 2)
        assert hyperg.eval_hypergeometric(kds, 2, (1, 1), (1, 1)) == F(1, 2)
        assert hyperg.eval_hypergeometric(kds, 2, (0, 2), (2, 0)) == 1

    def test_d1_reduces_to_gauss_sum(self):
        k = milch1()
        om = kappa.omega(k)[0][0]
        for N in (2, 3, 4):
            for m in range(N + 1):
                for mt in range(N + 1):
                    val = hyperg.eval_hypergeometric(k, N, (m,), (mt,))
                    assert val == gauss_sum(om, N, m, mt)

    def test_d1_linear_closed_form(self):
        # first nontrivial row: P(1, mt) = 1 - mt * omega / N
        k = kappa.family_ds(F(2), 1)
        om = kappa.omega(k)[0][0]
        for N in (1, 2, 5):
            for mt in range(N + 1):
                val = hyperg.eval_hypergeometric(k, N, (1,), (mt,))
                assert val == 1 - F(mt) * om / N

    def test_degree_vector_validation(self):
        k = milch2()
        with pytest.raises(ValueError, match="parts"):
            hyperg.eval_hypergeometric(k, 2, (1,), (0, 0))
        with pytest.raises(ValueError, match="nonnegative"):
            hyperg.eval_hypergeometric(k, 2, (-1, 0), (0, 0))
        with pytest.raises(ValueError, match="exceeds"):
            hyperg.eval_hypergeometric(k, 2, (2, 1), (0, 0))


class TestGeneratingAgreement:
    @pytest.mark.parametrize(
        "k,N",
        [
            (kappa.family_milch([F(1, 3), F(2, 3)]), 4),
            (kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)]), 3),
            (kappa.family_ds(F(2), 2), 2),
            (kappa.family_hoare_rahman(1, 2, 3, 4), 3),
            (kappa.griffiths_from_p([F(1, 4), F(1, 4), F(1, 2)]), 2),
            (kappa.family_ds(F(2), 3), 2),
        ],
        ids=["milch-d1", "milch-d2", "ds-d2", "hr", "griffiths-d2", "ds-d3"],
    )
    def test_routes_agree_on_full_grid(self, k, N):
        for m in enumerate_degree_points(k.d, N):
            for mt in enumerate_degree_points(k.d, N):
                a = hyperg.eval_hypergeometric(k, N, m, mt)
                b = hyperg.eval_generating(k, N, m, mt)
                assert a == b, (m, mt)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_routes_agree_random_points(self, data):
        k = kappa.family_ds(F(2), 2)
        N = data.draw(st.integers(1, 5))
        pts = list(enumerate_degree_points(2, N))
        m = data.draw(st.sampled_from(pts))
        mt = data.draw(st.sampled_from(pts))
        assert hyperg.eval_hypergeometric(
            k, N, m, mt
        ) == hyperg.eval_generating(k, N, m, mt)


class TestGeneratingColumn:
    @pytest.mark.parametrize("k,N", FAMILIES)
    def test_equals_table_columns_capped_or_not(self, k, N):
        tab = hyperg.table(k, N)
        for c, nt in enumerate(tab.points):
            column = hyperg.generating_column(k, N, nt[1:])
            assert set(column) <= set(tab.points)
            for n, row in zip(tab.points, tab.values):
                assert column.get(n, 0) == row[c], (n, nt)
                capped = hyperg.generating_column(k, N, nt[1:], n)
                assert all(map(lambda a, b: a <= b, key, n) for key in capped)
                assert capped.get(n, 0) == row[c], (n, nt)


class TestTable:
    def test_layout_matches_lattice(self):
        k = milch2()
        tab = hyperg.table(k, 2)
        assert tab.points == tuple(enumerate_lattice(2, 2))
        assert len(tab.values) == len(tab.points)
        assert all(len(row) == len(tab.points) for row in tab.values)

    @pytest.mark.parametrize("exact_first", [True, False], ids=["exact-first", "approx-first"])
    def test_exact_and_approx_twins_keep_their_types(self, exact_first):
        # the two sets compare and hash equal (their entries are dyadic),
        # so a view cached without the mode would serve one of them the
        # other's arithmetic
        exact = kappa.family_ds(F(2), 2)
        approx = kappa.from_json_dict(kappa.to_json_dict(exact), "approx", 1e-10)
        assert approx == exact and hash(approx) == hash(exact)
        hyperg._integer_view.cache_clear()
        order = [exact, approx] if exact_first else [approx, exact]
        tables = [hyperg.table(k, 3) for k in order]
        exact_tab, approx_tab = tables if exact_first else tables[::-1]
        for erow, arow in zip(exact_tab.values, approx_tab.values):
            for e, a in zip(erow, arow):
                assert isinstance(e, (F, int)) and not isinstance(e, bool)
                assert isinstance(a, float)
                assert abs(a - e) <= 1e-12 * max(1, abs(e))

    def test_exact_table_where_omega_is_integral(self):
        # omega has denominator 1 here (D = 1), which must not be taken
        # for the float path: exactness comes from the parameters
        k = kappa.family_milch([F(1, 2), F(1, 6), F(1, 6), F(1, 6)])
        assert all(F(w).denominator == 1 for row in kappa.omega(k) for w in row)
        tab = hyperg.table(k, 3)
        for n, row in zip(tab.points, tab.values):
            for nt, value in zip(tab.points, row):
                assert isinstance(value, F)
                assert value == hyperg.eval_generating(k, 3, n[1:], nt[1:])

    def test_json_round_trip(self):
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        tab = hyperg.table(k, 2)
        blob = json.dumps(hyperg.table_to_json_dict(tab))
        back = hyperg.table_from_json_dict(json.loads(blob))
        assert back.kappa == tab.kappa
        assert back.N == tab.N
        assert back.points == tab.points
        assert back.values == tab.values

    def test_json_rejects_malformed(self):
        k = milch1()
        obj = hyperg.table_to_json_dict(hyperg.table(k, 2))
        bad = dict(obj)
        del bad["values"]
        with pytest.raises(ValueError, match="malformed"):
            hyperg.table_from_json_dict(bad)
        bad = dict(obj)
        bad["order"] = "lex"
        with pytest.raises(ValueError, match="order"):
            hyperg.table_from_json_dict(bad)
        bad = dict(obj)
        bad["values"] = obj["values"][:-1]
        with pytest.raises(ValueError, match="dimensions"):
            hyperg.table_from_json_dict(bad)
        for N in (2.5, -1, True, "2"):
            bad = dict(obj, N=N)
            with pytest.raises(ValueError, match="table N must be a non-negative integer"):
                hyperg.table_from_json_dict(bad)


class TestOrthogonality:
    @pytest.mark.parametrize(
        "k,N",
        [
            (kappa.family_milch([F(1, 3), F(2, 3)]), 4),
            (kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)]), 3),
            (kappa.family_ds(F(2), 2), 2),
            (kappa.family_hoare_rahman(1, 2, 3, 4), 2),
        ],
        ids=["milch-d1", "milch-d2", "ds-d2", "hr"],
    )
    def test_passes(self, k, N):
        rep = hyperg.check_orthogonality(k, N, tab=hyperg.table(k, N))
        assert rep.passed
        assert rep.failures == []
        assert rep.details["pairs"] == 2 * len(list(enumerate_lattice(k.d, N))) ** 2

    def test_detects_corruption(self):
        k = milch2()
        tab = hyperg.table(k, 2)
        values = [list(row) for row in tab.values]
        values[1][2] += 1
        broken = hyperg.PolynomialTable(
            k, 2, tab.points, tuple(tuple(r) for r in values)
        )
        rep = hyperg.check_orthogonality(k, 2, tab=broken)
        assert not rep.passed
        # every reported pair involves the corrupted row or column point
        touched = {tuple(tab.points[1]), tuple(tab.points[2])}
        for f in rep.failures:
            assert touched & {tuple(f["pair"][0]), tuple(f["pair"][1])}
        # the integer Gram sums agree with plain Fraction sums, record
        # for record and in the same order
        failures, max_resid = fraction_orthogonality(k, 2, broken)
        assert rep.failures == failures
        assert rep.details["max_residual"] == str(max_resid)

    def test_approx_table_takes_float_path(self):
        k = kappa.from_json_dict(kappa.to_json_dict(milch2()), "approx", 1e-10)
        tab = hyperg.table(k, 2)
        rep = hyperg.check_orthogonality(k, 2, 1e-10, tab=tab)
        assert rep.passed
        values = [list(row) for row in tab.values]
        values[1][2] += 1.0
        broken = hyperg.PolynomialTable(
            k, 2, tab.points, tuple(tuple(r) for r in values)
        )
        rep = hyperg.check_orthogonality(k, 2, 1e-10, tab=broken)
        assert not rep.passed
        for f in rep.failures:
            assert "/" not in f["residual"]
            float(f["residual"])

    def test_approx_relative_bounds_detect_perturbed_pt(self):
        # the approx comparisons are relative to the values compared; one
        # pt entry off by 8e-11 of itself (built past validation, as in the
        # norms control) must still fail orthogonality, where the degree-6
        # diagonal carries the defect twice over, and the universal identity
        k = kappa.from_json_dict(
            kappa.to_json_dict(kappa.family_hoare_rahman(1, 2, 3, 4)),
            "approx",
            1e-10,
        )
        suites = ["orthogonality", "recurrence", "universal", "threeway"]
        assert all(r.passed for r in verify.run_suites(suites, k, 6, 1e-10))
        pt = list(k.pt)
        pt[1] *= 1 + 8e-11
        bad = kappa.ParameterSet(k.d, k.nu, k.p, tuple(pt), k.u)
        reports = {r.check: r for r in verify.run_suites(suites, bad, 6, 1e-10)}
        assert not reports["orthogonality"].passed
        assert not reports["universal"].passed


def fraction_orthogonality(k, N, tab):
    """Both orthogonality sides summed term by term in Fractions; returns
    the failure records and the largest residual."""
    points = tab.points
    nfact = math.factorial(N)
    failures, max_resid = [], F(0)

    def weight(w, lam):
        return math.prod(F(x) ** e for x, e in zip(w, lam)) / math.prod(
            math.factorial(e) for e in lam
        )

    for a, pa in enumerate(points):
        for b, pb in enumerate(points):
            sides = (
                ("columns", [row[a] for row in tab.values],
                 [row[b] for row in tab.values], k.pt, k.p),
                ("rows", tab.values[a], tab.values[b], k.p, k.pt),
            )
            for side, col_a, col_b, w, diag in sides:
                lhs = nfact * sum(
                    x * y * weight(w, lam)
                    for x, y, lam in zip(col_a, col_b, points)
                )
                rhs = F(0)
                if a == b:
                    rhs = 1 / (nfact * F(k.nu) ** N * weight(diag, pa))
                resid = lhs - rhs
                max_resid = max(max_resid, abs(resid))
                if resid != 0:
                    failures.append(
                        {"side": side, "pair": [list(pa), list(pb)],
                         "residual": str(resid)}
                    )
    return failures, max_resid


class TestDuality:
    @pytest.mark.parametrize(
        "k,N",
        [
            (kappa.family_hoare_rahman(1, 2, 3, 4), 2),
            (kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)]), 3),
            (kappa.family_ds(F(2), 2), 2),
        ],
        ids=["hr", "milch-d2", "ds-d2"],
    )
    def test_involute_transposes_table(self, k, N):
        rep = hyperg.check_duality(k, N, tab=hyperg.table(k, N))
        assert rep.passed
        assert rep.failures == []

    def test_full_check_sums_each_kernel_once_and_expands_per_column(
        self, monkeypatch
    ):
        # one table of kernel sums for the whole run; duality and
        # threeway each expand the generating function once per column
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        N = 2
        L = len(list(enumerate_lattice(k.d, N)))
        calls = {"sums": 0, "expansions": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(
            hyperg, "eval_hypergeometric", counting("sums", hyperg.eval_hypergeometric)
        )
        monkeypatch.setattr(
            hyperg, "expand_forms", counting("expansions", hyperg.expand_forms)
        )
        reports = verify.run_suites(verify.SUITES, k, N)
        assert all(r.passed for r in reports)
        assert calls == {"sums": L**2, "expansions": 2 * L}

    @pytest.mark.parametrize("approx", [False, True], ids=["exact", "approx"])
    def test_detects_corruption_at_the_pair(self, approx):
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        tol = 0
        if approx:
            k = kappa.from_json_dict(kappa.to_json_dict(k), "approx", 1e-10)
            tol = 1e-10
        tab = hyperg.table(k, 3)
        values = [list(row) for row in tab.values]
        values[4][7] += 1
        broken = hyperg.PolynomialTable(
            k, 3, tab.points, tuple(tuple(r) for r in values)
        )
        rep = hyperg.check_duality(k, 3, tol, tab=broken)
        assert [f["pair"] for f in rep.failures] == [
            [list(tab.points[4]), list(tab.points[7])]
        ]
        # the dual side is the generating route, not the broken entry
        assert float(F(rep.failures[0]["dual_value"])) == pytest.approx(
            float(tab.values[4][7])
        )

    def test_pointwise_swap(self):
        k = kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)])
        b = kappa.involute(k, 0)
        for m in enumerate_degree_points(2, 2):
            for mt in enumerate_degree_points(2, 2):
                assert hyperg.eval_hypergeometric(
                    k, 2, m, mt
                ) == hyperg.eval_hypergeometric(b, 2, mt, m)
