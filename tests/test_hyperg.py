"""Evaluation routes, tables, orthogonality, duality."""

import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from mvkraw import bispec, hyperg, kappa, liemod, linalg, numeric, verify
from mvkraw.numeric import enumerate_degree_points, enumerate_lattice
from test_bispec import CORRUPTIONS, FAMILIES, HR, approx_twin, corrupted
import kernel_oracle


def milch1():
    return kappa.family_milch([F(1, 3), F(2, 3)])


def milch2():
    return kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)])


def milch3():
    return kappa.family_milch([F(1, 2), F(1, 4), F(1, 8), F(1, 8)])


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
        om = 1 - k.u[1][1]
        for N in (2, 3, 4):
            for m in range(N + 1):
                for mt in range(N + 1):
                    val = hyperg.eval_hypergeometric(k, N, (m,), (mt,))
                    assert val == gauss_sum(om, N, m, mt)

    def test_d1_linear_closed_form(self):
        # first nontrivial row: P(1, mt) = 1 - mt * omega / N
        k = kappa.family_ds(F(2), 1)
        om = 1 - k.u[1][1]
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


    @pytest.mark.parametrize(
        "v,want",
        [
            ((1, 2), (1, 2)),
            ([1, 1], (1, 1)),
            ((True, 0), (True, 0)),
            ((1.0, 1), (1.0, 1)),
            ((1.5, 0), "m parts must be nonnegative integers: (1.5, 0)"),
            ((-1, 2), "m parts must be nonnegative integers: (-1, 2)"),
            ((2, -1), "m parts must be nonnegative integers: (2, -1)"),
            ((2, 2), "|m| = 4 exceeds N = 3"),
            ((3,), "m must have 2 parts, got 1"),
        ],
    )
    def test_degree_vector_results(self, v, want):
        # the int-tuple fast path and the part-by-part checks give the
        # same results: accepted vectors come back as they are, a bool or
        # an integral float included, and refusals keep their messages
        if isinstance(want, str):
            with pytest.raises(ValueError) as err:
                hyperg.check_degree_vector(2, 3, v, "m")
            assert str(err.value) == want
        else:
            got = hyperg.check_degree_vector(2, 3, v, "m")
            assert got == want
            assert list(map(type, got)) == list(map(type, want))


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
        # so a view found by equality would serve one of them the other's
        # arithmetic
        exact = kappa.family_ds(F(2), 2)
        approx = kappa.from_json_dict(kappa.to_json_dict(exact), "approx", 1e-10)
        assert approx == exact and hash(approx) == hash(exact)
        order = [exact, approx] if exact_first else [approx, exact]
        tables = [hyperg.table(k, 3) for k in order]
        exact_tab, approx_tab = tables if exact_first else tables[::-1]
        for erow, arow in zip(exact_tab.values, approx_tab.values):
            for e, a in zip(erow, arow):
                assert isinstance(e, (F, int)) and not isinstance(e, bool)
                assert isinstance(a, float)
                assert abs(a - e) <= 1e-12 * max(1, abs(e))

    def test_one_set_at_two_N_in_turn(self):
        # one instance keeps a view per N: tables at two N built in turn
        # equal the tables of a fresh, equal set that has no views yet
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        for N in (2, 4, 2, 4, 0):
            fresh = kappa.from_json_dict(kappa.to_json_dict(k))
            assert fresh == k and fresh is not k
            assert hyperg.table(k, N).values == hyperg.table(fresh, N).values

    def test_entries_never_hash_or_compare_the_set(self, monkeypatch):
        # the view is found on the instance: two tables of 441 entries
        # from two equal but distinct sets hash and compare no set at all
        first, second = kappa.family_ds(F(3), 1), kappa.family_ds(F(3), 1)
        assert first == second and first is not second
        calls = []
        for name in ("__hash__", "__eq__"):
            original = getattr(kappa.ParameterSet, name)

            def counted(self, *args, _original=original, _name=name):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(kappa.ParameterSet, name, counted)
        tables = [hyperg.table(k, 20) for k in (first, second)]
        assert len(tables[0].values) == 21 and tables[0].values == tables[1].values
        assert len(calls) <= 2, calls[:4]

    def test_set_view_belongs_to_the_instance(self):
        # the per-N view of the kernel sums is kept with one set instance,
        # not in a module: a table and an `eval` at that N share it, and a
        # new instance of the same set starts with no view
        k = milch3()
        N = 3
        views = k.integer_view[5]
        assert views == {}
        hyperg.table(k, N)
        view = views[N]
        first = hyperg.eval_hypergeometric(k, N, (1, 1, 1), (0, 2, 1))
        assert hyperg.eval_hypergeometric(k, N, (1, 1, 1), (0, 2, 1)) == first
        assert views == {N: view} and hyperg._integer_view(k, N) is view
        fresh = milch3()
        assert fresh == k and fresh is not k
        assert fresh.integer_view[5] == {}

    def test_exact_table_where_omega_is_integral(self):
        # omega has denominator 1 here (D = 1), which must not be taken
        # for the float path: exactness comes from the parameters
        k = kappa.family_milch([F(1, 2), F(1, 6), F(1, 6), F(1, 6)])
        assert all(F(1 - x).denominator == 1 for row in k.u[1:] for x in row[1:])
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


def per_entry_values(tab):
    """The table's grid again, one `eval_hypergeometric` per entry."""
    k, N = tab.kappa, tab.N
    return tuple(
        tuple(hyperg.eval_hypergeometric(k, N, n[1:], nt[1:]) for nt in tab.points)
        for n in tab.points
    )


weight = st.fractions(min_value=F(1, 30), max_value=1, max_denominator=30)


@st.composite
def exact_sets(draw, families=("griffiths", "hoare-rahman", "milch", "ds"), min_d=2, max_d=4, max_N=4):
    """(set, N) of one of `families`: Griffiths on random weights
    (min_d <= d <= max_d), Hoare-Rahman on a random quadruple, Milch on
    random weights (as Griffiths), or DS at q = 2 with d = 2, 3;
    N <= max_N, and N <= 3 at d = 4 to keep the reference sums cheap."""
    family = draw(st.sampled_from(families))
    if family == "hoare-rahman":
        try:
            k = kappa.family_hoare_rahman(*(draw(weight) for _ in range(4)))
        except kappa.FamilyParameterError:
            reject()
    elif family == "ds":
        k = kappa.family_ds(F(2), draw(st.integers(2, 3)))
    else:
        parts = [draw(weight) for _ in range(draw(st.integers(min_d, max_d)) + 1)]
        p = [x / sum(parts) for x in parts]
        k = kappa.griffiths_from_p(p) if family == "griffiths" else kappa.family_milch(p)
    return k, draw(st.integers(0, 3 if k.d == 4 else max_N))


@st.composite
def d1_sets(draw):
    """(set, N): Griffiths on two random weights, or DS with q = 2, 3, 5
    at d = 1; N <= 25."""
    if draw(st.booleans()):
        a, b = draw(weight), draw(weight)
        k = kappa.griffiths_from_p([a / (a + b), b / (a + b)])
    else:
        k = kappa.family_ds(F(draw(st.sampled_from([2, 3, 5]))), 1)
    return k, draw(st.integers(0, 25))


class TestKrawtchoukSums:
    """The exact d = 1 kernel sums, one integer term per total, against
    the generating function."""

    @settings(max_examples=30, deadline=None)
    @given(d1_sets())
    def test_equals_generating_columns(self, case):
        k, N = case
        assert k.d == 1
        for mt in range(N + 1):
            column = hyperg.generating_column(k, N, (mt,))
            for m in range(N + 1):
                value = hyperg.eval_hypergeometric(k, N, (m,), (mt,))
                assert type(value) is F
                assert value == column.get((N - m, m), 0), (m, mt)


class TestMarginTable:
    """The exact d >= 2 table as one contraction over kernel margins,
    against the per-entry kernel sums."""

    @settings(max_examples=60, deadline=None)
    @given(exact_sets())
    def test_equals_per_entry_sums(self, case):
        k, N = case
        tab = hyperg.table(k, N)
        assert tab.values == per_entry_values(tab)
        assert all(type(x) is F for row in tab.values for x in row)

    @pytest.mark.parametrize(
        "k,N",
        [(kappa.family_hoare_rahman(1, 2, 3, 4), 8), (milch3(), 6)],
        ids=["hr-N8", "milch-N6"],
    )
    def test_equals_per_entry_sums_at_larger_N(self, k, N):
        tab = hyperg.table(k, N)
        assert tab.values == per_entry_values(tab)

    def test_one_wrong_margin_sum_fails_the_cross_route_checks(self, monkeypatch):
        # S[r][c] one too large moves exactly the entries (m, mt) with
        # c <= m and r <= mt: threeway and duality must name each of
        # them, and orthogonality must fail at pairs of moved lines
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        N = 3
        points = list(enumerate_lattice(k.d, N))
        original = hyperg._margin_transfer
        moved = []

        def off_by_one(W, N, fact, by_total, row_caps, col_caps):
            sums = original(W, N, fact, by_total, row_caps, col_caps)
            if row_caps == col_caps == (N,) * k.d:  # the table's transfer
                r = next(r for r, c in sums if c == points[1][1:])
                sums[r, points[1][1:]] += 1
                moved.append(r)
            return sums

        monkeypatch.setattr(hyperg, "_margin_transfer", off_by_one)
        threeway, orthogonality, duality = verify.run_suites(
            ["threeway", "orthogonality", "duality"], k, N
        )
        r, c = moved[0], points[1][1:]
        below = lambda a, b: all(x <= y for x, y in zip(a, b))
        lines = {
            "rows": [list(n) for n in points if below(c, n[1:])],
            "columns": [list(nt) for nt in points if below(r, nt[1:])],
        }
        want = [[n, nt] for n in lines["rows"] for nt in lines["columns"]]
        assert want and len(want) < len(points) ** 2
        assert [f["pair"] for f in threeway.failures] == want
        assert [f["pair"] for f in duality.failures] == want
        assert not orthogonality.passed
        for f in orthogonality.failures:
            assert any(x in lines[f["side"]] for x in f["pair"]), f


def omega_form(k):
    """omega = 1 - u[i][j], i, j >= 1, as (W, D) with W on integer rows
    and D the lcm of its denominators, scaled apart from the set's
    integer view: the reference of the kernel sums' W/D."""
    return linalg.integer_rows([[1 - x for x in row[1:]] for row in k.u[1:]])


class TestIntegerView:
    """The set's one integer view against Fraction references: omega as
    the kernel sums read it, an approx twin's at the exact values of its
    floats, and the weight ratios of the antiautomorphism, for exact sets
    and their approx twins."""

    @settings(max_examples=40, deadline=None)
    @given(exact_sets(min_d=1, max_d=3), st.data())
    def test_omega_and_antiauto_match_fraction_references(self, case, data):
        k, N = case
        twin = kappa.from_json_dict(kappa.to_json_dict(k), "approx", 1e-10)
        n = k.d + 1
        for s, exact in ((k, True), (twin, False)):
            # W on ints over one D > 0, at the exact values of the floats
            # of the approx twin: every nonzero omega gives the same D
            view = hyperg._integer_view(s, N)
            assert view.exact is exact
            scales = set()
            for i in range(1, n):
                for j in range(1, n):
                    w, omega = view.W[i - 1][j - 1], 1 - F(s.u[i][j])
                    assert type(w) is int and (omega != 0 or w == 0), (i, j)
                    if omega:
                        scales.add(w / omega)
            if scales:
                (D,) = scales
                assert D.denominator == 1 and D > 0
                assert view.scale == math.factorial(N) ** 2 * D.numerator**N
                assert not exact or D == s.integer_view[4][1]
        # a(b) = Pt b^t Pt^-1 by plain matrix products, on a random integer b
        b = tuple(tuple(data.draw(st.integers(-5, 5)) for _ in range(n)) for _ in range(n))
        scale = [linalg.diagonal(k.pt), linalg.diagonal([1 / F(x) for x in k.pt])]
        want = linalg.mat_mul(linalg.mat_mul(scale[0], linalg.transpose(b)), scale[1])
        assert liemod.antiauto(k, b) == want
        got = [x for row in liemod.antiauto(twin, b) for x in row]
        assert got == pytest.approx([float(x) for row in want for x in row], rel=1e-12)


class TestMarginTransfer:
    """The margin sums S built entry by entry of the kernels, against the
    brute-force kernel list of `kernel_oracle`, the d = 1 terms read off
    them, and every kernel sum against the oracle's series."""

    @settings(max_examples=40, deadline=None)
    @given(exact_sets(("griffiths", "hoare-rahman", "milch"), min_d=1, max_d=3, max_N=6), st.data())
    def test_equals_the_enumerated_sums(self, case, data):
        # under a table's caps N, and under random caps; N <= 4 at d = 3
        # keeps the brute-force list small
        k, N = case
        N = min(N, 4) if k.d == 3 else N
        W, D = omega_form(k)
        by_total = [(-1) ** t * D ** (N - t) * math.factorial(N - t) for t in range(N + 1)]
        fact = tuple(math.factorial(x) for x in range(N + 1))
        random_caps = st.lists(st.integers(0, N), min_size=k.d, max_size=k.d)
        for caps in ((N,) * k.d, (N,) * k.d), (data.draw(random_caps), data.draw(random_caps)):
            got = hyperg._margin_transfer(hyperg._integer_view(k, N).W, N, fact, by_total, *caps)
            want = kernel_oracle.margin_sums(W, N, by_total, *caps)
            assert {key: s for key, s in got.items() if s} == want, caps

    @settings(max_examples=30, deadline=None)
    @given(exact_sets(min_d=1, max_d=3, max_N=6), st.data())
    def test_values_equal_the_oracle_in_both_modes(self, case, data):
        # exact: the oracle's Fraction and the generating route; approx:
        # float() of the oracle's sum on the exact values of the twin's
        # floats, bit for bit
        k, N = case
        points = list(enumerate_degree_points(k.d, N))
        m, mt = data.draw(st.sampled_from(points)), data.draw(st.sampled_from(points))
        value = hyperg.eval_hypergeometric(k, N, m, mt)
        assert value == kernel_oracle.kernel_sum(k.u, N, m, mt) == hyperg.eval_generating(k, N, m, mt)
        twin = kappa.from_json_dict(kappa.to_json_dict(k), "approx", 1e-10)
        got = hyperg.eval_hypergeometric(twin, N, m, mt)
        assert type(got) is float and got == float(kernel_oracle.kernel_sum(twin.u, N, m, mt))

    @settings(max_examples=30, deadline=None)
    @given(d1_sets())
    def test_d1_terms_equal_the_ratio_recurrence(self, case):
        # c[0] = N!^2 D^N and c[t+1] = -c[t] W / (D (N-t) (t+1))
        k, N = case
        ((w,),), D = omega_form(k)
        want = [math.factorial(N) ** 2 * D**N]
        for t in range(N):
            want.append(-want[-1] * w // (D * (N - t) * (t + 1)))
        assert list(hyperg._integer_view(k, N).by_total) == want

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_d1_table_sums_the_totals_per_entry(self, monkeypatch, mode):
        # each of the 441 entries of a d = 1 table at N = 20, in either
        # mode, enumerates the totals 0..min(m, mt) once, capped by its
        # own m and mt
        k, N = kappa.family_ds(F(3), 1), 20
        if mode == "approx":
            k = kappa.from_json_dict(kappa.to_json_dict(k), "approx", 1e-10)
        served = []
        original = hyperg.enumerate_kernels

        def recording(degree, row_cap, col_cap):
            totals = list(original(degree, row_cap, col_cap))
            served.append(((degree, row_cap, col_cap), totals))
            yield from totals

        monkeypatch.setattr(hyperg, "enumerate_kernels", recording)
        hyperg.table(k, N)
        points = list(enumerate_lattice(1, N))
        want = [((N, nt[1], n[1]), list(range(min(n[1], nt[1]) + 1))) for n in points for nt in points]
        assert served == want


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

    @pytest.mark.parametrize(
        "k,N,entry,delta",
        [pytest.param(milch2(), 2, (1, 2), 1, id="milch-d2")]
        + [pytest.param(*p.values, F(1, 7), id=p.id) for p in CORRUPTIONS],
    )
    def test_detects_corruption(self, k, N, entry, delta):
        broken = corrupted(k, N, entry, delta)
        rep = hyperg.check_orthogonality(k, N, tab=broken)
        assert not rep.passed
        # every reported pair involves the corrupted row or column point
        touched = {tuple(broken.points[entry[0]]), tuple(broken.points[entry[1]])}
        for f in rep.failures:
            assert touched & {tuple(f["pair"][0]), tuple(f["pair"][1])}
        # the integer Gram sums agree with plain Fraction sums, record
        # for record and in the same order
        failures, max_resid = fraction_orthogonality(k, N, broken)
        assert rep.failures == failures
        assert rep.details["max_residual"] == str(max_resid)

    def test_rows_side_is_summed_only_after_a_columns_miss(self, monkeypatch):
        # in exact mode a passing columns side, T^t Wt T = Dc, proves the
        # rows side, T Dc^-1 T^t = Wt^-1, so a passing table makes one
        # Gram sum; a corrupted table makes both and gets the records of
        # both sides, and an approx run, whose float sums always come out,
        # makes both
        calls = []
        real = numeric.gram_misses
        monkeypatch.setattr(hyperg, "gram_misses", lambda *a: calls.append(1) or real(*a))
        N = 3
        tab, broken = hyperg.table(HR, N), corrupted(HR, N, (2, 5))
        runs = [(tab, 0, 1), (broken, 0, 2), (approx_twin(tab), 1e-10, 2)]
        runs.append((approx_twin(broken), 1e-10, 2))
        reports = []
        for t, tol, want in runs:
            calls.clear()
            reports.append(hyperg.check_orthogonality(t.kappa, N, tol, tab=t))
            assert len(calls) == want
        assert [r.passed for r in reports] == [True, False, True, False]
        for rep in reports[1::2]:
            assert {f["side"] for f in rep.failures} == {"columns", "rows"}
        assert reports[1].failures == fraction_orthogonality(HR, N, broken)[0]

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 5),
        st.integers(0, 5),
        st.fractions(min_value=-3, max_value=3, max_denominator=40).filter(bool),
    )
    def test_gram_misses_equal_a_fraction_gram(self, row, column, delta):
        # one entry moved: on both sides, the integer Gram sums give the
        # (a, b, got, want) records of a plain Fraction Gram, for every
        # pair whose sum is not its want, in the same order
        k, N = HR, 2
        tab = corrupted(k, N, (row, column), delta)
        points = tab.points
        nfact, nu_pow = math.factorial(N), F(k.nu) ** N
        rows, columns = tab.integer_view
        for lines, scaled, w, other in (
            (list(zip(*tab.values)), columns, k.pt, k.p),
            (tab.values, rows, k.p, k.pt),
        ):
            weights = [nfact * numeric.weight_over_factorial(w, n) for n in points]
            diag = [1 / (nfact * nu_pow * numeric.weight_over_factorial(other, n)) for n in points]
            want = []
            for a, line_a in enumerate(lines):
                for b, line_b in enumerate(lines):
                    g = sum(F(x) * y * v for x, y, v in zip(line_a, line_b, weights))
                    target = diag[a] if a == b else 0
                    if g != target:
                        want.append((a, b, g, target))
            ints, line_scales = zip(*scaled)
            int_weights = numeric.multinomial_weights(numeric.clear_denominators(w), N, points)
            got = numeric.gram_misses(ints, line_scales, int_weights, diag, [1] * len(points), 0)
            assert want and [m[:4] for m in got] == want

    @pytest.mark.parametrize("k,N,entry", CORRUPTIONS[::3])
    def test_approx_twin_fails_at_the_same_pairs(self, k, N, entry):
        # the float Gram sums name the same pairs, in the same order, with
        # residuals within round-off of the Fraction ones
        broken = corrupted(k, N, entry)
        failures, max_resid = fraction_orthogonality(k, N, broken)
        twin = approx_twin(broken)
        rep = hyperg.check_orthogonality(twin.kappa, N, 1e-10, tab=twin)
        assert len(rep.failures) == len(failures) > 0
        for got, want in zip(rep.failures, failures):
            assert (got["side"], got["pair"]) == (want["side"], want["pair"])
            resid = F(want["residual"])
            assert abs(float(got["residual"]) - resid) <= 1e-9 * max(1, abs(resid))
        got = float(rep.details["max_residual"])
        assert abs(got - max_resid) <= 1e-9 * max(1, max_resid)

    def test_approx_table_takes_float_path(self):
        k = kappa.from_json_dict(kappa.to_json_dict(milch2()), "approx", 1e-10)
        tab = hyperg.table(k, 2)
        rep = hyperg.check_orthogonality(k, 2, 1e-10, tab=tab)
        assert rep.passed
        values = [list(row) for row in tab.values]
        values[1][2] += 1.0
        broken = hyperg.PolynomialTable(
            k, 2, tab.points, tuple((tuple(r), 1) for r in values)
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


# 3-digit numerators over 3-digit primes, as the benchmark draws its sets
prime_ratio = st.builds(
    F, st.integers(100, 999), st.sampled_from([503, 601, 701, 809, 907, 997])
)


@st.composite
def table_cases(draw):
    """A table of each form: the margin form of an exact d >= 2 set
    (Hoare-Rahman, Milch, Griffiths, or Hoare-Rahman on 3-digit primes),
    that table written and parsed back, an exact d = 1 table, or an
    approx table."""
    form = draw(st.sampled_from(["margin", "prime-hr", "parsed", "d1", "approx"]))
    if form == "d1":
        k, N = draw(d1_sets())
        return hyperg.table(k, min(N, 12))
    if form == "prime-hr":
        try:
            k = kappa.family_hoare_rahman(*(draw(prime_ratio) for _ in range(4)))
        except kappa.FamilyParameterError:
            reject()
        N = draw(st.integers(0, 3))
    else:
        k, N = draw(exact_sets(families=("hoare-rahman", "milch", "griffiths"), max_d=3))
    if form == "approx":
        k = kappa.from_json_dict(kappa.to_json_dict(k), "approx", 1e-10)
    tab = hyperg.table(k, N)
    if form == "parsed":
        tab = hyperg.table_from_json_dict(json.loads(json.dumps(hyperg.table_to_json_dict(tab))))
    return tab


class TestTableLines:
    """A table's integer lines against the Fraction values they stand for."""

    @settings(max_examples=60, deadline=None)
    @given(table_cases())
    def test_integer_view_equals_cleared_values(self, tab):
        # int for int and scale for scale what `clear_denominators` gives
        # on the values, rows and columns
        rows, columns = tab.integer_view
        assert rows == tuple(map(numeric.clear_denominators, tab.values))
        assert columns == tuple(map(numeric.clear_denominators, zip(*tab.values)))
        exact = tab.kappa.integer_view[0]
        for ints, S in rows + columns:
            assert type(S) is int
            assert all(type(x) is (int if exact else float) for x in ints)

    @settings(max_examples=30, deadline=None)
    @given(table_cases())
    def test_text_from_the_lines_equals_the_values_text(self, tab):
        # the wire form, written from the lines, is what `format_scalar`
        # writes for each value
        text = hyperg.table_to_json_dict(tab)["values"]
        assert text == [[numeric.format_scalar(x) for x in row] for row in tab.values]

    def test_margin_and_parsed_tables_hold_ints(self):
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        tab = hyperg.table(k, 3)
        scale = math.factorial(3) ** 2 * k.integer_view[4][1] ** 3
        assert {S for _, S in tab.lines} == {scale}
        assert all(type(x) is int for line, _ in tab.lines for x in line)
        back = hyperg.table_from_json_dict(hyperg.table_to_json_dict(tab))
        assert all(type(x) is int for line, _ in back.lines for x in line)
        assert back.values == tab.values
        assert back.integer_view == tab.integer_view
        assert all(type(x) is F for row in back.values for x in row)


def test_table_checks_scale_each_line_once(monkeypatch):
    # orthogonality, recurrence and universal read one integer view of
    # the table, so each of its L rows and L columns is scaled once a run
    k = kappa.family_hoare_rahman(1, 2, 3, 4)
    tab = hyperg.table(k, 4)
    lines = [tuple(row) for row in tab.values] + [tuple(c) for c in zip(*tab.values)]
    scaled = []
    original = hyperg._lowest

    def counting(line):
        out = original(line)
        scaled.append(tuple(F(x, out[1]) for x in out[0]))
        return out

    monkeypatch.setattr(hyperg, "_lowest", counting)
    reports = verify.run_suites(["orthogonality", "recurrence", "universal"], k, 4, table=tab)
    assert all(r.passed for r in reports)
    assert sorted(scaled) == sorted(lines)  # the 2L lines, once each


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


def count_work(monkeypatch) -> dict:
    """Count, from here on, the per-entry kernel sums, the kernel
    enumerations with the kernels they yield, the expansions that
    `hyperg` makes, and the generating matrices of the runs."""
    calls = {"sums": 0, "enumerations": 0, "kernels": 0, "expansions": 0, "generating": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def enumerations(*args, **kwargs):
        calls["enumerations"] += 1
        for ker in numeric.enumerate_kernels(*args, **kwargs):
            calls["kernels"] += 1
            yield ker

    monkeypatch.setattr(
        hyperg, "eval_hypergeometric", counting("sums", hyperg.eval_hypergeometric)
    )
    monkeypatch.setattr(hyperg, "expand_forms", counting("expansions", hyperg.expand_forms))
    monkeypatch.setattr(
        liemod, "generating_matrix", counting("generating", liemod.generating_matrix)
    )
    monkeypatch.setattr(hyperg, "enumerate_kernels", enumerations)
    return calls


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
        (rep,) = verify.run_suites(["duality"], k, N, 0, hyperg.table(k, N))
        assert rep.passed
        assert rep.failures == []

    def test_full_check_sums_each_kernel_once_and_expands_per_column(
        self, monkeypatch
    ):
        # the exact d = 2 table of the run sums every kernel of total
        # <= N once, by the margin transfer, with no kernel enumeration
        # and no per-entry sum; duality and threeway expand no column:
        # each reads one generating matrix, the involute's and the set's,
        # each built once per run
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        N = 2
        calls = count_work(monkeypatch)
        reports = verify.run_suites(verify.SUITES, k, N)
        assert all(r.passed for r in reports)
        assert calls == {
            "sums": 0, "enumerations": 0, "kernels": 0, "expansions": 0, "generating": 2
        }

    def test_approx_check_sums_each_kernel_once_and_expands_per_column(
        self, monkeypatch
    ):
        # the table's form is chosen by d alone: the approx d = 2 table
        # takes the margin transfer as the exact one does
        k = kappa.from_json_dict(
            kappa.to_json_dict(kappa.family_hoare_rahman(1, 2, 3, 4)), "approx", 1e-10
        )
        N = 2
        calls = count_work(monkeypatch)
        reports = verify.run_suites(verify.SUITES, k, N, 1e-10)
        assert all(r.passed for r in reports)
        assert calls == {
            "sums": 0, "enumerations": 0, "kernels": 0, "expansions": 0, "generating": 2
        }

    @pytest.mark.parametrize(
        "k,N,tol",
        [
            (kappa.from_json_dict(kappa.to_json_dict(kappa.family_ds(F(3), 1)), "approx", 1e-10),
             4, 1e-10),
            (kappa.family_ds(F(3), 1), 4, 0),
        ],
        ids=["approx-d1", "exact-d1"],
    )
    def test_approx_and_d1_tables_sum_per_entry(self, monkeypatch, k, N, tol):
        L = len(list(enumerate_lattice(k.d, N)))
        calls = count_work(monkeypatch)
        reports = verify.run_suites(verify.SUITES, k, N, tol)
        assert all(r.passed for r in reports)
        assert calls["sums"] == calls["enumerations"] == L**2
        assert calls["expansions"] == 0
        assert calls["generating"] == 2

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
            k, 3, tab.points, tuple((tuple(r), 1) for r in values)
        )
        (rep,) = verify.run_suites(["duality"], k, 3, tol, broken)
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
