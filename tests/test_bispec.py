"""Difference operators: matrices, lattice forms, stencils, eigen checks."""

import math
from fractions import Fraction as F

import pytest

from mvkraw import bispec, hyperg, kappa, liemod, linalg, verify
from mvkraw.bispec import AffineCoeff
from mvkraw.numeric import enumerate_degree_points, format_scalar


def classical():
    return kappa.griffiths_from_p([F(1, 2), F(1, 2)])


def milch1():
    return kappa.family_milch([F(1, 3), F(2, 3)])


def milch2():
    return kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)])


def generators(k, N):
    """Both generator families of k at N, built as a check run builds them."""
    return bispec.generators(k, N, liemod.closed_forms(k), liemod.move_table(k.d, N))


def eigen(k, N, tol=0, *, tab):
    return bispec.check_eigen(k, N, tol, tab=tab, gens=generators(k, N))


def universal(k, N, tol=0, *, tab):
    forms, moves = liemod.closed_forms(k), liemod.move_table(k.d, N)
    return bispec.check_universal(k, N, tol, tab=tab, forms=forms, moves=moves)


def commute(k, N):
    return bispec.check_commute(k, N, gens=generators(k, N))


def affine_at(coeff, y):
    """An affine stencil coefficient evaluated at the reduced point y."""
    return coeff.constant + sum(c * a for c, a in zip(coeff.linear, y))


def plain_apply(op, func):
    """(op F)(y) from the affine coefficients of the operator's stencil
    dump, evaluated in Fractions, with no lattice form and no scaling:
    the reference for `apply`."""
    out = {}
    for y in enumerate_degree_points(op.d, op.N):
        total = F(0)
        for s, coeff in op.stencil.items():
            c = affine_at(coeff, y)
            if c != 0:
                total += c * func(tuple(a + b for a, b in zip(y, s)))
        out[y] = total
    return out


def plain_eigen_records(tab):
    """((records, max residual) of check_eigen, the same of
    check_universal) over a table, recomputed with `plain_eigen` on the
    operators of the table's own set."""
    k, N, d = tab.kappa, tab.N, tab.kappa.d
    rows = [bispec.operator_mtilde(k, N, i) for i in range(1, d + 1)]
    cols = [bispec.operator_m(k, N, i) for i in range(1, d + 1)]
    eigen = plain_eigen(
        tab, rows, cols,
        lambda op, fixed, y, got, want: {
            "operator": op.name,
            "fixed_index": list(fixed),
            "at": list(y),
            "got": format_scalar(got),
            "want": format_scalar(want),
        },
    )
    universal = plain_eigen(
        tab, [bispec.operator_universal(k, N)], [],
        lambda op, fixed, y, got, want: {
            "operator": "universal",
            "fixed_index": list(fixed),
            "at": list(y),
            "residual": format_scalar(abs(got - want)),
        },
    )
    return eigen, universal


def plain_eigen(tab, ops_rows, ops_columns, record):
    """(failure records, max residual) of the eigen identities over a
    table, recomputed with `plain_apply` in Fractions, in check_eigen's
    order."""
    reduced = {pt[1:]: idx for idx, pt in enumerate(tab.points)}
    columns = tuple(zip(*tab.values))
    failures, max_resid = [], 0
    for lines, ops in ((tab.values, ops_rows), (columns, ops_columns)):
        for fixed, line in zip(tab.points, lines):
            value = lambda y: line[reduced[y]]
            for op in ops:
                ev = op.eigenvalue(fixed[1:])
                for y, got in plain_apply(op, value).items():
                    want = ev * value(y)
                    max_resid = max(max_resid, abs(got - want))
                    if got != want:
                        failures.append(record(op, fixed, y, got, want))
    return failures, max_resid


def corrupted(k, N, entry, delta=F(1, 7)):
    """The table of k at N with the entry at (row, column) moved by delta."""
    tab = hyperg.table(k, N)
    vals = [list(r) for r in tab.values]
    vals[entry[0]][entry[1]] += delta
    return hyperg.PolynomialTable(k, N, tab.points, tuple((tuple(r), 1) for r in vals))


def approx_twin(tab):
    """The same table and set in approx mode, at the default eps."""
    k = kappa.from_json_dict(kappa.to_json_dict(tab.kappa), "approx", 1e-10)
    lines = tuple((tuple(float(x) for x in row), 1) for row in tab.values)
    return hyperg.PolynomialTable(k, tab.N, tab.points, lines)


HR = kappa.family_hoare_rahman(1, 2, 3, 4)
MILCH_D3 = kappa.family_milch([F(1, 2), F(1, 4), F(1, 8), F(1, 8)])
DS_Q3 = kappa.family_ds(F(3), 1)

# one entry moved by 1/7 at three positions of each table, one of them in
# row 0 or column 0 (where P = 1)
CORRUPTIONS = [
    pytest.param(k, N, entry, id=f"{name}-{entry[0]}-{entry[1]}")
    for name, k, N, entries in (
        ("hr1234", HR, 2, [(0, 3), (2, 4), (5, 0)]),
        ("milch-d3", MILCH_D3, 2, [(0, 7), (4, 6), (9, 2)]),
        ("ds-q3-d1", DS_Q3, 4, [(3, 0), (1, 2), (4, 4)]),
    )
    for entry in entries
]


class TestAffineCoeff:
    def test_algebra(self):
        assert AffineCoeff(0, (0, 0)).is_zero()
        assert not AffineCoeff(1, (2, 0)).is_zero()
        assert not AffineCoeff(0, (0, F(1, 3))).is_zero()

    def test_json_form(self):
        c = AffineCoeff(F(1, 3), (F(-2, 5), 0))
        assert c.to_json_dict() == {"constant": "1/3", "linear": ["-2/5", "0"]}


FAMILIES = [
    pytest.param(kappa.griffiths_from_p([F(1, 2), F(1, 2)]), 4, id="classical-d1"),
    pytest.param(kappa.family_milch([F(1, 3), F(2, 3)]), 3, id="milch-d1"),
    pytest.param(kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)]), 3, id="milch-d2"),
    pytest.param(kappa.family_hoare_rahman(1, 2, 3, 4), 2, id="hr"),
    pytest.param(kappa.family_ds(F(2), 2), 2, id="ds-d2"),
    pytest.param(kappa.family_ds(F(2), 3), 2, id="ds-d3"),
]


class TestStencils:
    def test_term_bound_and_counts(self):
        # bound d^2 + d + 1 holds; degenerate parameter sets attain less
        assert len(bispec.operator_mtilde(classical(), 3, 1).stencil) == 2
        assert len(bispec.operator_mtilde(milch1(), 3, 1).stencil) == 3
        k = milch2()
        counts = [len(bispec.operator_mtilde(k, 2, i).stencil) for i in (1, 2)]
        assert counts == [7, 3]
        assert all(c <= 7 for c in counts)
        assert len(bispec.operator_universal(k, 2).stencil) == 7

    def test_index_range(self):
        k = milch2()
        with pytest.raises(IndexError):
            bispec.operator_mtilde(k, 2, 0)
        with pytest.raises(IndexError):
            bispec.operator_m(k, 2, 3)

    def test_universal_ignores_u(self):
        # same weights, swapped-in foreign pt and u: identical universal
        # stencils, because only p enters
        a = milch2()
        b = kappa.involute(a, 0)
        assert a.u != b.u
        swapped = kappa.ParameterSet(a.d, a.nu, a.p, b.pt, b.u)
        assert (
            bispec.operator_universal(a, 2).stencil
            == bispec.operator_universal(swapped, 2).stencil
        )

    def test_involution_swaps_families(self):
        # the mirror generator of kappa is the plain generator of the
        # involuted set, stencil for stencil
        for k in (milch2(), kappa.family_hoare_rahman(1, 2, 3, 4)):
            b = kappa.involute(k, 0)
            for i in range(1, k.d + 1):
                assert (
                    bispec.operator_m(k, 2, i).stencil
                    == bispec.operator_mtilde(b, 2, i).stencil
                )

    @pytest.mark.parametrize(
        "k,N",
        FAMILIES
        + [
            pytest.param(
                kappa.family_milch([F(1, 2), F(1, 4), F(1, 8), F(1, 8)]), 3, id="milch-d3"
            ),
            pytest.param(kappa.family_ds(F(3), 1), 3, id="ds-d1"),
        ],
    )
    def test_stencils_are_the_lie_action(self, k, N):
        # each operator is built from the matrix it is said to act by, and
        # its dumped stencil, evaluated at every point y, is row y of its
        # integer lattice form divided by D, its targets read back from
        # their layout indices
        p_ones = tuple(tuple(x - (r == c) for c in range(k.d + 1)) for r, x in enumerate(k.p))
        ops = [(bispec.operator_universal(k, N), p_ones)]
        for i in range(1, k.d + 1):
            ops.append((bispec.operator_mtilde(k, N, i), liemod.mirror_closed_form(k, i)))
            ops.append(
                (bispec.operator_m(k, N, i), liemod.mirror_closed_form(kappa.involute(k, 0), i))
            )
        points = list(enumerate_degree_points(k.d, N))
        for op, M in ops:
            assert op.matrix == M, op.name
            D = op.scale
            assert D == math.lcm(*(F(x).denominator for row in M for x in row))
            assert len(op.rows) == len(points)
            for y, terms in zip(points, op.rows):
                assert all(type(c) is int for _, c in terms)
                want = {
                    tuple(a + b for a, b in zip(y, s)): affine_at(c, y)
                    for s, c in op.stencil.items()
                }
                want = {t: c for t, c in want.items() if c != 0}
                assert {points[t]: F(c, D) for t, c in terms} == want, op.name

    def test_stencil_json(self):
        op = bispec.operator_mtilde(milch1(), 2, 1)
        records = bispec.stencil_json(op)
        assert len(records) == len(op.stencil)
        shifts = [tuple(r["shift"]) for r in records]
        assert shifts == sorted(shifts)
        for r in records:
            assert set(r["coeff"]) == {"constant", "linear"}
            assert len(r["coeff"]["linear"]) == 1


class Guarded:
    """A line of ones over the L lattice points that fails on any index
    outside 0..L-1 (a negative index would wrap round a plain list)."""

    def __init__(self, size):
        self.size = size

    def __getitem__(self, k):
        assert 0 <= k < self.size
        return 1


class TestApply:
    def test_identity(self):
        # the identity matrix acts on degree-N monomials as N, so I/N
        # gives the identity operator; apply returns the sums times D
        op = bispec.DifferenceOperator(
            linalg.mat_scale(F(1, 3), linalg.identity(3)), 3, None, "identity"
        )
        pts = list(enumerate_degree_points(2, 3))
        out = bispec.apply(op, [sum(y) + 1 for y in pts])
        assert len(out) == len(pts)
        assert all(acc == op.scale * (sum(y) + 1) for y, acc in zip(pts, out))

    def test_boundary_never_read(self):
        # every operator on the whole lattice with a line that would blow
        # up outside it
        k = milch2()
        size = len(list(enumerate_degree_points(2, 2)))
        for op in (
            bispec.operator_mtilde(k, 2, 1),
            bispec.operator_m(k, 2, 2),
            bispec.operator_universal(k, 2),
        ):
            assert len(bispec.apply(op, Guarded(size))) == size

    @pytest.mark.parametrize("scalar", [F, float], ids=["exact", "approx"])
    def test_any_matrix_stays_on_the_lattice(self, scalar):
        # a dense matrix with no zero entry: every outward term carries
        # the integer lam_l, which is 0 on the face it would leave, so
        # even arbitrary float entries never reach outside the simplex
        d, N = 3, 4
        M = tuple(
            tuple(scalar(F(3 * r + c + 1, 7 + r * c)) for c in range(d + 1))
            for r in range(d + 1)
        )
        op = bispec.DifferenceOperator(M, N, None, "dense")
        pts = list(enumerate_degree_points(d, N))
        assert len(op.rows) == len(pts)
        for terms in op.rows:
            assert {t for t, _ in terms} <= set(range(len(pts)))
            assert len(terms) <= d * d + d + 1
        assert sum(len(terms) for terms in op.rows) < len(pts) * (d * d + d + 1)
        if scalar is F:
            assert op.scale == math.lcm(*(x.denominator for row in M for x in row))
        else:
            assert op.scale == 1

    def test_approx_operator_keeps_floats_unscaled(self):
        # a float matrix is not scaled (D = 1), and its lattice form agrees
        # with the exact one within round-off, target by target
        exact = kappa.family_hoare_rahman(1, 2, 3, 4)
        k = kappa.from_json_dict(kappa.to_json_dict(exact), "approx", 1e-10)
        for build, args in (
            (bispec.operator_mtilde, (3, 1)),
            (bispec.operator_m, (3, 2)),
            (bispec.operator_universal, (3,)),
        ):
            op, ref = build(k, *args), build(exact, *args)
            assert op.scale == 1
            coeffs = [c for terms in op.rows for _, c in terms]
            assert coeffs and all(type(c) is float for c in coeffs)
            assert len(op.rows) == len(ref.rows)
            for terms, want in zip(op.rows, ref.rows):
                got, want = dict(terms), {t: F(c, ref.scale) for t, c in want}
                for t in got.keys() | want.keys():
                    w = want.get(t, 0)
                    assert abs(got.get(t, 0) - w) <= 1e-12 * max(1, abs(w))

    def test_apply_equals_plain_fractions(self):
        k = kappa.family_hoare_rahman(F(17, 101), F(-3, 7), F(29, 113), F(5, 211))
        func = lambda y: F(3 * y[0] - y[1] + 1, 7 + y[1])
        pts = list(enumerate_degree_points(k.d, 3))
        for op in (
            bispec.operator_mtilde(k, 3, 1),
            bispec.operator_m(k, 3, 2),
            bispec.operator_universal(k, 3),
        ):
            out = bispec.apply(op, [func(y) for y in pts])
            got = {y: acc / op.scale for y, acc in zip(pts, out)}
            assert got == plain_apply(op, func)


class TestEigenChecks:
    @pytest.mark.parametrize("k,N", FAMILIES)
    def test_recurrence_passes(self, k, N):
        rep = eigen(k, N, tab=hyperg.table(k, N))
        assert rep.passed and rep.failures == []
        assert rep.check == "recurrence"
        assert rep.details["term_bound"] == k.d * k.d + k.d + 1
        counts = rep.details["term_counts"]
        assert len(counts["second_index_family"]) == k.d
        assert len(counts["first_index_family"]) == k.d
        assert all(
            c <= rep.details["term_bound"]
            for c in counts["second_index_family"] + counts["first_index_family"]
        )

    @pytest.mark.parametrize("k,N", FAMILIES)
    def test_universal_passes(self, k, N):
        rep = universal(k, N, tab=hyperg.table(k, N))
        assert rep.passed and rep.failures == []
        assert rep.details["symbolic_identity"] is True

    def test_detects_corruption_and_localizes(self):
        k = milch2()
        tab = hyperg.table(k, 2)
        vals = [list(r) for r in tab.values]
        r0, c0 = 2, 3
        vals[r0][c0] += F(1, 7)
        broken = hyperg.PolynomialTable(
            k, 2, tab.points, tuple((tuple(r), 1) for r in vals)
        )
        rep = eigen(k, 2, tab=broken)
        assert not rep.passed
        # every failure names the corrupted row or column index
        pinned = (list(tab.points[r0]), list(tab.points[c0]))
        assert all(f["fixed_index"] in pinned for f in rep.failures)
        # ... and a point one stencil step from the corrupted entry: the
        # row operators see it at the column point, the column operators
        # at the row point
        row_ops = {f["operator"] for f in rep.failures if f["fixed_index"] == pinned[0]}
        col_ops = {f["operator"] for f in rep.failures if f["fixed_index"] == pinned[1]}
        assert row_ops and all(not name.startswith("m_") for name in row_ops)
        assert col_ops and all(name.startswith("m_") for name in col_ops)
        for f in rep.failures:
            near = pinned[1] if f["fixed_index"] == pinned[0] else pinned[0]
            assert max(abs(a - b) for a, b in zip(f["at"], near[1:])) <= 1

        rep = universal(k, 2, tab=broken)
        assert not rep.passed
        assert rep.details["symbolic_identity"] is True
        for f in rep.failures:
            assert f["operator"] == "universal"
            assert f["fixed_index"] == pinned[0]
            assert max(abs(a - b) for a, b in zip(f["at"], pinned[1][1:])) <= 1

    def test_universal_operator_is_applied_by_one_suite(self):
        # the corrupted table of the report fixture: recurrence names its
        # two families only, and the universal records stay in universal
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        tab = hyperg.table(k, 2)
        vals = [list(r) for r in tab.values]
        vals[1][2] = F(9)
        broken = hyperg.PolynomialTable(k, 2, tab.points, tuple((tuple(r), 1) for r in vals))
        rep = eigen(k, 2, tab=broken)
        names = {f["operator"] for f in rep.failures}
        assert len(rep.failures) == 20
        assert names <= {"m_1", "m_2", "mtilde_1", "mtilde_2"}
        assert rep.details["term_counts"]["universal"] == 7
        rep = universal(k, 2, tab=broken)
        assert [f["operator"] for f in rep.failures] == ["universal"] * 5

    def test_universal_identity_detects_perturbed_u(self):
        # u[1][2] moved by 1/7 past validation breaks the defining
        # identity; on the valid set's table the eigen part still holds
        # (the universal operator sees only p), so the identity is the
        # one failure
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        u = [list(row) for row in k.u]
        u[1][2] += F(1, 7)
        bad = kappa.ParameterSet(k.d, k.nu, k.p, k.pt, tuple(map(tuple, u)))
        rep = universal(bad, 2, tab=hyperg.table(k, 2))
        assert rep.details["symbolic_identity"] is False
        assert rep.failures == [{"identity": "universal as signed generator sum"}]
        rep = universal(bad, 2, tab=hyperg.table(bad, 2))
        assert rep.details["symbolic_identity"] is False
        assert rep.failures[-1] == {"identity": "universal as signed generator sum"}

    @pytest.mark.parametrize(
        "k,N,entry",
        [
            pytest.param(milch2(), 2, (2, 3), id="milch-d2"),
            pytest.param(
                kappa.family_hoare_rahman(F(17, 101), F(-3, 7), F(29, 113), F(5, 211)),
                3, (4, 7), id="hr-small",
            ),
            pytest.param(MILCH_D3, 2, (5, 1), id="milch-d3"),
        ]
        + CORRUPTIONS,
    )
    def test_failures_equal_plain_fraction_recomputation(self, k, N, entry):
        # the integer path reports the same records, in the same order,
        # and the same max_residual as Fraction arithmetic on the stencil
        tab = corrupted(k, N, entry)
        for check, want in zip(
            (eigen, universal), plain_eigen_records(tab)
        ):
            rep = check(k, N, tab=tab)
            assert want[0] and rep.failures == want[0]
            assert rep.details["max_residual"] == format_scalar(want[1])

    @pytest.mark.parametrize("k,N,entry", CORRUPTIONS[::3])
    def test_approx_twin_fails_at_the_same_points(self, k, N, entry):
        # the float path names the same points, in the same order, with
        # values and max_residual within round-off of the Fraction ones
        tab = corrupted(k, N, entry)
        twin = approx_twin(tab)
        for check, (want, resid) in zip(
            (eigen, universal), plain_eigen_records(tab)
        ):
            rep = check(twin.kappa, N, 1e-10, tab=twin)
            assert len(rep.failures) == len(want) > 0
            for got, ref in zip(rep.failures, want):
                assert got.keys() == ref.keys()
                for key, value in ref.items():
                    if key in ("got", "want", "residual"):
                        assert abs(float(got[key]) - F(value)) <= 1e-9 * max(1, abs(F(value)))
                    else:
                        assert got[key] == value
            got_resid = float(rep.details["max_residual"])
            assert abs(got_resid - resid) <= 1e-9 * max(1, resid)


class TestCommute:
    @pytest.mark.parametrize(
        "k,N",
        [
            (kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)]), 3),
            (kappa.family_ds(F(2), 2), 2),
            (kappa.family_ds(F(2), 3), 2),
        ],
        ids=["milch-d2", "ds-d2", "ds-d3"],
    )
    def test_families_commute(self, k, N):
        rep = commute(k, N)
        assert rep.passed and rep.failures == []
        assert rep.details["pairs"] == k.d * (k.d - 1) // 2 * 2

    @pytest.mark.parametrize(
        "family,k,other",
        [
            ("mtilde", milch2(), kappa.griffiths_from_p([F(1, 4), F(1, 4), F(1, 2)])),
            (
                "m",
                kappa.family_hoare_rahman(1, 2, 3, 4),
                kappa.family_hoare_rahman(F(17, 101), F(-3, 7), F(29, 113), F(5, 211)),
            ),
        ],
        ids=["mtilde", "m"],
    )
    def test_foreign_generator_fails_located(self, family, k, other):
        # generator 2 of one family taken from another parameter set: the
        # pair no longer commutes, and the records are the delta-basis
        # entries where ab and ba differ, as Fraction arithmetic finds them
        # (the mtilde misses are not symmetric in y0 and y, so the order
        # of the records is tested too)
        N = 2
        family_name = {"mtilde": "second", "m": "first"}[family] + "_index_family"
        gens = generators(k, N)
        gens[family_name][1] = generators(other, N)[family_name][1]
        rep = bispec.check_commute(k, N, gens=gens)
        assert not rep.passed

        a, b = gens[family_name]
        points = list(enumerate_degree_points(k.d, N))
        want = []
        for y0 in points:
            delta = lambda y: F(1 if y == y0 else 0)
            ab = plain_apply(a, lambda y: plain_apply(b, delta)[y])
            ba = plain_apply(b, lambda y: plain_apply(a, delta)[y])
            want += [
                {
                    "family": family_name,
                    "pair": [a.name, b.name],
                    "basis_point": list(y0),
                    "at": list(y),
                }
                for y in points
                if ab[y] != ba[y]
            ]
        assert want and rep.failures == want

    def test_checks_make_no_involute_call(self, monkeypatch):
        # the mirror family reads the closed form off kappa itself, so
        # neither check validates the involuted set again
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        tab = hyperg.table(k, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("kappa.involute called")

        monkeypatch.setattr(kappa, "involute", refuse)
        assert eigen(k, 2, tab=tab).passed
        assert commute(k, 2).passed

    def test_a_run_builds_each_generator_once(self, monkeypatch):
        # recurrence and commute share the run's 2d generators and their
        # lattice forms, and universal builds its own operator, all read
        # from the run's one move table, which acts once per lattice
        # point: 20 acts and 6 + 1 lattice forms at Milch d=3 N=3
        acts, forms, closed = [], [], []
        act, lattice_form, closed_form = liemod.act, liemod.lattice_form, liemod.closed_form
        monkeypatch.setattr(liemod, "act", lambda *a: acts.append(1) or act(*a))
        monkeypatch.setattr(
            liemod, "lattice_form", lambda *a: forms.append(1) or lattice_form(*a)
        )
        monkeypatch.setattr(
            liemod, "closed_form", lambda *a: closed.append(a[-1]) or closed_form(*a)
        )
        reports = verify.run_suites(["recurrence", "universal", "commute"], MILCH_D3, 3)
        assert all(r.passed for r in reports)
        assert len(acts) == 20
        assert len(forms) == 7
        # both closed forms of each of the d+1 indices, once per run
        assert sorted(closed) == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_d1_is_vacuous(self):
        rep = commute(milch1(), 3)
        assert rep.passed
        assert rep.details["pairs"] == 0
        assert "vacuous" in rep.details["note"]
