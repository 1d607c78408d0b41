"""Difference operators: matrices, lattice forms, stencils, eigen checks."""

import math
from fractions import Fraction as F

import pytest

from mvkraw import bispec, hyperg, kappa, liemod, linalg
from mvkraw.bispec import AffineCoeff
from mvkraw.numeric import enumerate_degree_points, format_scalar


def classical():
    return kappa.griffiths_from_p([F(1, 2), F(1, 2)])


def milch1():
    return kappa.family_milch([F(1, 3), F(2, 3)])


def milch2():
    return kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)])


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


def plain_eigen(tab, ops_rows, ops_columns, record):
    """(failure records, max residual) of the eigen identities over a
    table, recomputed with `plain_apply`, in check_eigen's order."""
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
    return failures, format_scalar(max_resid)


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
        assert bispec.operator_mtilde(classical(), 3, 1).term_count() == 2
        assert bispec.operator_mtilde(milch1(), 3, 1).term_count() == 3
        k = milch2()
        counts = [bispec.operator_mtilde(k, 2, i).term_count() for i in (1, 2)]
        assert counts == [7, 3]
        assert all(c <= 7 for c in counts)
        assert bispec.operator_universal(k, 2).term_count() == 7

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
        # integer lattice form divided by D
        p_ones = tuple(tuple(x - (r == c) for c in range(k.d + 1)) for r, x in enumerate(k.p))
        ops = [(bispec.operator_universal(k, N), p_ones)]
        for i in range(1, k.d + 1):
            ops.append((bispec.operator_mtilde(k, N, i), liemod.mirror_closed_form(k, i)))
            ops.append(
                (bispec.operator_m(k, N, i), liemod.mirror_closed_form(kappa.involute(k, 0), i))
            )
        for op, M in ops:
            assert op.matrix == M, op.name
            D = op.scale
            assert D == math.lcm(*(F(x).denominator for row in M for x in row))
            for y, terms in op.rows:
                assert all(type(c) is int for _, c in terms)
                want = {
                    tuple(a + b for a, b in zip(y, s)): affine_at(c, y)
                    for s, c in op.stencil.items()
                }
                want = {t: c for t, c in want.items() if c != 0}
                assert {t: F(c, D) for t, c in terms} == want, op.name

    def test_stencil_json(self):
        op = bispec.operator_mtilde(milch1(), 2, 1)
        records = bispec.stencil_json(op)
        assert len(records) == op.term_count()
        shifts = [tuple(r["shift"]) for r in records]
        assert shifts == sorted(shifts)
        for r in records:
            assert set(r["coeff"]) == {"constant", "linear"}
            assert len(r["coeff"]["linear"]) == 1


class TestApply:
    def test_identity(self):
        # the identity matrix acts on degree-N monomials as N, so I/N
        # gives the identity operator
        op = bispec.DifferenceOperator(
            linalg.mat_scale(F(1, 3), linalg.identity(3)), 3, None, "identity"
        )
        out = bispec.apply(op, lambda y: sum(y) + 1)
        assert all(out[y] == sum(y) + 1 for y in out)

    def test_boundary_never_read(self):
        # every operator on the whole lattice with an F that would blow
        # up outside it
        k = milch2()
        pts = set(enumerate_degree_points(2, 2))

        def guarded(y):
            assert y in pts
            return 1

        for op in (
            bispec.operator_mtilde(k, 2, 1),
            bispec.operator_m(k, 2, 2),
            bispec.operator_universal(k, 2),
        ):
            bispec.apply(op, guarded)

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
        assert [y for y, _ in op.rows] == pts
        for y, terms in op.rows:
            assert {t for t, _ in terms} <= set(pts)
            assert len(terms) <= d * d + d + 1
        assert sum(len(terms) for _, terms in op.rows) < len(pts) * (d * d + d + 1)
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
            coeffs = [c for _, terms in op.rows for _, c in terms]
            assert coeffs and all(type(c) is float for c in coeffs)
            for (y, terms), (z, want) in zip(op.rows, ref.rows):
                assert y == z
                got, want = dict(terms), {t: F(c, ref.scale) for t, c in want}
                for t in got.keys() | want.keys():
                    w = want.get(t, 0)
                    assert abs(got.get(t, 0) - w) <= 1e-12 * max(1, abs(w))

    def test_apply_equals_plain_fractions(self):
        k = kappa.family_hoare_rahman(F(17, 101), F(-3, 7), F(29, 113), F(5, 211))
        func = lambda y: F(3 * y[0] - y[1] + 1, 7 + y[1])
        for op in (
            bispec.operator_mtilde(k, 3, 1),
            bispec.operator_m(k, 3, 2),
            bispec.operator_universal(k, 3),
        ):
            assert bispec.apply(op, func) == plain_apply(op, func)


class TestEigenChecks:
    @pytest.mark.parametrize("k,N", FAMILIES)
    def test_recurrence_passes(self, k, N):
        rep = bispec.check_eigen(k, N, tab=hyperg.table(k, N))
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
        rep = bispec.check_universal(k, N, tab=hyperg.table(k, N))
        assert rep.passed and rep.failures == []
        assert rep.details["symbolic_identity"] is True

    def test_detects_corruption_and_localizes(self):
        k = milch2()
        tab = hyperg.table(k, 2)
        vals = [list(r) for r in tab.values]
        r0, c0 = 2, 3
        vals[r0][c0] += F(1, 7)
        broken = hyperg.PolynomialTable(
            k, 2, tab.points, tuple(tuple(r) for r in vals)
        )
        rep = bispec.check_eigen(k, 2, tab=broken)
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

        rep = bispec.check_universal(k, 2, tab=broken)
        assert not rep.passed
        assert rep.details["symbolic_identity"] is True
        for f in rep.failures:
            assert f["operator"] == "universal"
            assert f["fixed_index"] == pinned[0]
            assert max(abs(a - b) for a, b in zip(f["at"], pinned[1][1:])) <= 1

    def test_universal_identity_detects_perturbed_u(self):
        # u[1][2] moved by 1/7 past validation breaks the defining
        # identity; on the valid set's table the eigen part still holds
        # (the universal operator sees only p), so the identity is the
        # one failure
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        u = [list(row) for row in k.u]
        u[1][2] += F(1, 7)
        bad = kappa.ParameterSet(k.d, k.nu, k.p, k.pt, tuple(map(tuple, u)))
        rep = bispec.check_universal(bad, 2, tab=hyperg.table(k, 2))
        assert rep.details["symbolic_identity"] is False
        assert rep.failures == [{"identity": "universal as signed generator sum"}]
        rep = bispec.check_universal(bad, 2, tab=hyperg.table(bad, 2))
        assert rep.details["symbolic_identity"] is False
        assert rep.failures[-1] == {"identity": "universal as signed generator sum"}

    @pytest.mark.parametrize(
        "k,N,entry",
        [
            (milch2(), 2, (2, 3)),
            (kappa.family_hoare_rahman(F(17, 101), F(-3, 7), F(29, 113), F(5, 211)), 3, (4, 7)),
            (kappa.family_milch([F(1, 2), F(1, 4), F(1, 8), F(1, 8)]), 2, (5, 1)),
        ],
        ids=["milch-d2", "hr-small", "milch-d3"],
    )
    def test_failures_equal_plain_fraction_recomputation(self, k, N, entry):
        # the integer path reports the same records, in the same order,
        # and the same max_residual as Fraction arithmetic on the stencil
        tab = hyperg.table(k, N)
        vals = [list(r) for r in tab.values]
        vals[entry[0]][entry[1]] += F(1, 7)
        tab = hyperg.PolynomialTable(k, N, tab.points, tuple(tuple(r) for r in vals))
        d = k.d
        rows = [bispec.operator_mtilde(k, N, i) for i in range(1, d + 1)]
        cols = [bispec.operator_m(k, N, i) for i in range(1, d + 1)]
        universal = bispec.operator_universal(k, N)

        want, resid = plain_eigen(
            tab, rows + [universal], cols,
            lambda op, fixed, y, got, want: {
                "operator": op.name,
                "fixed_index": list(fixed),
                "at": list(y),
                "got": format_scalar(got),
                "want": format_scalar(want),
            },
        )
        rep = bispec.check_eigen(k, N, tab=tab)
        assert want and rep.failures == want
        assert rep.details["max_residual"] == resid

        want, resid = plain_eigen(
            tab, [universal], [],
            lambda op, fixed, y, got, want: {
                "operator": "universal",
                "fixed_index": list(fixed),
                "at": list(y),
                "residual": format_scalar(abs(got - want)),
            },
        )
        rep = bispec.check_universal(k, N, tab=tab)
        assert want and rep.failures == want
        assert rep.details["max_residual"] == resid


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
        rep = bispec.check_commute(k, N)
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
    def test_foreign_generator_fails_located(self, monkeypatch, family, k, other):
        # generator 2 of one family taken from another parameter set: the
        # pair no longer commutes, and the records are the delta-basis
        # entries where ab and ba differ, as Fraction arithmetic finds them
        # (the mtilde misses are not symmetric in y0 and y, so the order
        # of the records is tested too)
        N = 2
        name = f"operator_{family}"
        original = getattr(bispec, name)
        monkeypatch.setattr(
            bispec, name, lambda kap, N, i: original(other if i == 2 else kap, N, i)
        )
        rep = bispec.check_commute(k, N)
        assert not rep.passed

        a, b = (getattr(bispec, name)(k, N, i) for i in (1, 2))
        points = list(enumerate_degree_points(k.d, N))
        want = []
        for y0 in points:
            delta = lambda y: F(1 if y == y0 else 0)
            ab = plain_apply(a, lambda y: plain_apply(b, delta)[y])
            ba = plain_apply(b, lambda y: plain_apply(a, delta)[y])
            want += [
                {
                    "family": {"mtilde": "second", "m": "first"}[family] + "_index_family",
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
        assert bispec.check_eigen(k, 2, tab=tab).passed
        assert bispec.check_commute(k, 2).passed

    def test_d1_is_vacuous(self):
        rep = bispec.check_commute(milch1(), 3)
        assert rep.passed
        assert rep.details["pairs"] == 0
        assert "vacuous" in rep.details["note"]
