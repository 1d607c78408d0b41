"""Matrix pictures, the polynomial module, and the pairing route."""

import json
import os
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expansion_oracle import plain_line
from mvkraw import bispec, hyperg, kappa, liemod, linalg, verify
from mvkraw.numeric import (
    DegreeMismatchError,
    clear_denominators,
    enumerate_lattice,
    exactify,
    gram_misses,
    multi_factorial,
    multinomial_weights,
    power_product,
    weight_over_factorial,
)

ADJOINT_FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "adjoint_no_transpose_hr1234_N2.json"
)


def classical():
    # d = 1, symmetric weights; u = [[1,1],[1,-1]], nu = 2
    return kappa.griffiths_from_p([F(1, 2), F(1, 2)])


def milch2():
    return kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)])


def suite(name, k, N=None, tol=0):
    """One suite as `mvkraw check` runs it, on the inputs the run builds."""
    return verify.run_suites([name], k, N, tol)[0]


def antiauto_without_transpose(k, beta):
    """Pt b Pt^-1: the antiautomorphism with its transpose dropped."""
    n = k.d + 1
    return tuple(
        tuple(exactify(k.pt[r]) * beta[r][c] / k.pt[c] for c in range(n))
        for r in range(n)
    )


def antiauto_with_p_weights(k, beta):
    """P b^t P^-1: the antiautomorphism with p's ratios where pt's are due."""
    n = k.d + 1
    return tuple(
        tuple(exactify(k.p[r]) * beta[c][r] / k.p[c] for c in range(n))
        for r in range(n)
    )


def antiauto_with_perturbed_ratio(k, beta):
    """The antiautomorphism with pt_0/pt_1 moved by 1/7."""
    ratios = [[exactify(a) / b for b in k.pt] for a in k.pt]
    ratios[0][1] += F(1, 7)
    return tuple(
        tuple(r * x for r, x in zip(row, col)) for row, col in zip(ratios, zip(*beta))
    )


def approx_twin(k):
    return kappa.from_json_dict(kappa.to_json_dict(k), "approx", 1e-10)


def conjugated(k, beta):
    """R beta R^-1, the element of the conjugated basis that beta names."""
    conj = liemod.conjugator(k, 0)
    return linalg.product(linalg.product(conj.rhat, beta), conj.rhat_inv)


class TestBasis:
    def test_matrix_unit(self):
        assert liemod.basis_e(2, 0, 2) == ((0, 0, 1), (0, 0, 0), (0, 0, 0))
        with pytest.raises(IndexError):
            liemod.basis_e(2, 1, 1)
        with pytest.raises(IndexError):
            liemod.basis_e(2, 0, 3)

    def test_cartan_element(self):
        phi = liemod.basis_phi(1, 1)
        assert phi == ((F(-1, 2), 0), (0, F(1, 2)))
        phi = liemod.basis_phi(3, 2)
        assert sum(phi[i][i] for i in range(4)) == 0

    def test_phi_zero_is_minus_sum(self):
        d = 3
        total = liemod.basis_phi(d, 0)
        for j in range(1, d + 1):
            total = linalg.mat_add(total, liemod.basis_phi(d, j))
        assert total == linalg.mat_scale(0, total)


class TestConjugator:
    def test_hand_value(self):
        conj = liemod.conjugator(classical(), 0)
        assert conj.rhat == ((F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2)))
        assert conj.rhat_inv == ((1, 1), (1, -1))

    def test_inverse_pair(self):
        k = milch2()
        conj = liemod.conjugator(k, 0)
        assert linalg.product(conj.rhat, conj.rhat_inv) == linalg.identity(3)

    def test_expands_each_power_once_per_direction(self, monkeypatch):
        # a run of the four suites that read X or Y builds X = Sym^N(rhat)
        # once, forward, and Y = Sym^N(rhat^-1) once, backward, besides
        # the generating matrix of threeway, each whole: no line is read
        # alone, and the builder is the package's one expansion
        builds = []
        expansion_matrix = liemod.expansion_matrix

        def building(R, points, lam=None):
            builds.append((R, lam))
            return expansion_matrix(R, points, lam)

        monkeypatch.setattr(liemod, "expansion_matrix", building)
        k = milch2()
        points = list(enumerate_lattice(k.d, 2))
        conj = liemod.conjugator(k, 0)
        generating = linalg.transpose(hyperg.generating_forms(k))
        reports = verify.run_suites(["norms", "adjacency", "transition", "threeway"], k, 2)
        assert all(rep.passed for rep in reports)
        assert builds == [(conj.rhat, None), (conj.rhat_inv, None), (generating, None)]
        # each line of X and of Y is its plain expansion, over the matrix's one scale
        for R in (conj.rhat, conj.rhat_inv):
            lines, D = expansion_matrix(R, points)
            assert len(lines) == len(points)
            for lam, line in zip(points, lines):
                assert [F(c, D) for c in line] == plain_line(R, lam, points)

    def test_adjacency_expands_each_power_once(self, monkeypatch):
        builds = []
        expansion_matrix = liemod.expansion_matrix

        def building(R, points):
            builds.append(R)
            return expansion_matrix(R, points)

        monkeypatch.setattr(liemod, "expansion_matrix", building)
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        rhat = liemod.conjugator(k, 0).rhat
        assert suite("adjacency", k, 3).passed
        # the intertwinings need only the forward matrix X, built once
        assert builds == [rhat]
        points = list(enumerate_lattice(k.d, 3))
        lines, D = expansion_matrix(rhat, points)
        for lam, line in zip(points, lines):
            assert [F(c, D) for c in line] == plain_line(rhat, lam, points)

    def test_full_check_acts_on_monomials_only(self, monkeypatch):
        # `act` runs only where the run's one move table is built, once
        # per lattice monomial, and every lattice form is read from that
        # table: one for each of the 2d generators, which recurrence,
        # commute and adjacency share, one for the universal operator,
        # and one for each unit e_ij, i != j, and for its image a(e_ij)
        # in the contravariance half of norms; no suite acts on a whole
        # polynomial
        calls, forms = [], []
        act, lattice_form = liemod.act, liemod.lattice_form

        def counting(beta, f):
            calls.append(len(f))
            return act(beta, f)

        def counting_forms(M, moves):
            forms.append(id(moves))
            return lattice_form(M, moves)

        monkeypatch.setattr(liemod, "act", counting)
        monkeypatch.setattr(liemod, "lattice_form", counting_forms)
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        reports = verify.run_suites(verify.SUITES, k, 3)
        assert all(r.passed for r in reports)
        L = len(list(enumerate_lattice(k.d, 3)))
        units = k.d * (k.d + 1)
        assert len(calls) == L == 10
        assert set(calls) == {1}
        assert len(forms) == 2 * k.d + 1 + 2 * units == 17
        assert len(set(forms)) == 1

    def test_one_conjugator_per_check_run(self, monkeypatch):
        # lemma21, lemma22 and transition share the run's conjugator, and
        # norms, adjacency, transition and threeway its expansion matrix,
        # so all 12 suites build each Sym^N matrix once: X and, by
        # transition, Y from the conjugator, and the generating matrices
        # of threeway and duality, each whole, with no line read alone
        builds, lines = [], []
        conjugators = []

        def building(R, points, lam=None):
            builds.append(R)
            lines.append(lam)
            return expansion_matrix(R, points, lam)

        def counting_conjugator(k, tol):
            conjugators.append(tol)
            return conjugator(k, tol)

        conjugator, expansion_matrix = liemod.conjugator, liemod.expansion_matrix
        monkeypatch.setattr(liemod, "expansion_matrix", building)
        monkeypatch.setattr(liemod, "conjugator", counting_conjugator)
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        reports = verify.run_suites(verify.SUITES, k, 3)
        assert all(r.passed for r in reports)
        assert lines == [None] * 4
        assert len(builds) == len(set(builds)) == 4
        assert conjugators == [0]

    def test_lemma_suites_matrix_products(self, monkeypatch):
        # the run's conjugator builds rhat and rhat_inv by scaling rows and,
        # for a sealed set, makes no inverse check; lemma21 and lemma22
        # conjugate and bracket on the conjugator's integer rows by the
        # shape of their factors: a unit conjugate and a bracket with a
        # Cartan element make no dense product, a Cartan conjugate makes
        # one and a mirror closed form two, so d = 2 makes 2 (d + 1) + 2 d
        # = 10; an unsealed set's conjugator makes the one product of its
        # check
        k = milch2()
        calls = []
        product = linalg.product

        def counting(a, b):
            calls.append(1)
            return product(a, b)

        monkeypatch.setattr(linalg, "product", counting)
        reports = verify.run_suites(["lemma21", "lemma22"], k, None)
        assert all(r.passed for r in reports)
        assert len(calls) == 10
        unsealed = kappa.ParameterSet(k.d, k.nu, k.p, k.pt, k.u)
        reports = verify.run_suites(["lemma21", "lemma22"], unsealed, None)
        assert all(r.passed for r in reports)
        assert len(calls) == 21

    def test_seal_rejects_corrupt_set(self):
        # bypass validation on purpose: this u breaks the defining identity
        k = classical()
        corrupt = kappa.ParameterSet(k.d, k.nu, k.p, k.pt, ((1, 1), (1, 1)))
        with pytest.raises(AssertionError, match="corrupt"):
            liemod.conjugator(corrupt, 0)


class TestDualElements:
    def test_dual_phi_hand_values(self):
        k = classical()
        assert conjugated(k, liemod.basis_phi(1, 1)) == ((0, F(-1, 2)), (F(-1, 2), 0))
        assert conjugated(k, liemod.basis_phi(1, 0)) == ((0, F(1, 2)), (F(1, 2), 0))

    def test_dual_phi_zero_columns_constant(self):
        # off-diagonal entries of the conjugated phi_0 only see the row's
        # dual weight
        k = milch2()
        m = conjugated(k, liemod.basis_phi(2, 0))
        for r in range(3):
            for c in range(3):
                want = k.pt[r] - (F(1, 3) if r == c else 0)
                assert m[r][c] == want


class TestAntiauto:
    def test_fixes_cartan(self):
        k = milch2()
        for i in range(3):
            phi = liemod.basis_phi(2, i)
            assert liemod.antiauto(k, phi) == phi

    def test_transports_matrix_units(self):
        k = milch2()
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                got = liemod.antiauto(k, liemod.basis_e(2, i, j))
                want = linalg.mat_scale(
                    F(k.pt[j], 1) / k.pt[i], liemod.basis_e(2, j, i)
                )
                assert got == want

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**30))
    def test_antimultiplicative_and_involutive(self, seed):
        k = kappa.family_ds(F(2), 2)
        rng = random.Random(seed)

        def rand():
            return tuple(
                tuple(F(rng.randint(-4, 4)) for _ in range(3)) for _ in range(3)
            )

        a, b = rand(), rand()
        assert liemod.antiauto(k, linalg.product(a, b)) == linalg.product(
            liemod.antiauto(k, b), liemod.antiauto(k, a)
        )
        assert liemod.antiauto(k, liemod.antiauto(k, a)) == a


FAMILIES = [
    pytest.param(kappa.griffiths_from_p([F(1, 2), F(1, 2)]), id="classical-d1"),
    pytest.param(kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)]), id="milch-d2"),
    pytest.param(kappa.family_hoare_rahman(1, 2, 3, 4), id="hr"),
    pytest.param(kappa.family_ds(F(2), 3), id="ds-d3"),
]


class TestStructureChecks:
    @pytest.mark.parametrize("k", FAMILIES)
    def test_conjugation_check_passes(self, k):
        # both closed forms against honest conjugation, outside the suite
        for i in range(k.d + 1):
            phi = liemod.basis_phi(k.d, i)
            assert conjugated(k, phi) == liemod.closed_form(k.integer_view, i)
            if i:
                assert conjugated(k, liemod.mirror_closed_form(k, i)) == phi

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 3),
        st.sampled_from([kappa.griffiths_from_p, kappa.family_milch]),
        st.data(),
    )
    def test_closed_forms_are_the_written_formula(self, d, family, data):
        # from the set's integer view, each closed form is e_kl with
        # nu p_i pt_k u_ik u_il and phi_j with p_i (nu pt_j u_ij^2 - 1),
        # and the mirror is that of the involuted set; its approx twin
        # keeps the float products in their order
        parts = [data.draw(st.fractions(F(1, 30), 1, max_denominator=30)) for _ in range(d + 1)]
        k = family([x / sum(parts) for x in parts])
        cols = range(d + 1)
        for twin, scalar in ((k, F), (approx_twin(k), float)):
            forms = liemod.closed_forms(twin)
            mirror = kappa.ParameterSet(d, twin.nu, twin.pt, twin.p, linalg.transpose(twin.u))
            for kk, closed in ((twin, forms.closed), (mirror, forms.mirror)):
                nu, p, pt, u = scalar(kk.nu), kk.p, kk.pt, kk.u
                shift = F(1, d + 1)
                assert closed[0] == tuple(
                    tuple(pt[r] - (shift if r == c else 0) for c in cols) for r in cols
                )
                for i in range(1, d + 1):
                    want = [
                        [nu * p[i] * pt[a] * u[i][a] * u[i][b] if a != b else 0 for b in cols]
                        for a in cols
                    ]
                    for j in range(1, d + 1):
                        c = p[i] * (nu * pt[j] * u[i][j] ** 2 - 1)
                        for r in cols:
                            want[r][r] -= c * shift
                        want[j][j] += c
                    assert closed[i] == linalg.freeze(want)
                    assert all(type(x) is scalar for row in closed[i] for x in row)
                    if kk is twin:
                        assert bispec.operator_m(twin, 2, i).matrix == closed[i]

    @pytest.mark.parametrize(
        "k",
        FAMILIES
        + [
            pytest.param(
                kappa.family_milch([F(1, 2), F(1, 4), F(1, 8), F(1, 8)]), id="milch-d3"
            ),
            pytest.param(
                kappa.griffiths_from_p([F(1, 3), F(1, 5), F(1, 7), F(1, 11), F(269, 1155)]),
                id="griffiths-d4",
            ),
        ],
    )
    def test_antiauto_suite_passes(self, k):
        rep = suite("lemma21", k)
        assert rep.passed and rep.failures == []
        assert rep.check == "lemma21"
        assert rep.details == {"unit_pairs": (k.d + 1) ** 4}

    @pytest.mark.parametrize("k", FAMILIES)
    def test_generation_suite_passes(self, k):
        rep = suite("lemma22", k)
        assert rep.passed and rep.failures == []
        assert rep.check == "lemma22"

    def test_conjugation_check_detects_denormalized_set(self):
        # doubling u and shrinking pt keeps nu P u Pt u^t = I but breaks
        # the normalization both closed forms rely on; the defects 3/8 and
        # 3/16 are those of the closed-form checks before lemma22 held both
        k = classical()
        bad = kappa.ParameterSet(
            k.d,
            k.nu,
            k.p,
            tuple(x / 4 for x in k.pt),
            tuple(tuple(2 * x for x in row) for row in k.u),
        )
        rep = suite("lemma22", bad)
        assert not rep.passed
        assert rep.failures == [
            {"identity": "dual_phi_0 closed form", "defect": "3/8"},
            {"identity": "phi_1 mirror closed form", "defect": "3/16"},
            {"identity": "bracket recovery of e_01", "defect": "3"},
            {"identity": "bracket recovery of e_10", "defect": "3"},
        ]

    def test_lemma21_detects_antiauto_with_p_weights(self, monkeypatch):
        # a(b) = P b^t P^-1 fixes the plain Cartan elements and is an
        # involutive antiautomorphism, but it transports every matrix unit
        # with the ratios of p where pt's are due, and moves the dual
        # Cartan elements
        monkeypatch.setattr(liemod, "antiauto", antiauto_with_p_weights)
        rep = suite("lemma21", kappa.family_hoare_rahman(1, 2, 3, 4))
        assert not rep.passed
        units = [(i, j) for i in range(3) for j in range(3) if i != j]
        assert [f["identity"] for f in rep.failures] == [
            f"a(dual_phi_{i}) = dual_phi_{i}" for i in range(3)
        ] + [
            tag
            for i, j in units
            for tag in (
                f"a(e_{i}{j}) = (pt_{j}/pt_{i}) e_{j}{i}",
                f"a(dual_e_{i}{j}) = (p_{j}/p_{i}) dual_e_{j}{i}",
            )
        ]
        assert rep.failures[3] == {"identity": "a(e_01) = (pt_1/pt_0) e_10", "defect": "10"}

    def test_lemma21_detects_antiauto_without_transpose(self, monkeypatch):
        # a(b) = Pt b Pt^-1 is an automorphism, not an antiautomorphism:
        # it fixes the plain Cartan elements and the diagonal units only,
        # and fails every transport and off-diagonal involution, and the
        # product reversal of every unit pair (e_ij, e_kl) with j = k or
        # l = i, save e_ii e_ii: 27 + 27 - 9 - 3 = 42 pairs
        monkeypatch.setattr(liemod, "antiauto", antiauto_without_transpose)
        rep = suite("lemma21", kappa.family_hoare_rahman(1, 2, 3, 4))
        assert not rep.passed
        units = [(i, j) for i in range(3) for j in range(3) if i != j]
        pairs = [
            f"a(e_{i}{j} e_{k}{l}) = a(e_{k}{l}) a(e_{i}{j})"
            for i in range(3)
            for j in range(3)
            for k in range(3)
            for l in range(3)
            if (j == k or l == i) and not i == j == k == l
        ]
        assert len(pairs) == 42
        assert [f["identity"] for f in rep.failures] == [
            f"a(dual_phi_{i}) = dual_phi_{i}" for i in range(3)
        ] + [
            tag
            for i, j in units
            for tag in (
                f"a(e_{i}{j}) = (pt_{j}/pt_{i}) e_{j}{i}",
                f"a(dual_e_{i}{j}) = (p_{j}/p_{i}) dual_e_{j}{i}",
                f"a(a(e_{i}{j})) = e_{i}{j}",
            )
        ] + pairs
        assert rep.failures[3] == {"identity": "a(e_01) = (pt_1/pt_0) e_10", "defect": "45"}
        assert rep.details == {"unit_pairs": 81}

    def test_lemma21_detects_perturbed_weight_ratio(self, monkeypatch):
        # pt_0/pt_1 moved by 1/7 in the image of e_10 alone: the transport
        # of e_10 fails by 1/7, the involution fails on e_01 and e_10, and
        # product reversal on exactly the five unit pairs that use the
        # ratio on one side only
        monkeypatch.setattr(liemod, "antiauto", antiauto_with_perturbed_ratio)
        rep = suite("lemma21", kappa.family_hoare_rahman(1, 2, 3, 4))
        assert not rep.passed
        pairs = [
            f["identity"] for f in rep.failures if f["identity"].count("e_") == 4
        ]
        assert pairs == [
            f"a(e_{i}{j} e_{k}{l}) = a(e_{k}{l}) a(e_{i}{j})"
            for i, j, k, l in [(0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 0, 2), (1, 2, 2, 0), (2, 1, 1, 0)]
        ]
        assert {"identity": "a(e_10) = (pt_0/pt_1) e_01", "defect": "1/7"} in rep.failures
        involutions = [f["identity"] for f in rep.failures if f["identity"].startswith("a(a(")]
        assert involutions == ["a(a(e_01)) = e_01", "a(a(e_10)) = e_10"]
        assert rep.details == {"unit_pairs": 81}

    @pytest.mark.parametrize(
        "wrong",
        [antiauto_with_p_weights, antiauto_without_transpose, antiauto_with_perturbed_ratio],
        ids=["p-weights", "no-transpose", "perturbed-ratio"],
    )
    def test_approx_antiauto_controls_fail_at_the_same_identities(self, monkeypatch, wrong):
        # the three wrong antiautomorphisms above fail lemma21 in approx
        # mode at the identities they fail in exact mode, in the same
        # order, each with the exact defect up to round-off
        monkeypatch.setattr(liemod, "antiauto", wrong)
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        exact, approx = suite("lemma21", k), suite("lemma21", approx_twin(k))
        assert not approx.passed
        assert [f["identity"] for f in approx.failures] == [
            f["identity"] for f in exact.failures
        ]
        for a, e in zip(approx.failures, exact.failures):
            assert float(a["defect"]) == pytest.approx(float(F(e["defect"])), rel=1e-9)

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_corrupted_conjugator_fails_located(self, monkeypatch, mode):
        # a run handed a conjugator whose inverse has entry (0, 1) moved
        # by 1/7, past the inverse check: every conjugated Cartan element
        # misses its closed form and is moved by a, two mirrors and two
        # bracket recoveries fail, and so do the transports of the four
        # dual units that the moved entry reaches
        real = liemod.conjugator

        def corrupted(k, tol):
            conj = real(k, tol)
            inv = [list(row) for row in conj.rhat_inv]
            inv[0][1] += F(1, 7)
            return liemod.Conjugator(conj.rhat, linalg.freeze(inv))

        monkeypatch.setattr(liemod, "conjugator", corrupted)
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        lemma21, lemma22 = verify.run_suites(
            ["lemma21", "lemma22"], k if mode == "exact" else approx_twin(k), None
        )
        want21 = [
            ("a(dual_phi_0) = dual_phi_0", "80/1323"),
            ("a(dual_phi_1) = dual_phi_1", "40/1323"),
            ("a(dual_phi_2) = dual_phi_2", "40/1323"),
            ("a(dual_e_01) = (p_1/p_0) dual_e_10", "5/14"),
            ("a(dual_e_02) = (p_2/p_0) dual_e_20", "20/49"),
            ("a(dual_e_10) = (p_0/p_1) dual_e_01", "5/98"),
            ("a(dual_e_20) = (p_0/p_2) dual_e_02", "5/98"),
        ]
        want22 = [
            ("dual_phi_0 closed form", "80/1323"),
            ("dual_phi_1 closed form", "40/1323"),
            ("dual_phi_2 closed form", "40/1323"),
            ("phi_1 mirror closed form", "5/147"),
            ("phi_2 mirror closed form", "80/1323"),
            ("bracket recovery of e_01", "2/21"),
            ("bracket recovery of e_21", "2/21"),
        ]
        for rep, want in ((lemma21, want21), (lemma22, want22)):
            assert not rep.passed
            assert [f["identity"] for f in rep.failures] == [tag for tag, _ in want]
            for f, (_, defect) in zip(rep.failures, want):
                if mode == "exact":
                    assert f["defect"] == defect
                else:
                    assert float(f["defect"]) == pytest.approx(float(F(defect)), rel=1e-9)

    def test_generation_suite_checks_every_closed_form(self):
        # scaling row 1 of u by 2 and p_1 by 1/4 keeps nu P u Pt u^t = I
        # and every conjugated phi_i, but breaks the closed form of the
        # conjugated phi_1 only, which lemma22 must name
        k = milch2()
        u = [list(row) for row in k.u]
        u[1] = [2 * x for x in u[1]]
        p = list(k.p)
        p[1] /= 4
        bad = kappa.ParameterSet(k.d, k.nu, tuple(p), k.pt, linalg.freeze(u))
        rep = suite("lemma22", bad)
        assert not rep.passed
        assert [f["identity"] for f in rep.failures] == ["dual_phi_1 closed form"]


class TestPolynomials:
    def test_sym_power_hand_lines(self):
        # the forms are the columns of R, and a line of Sym^N(R) is the
        # product lam picks, read alone: (y0 + y1)(y0 + y1)
        points = list(enumerate_lattice(1, 2))
        assert liemod.expansion_matrix(((1, 1), (1, 1)), points, (1, 1)) == ([1, 2, 1], 1)
        # (y0 - y1)(y0 + y1): the y0 y1 term cancels to 0
        assert liemod.expansion_matrix(((1, 1), (-1, 1)), points, (1, 1)) == ([1, 0, -1], 1)
        # (y0 + 2 y1)^2 (y0/2 + 3 y2)^2: the second form is scaled to
        # (y0 + 6 y2)/2, so the coefficients are ints over D = 2^2
        R = ((1, F(1, 2), 0), (2, 0, 0), (0, 3, 0))
        points = list(enumerate_lattice(2, 4))
        line, D = liemod.expansion_matrix(R, points, (2, 2, 0))
        assert D == 4 and all(type(c) is int for c in line)
        assert line[points.index((4, 0, 0))] == 1 and line[points.index((0, 2, 2))] == 36 * D
        lines, D_all = liemod.expansion_matrix(R, points)
        assert [F(c, D_all) for c in lines[points.index((2, 2, 0))]] == [F(c, D) for c in line]

    def test_act_moves_one_unit(self):
        out = liemod.act(liemod.basis_e(2, 1, 0), {(2, 0, 0): 1})
        assert out == {(1, 1, 0): 2}
        # annihilates when the source exponent is zero
        out = liemod.act(liemod.basis_e(2, 0, 2), {(2, 0, 0): 1})
        assert out == {}

    def test_act_diagonal(self):
        out = liemod.act(liemod.basis_phi(1, 1), {(1, 2): 1})
        assert out == {(1, 2): 2 - F(3, 2)}

    def test_act_is_representation(self):
        # acting by a commutator equals the commutator of the actions
        rng = random.Random(7)
        pts = list(enumerate_lattice(2, 3))
        for _ in range(50):
            a = tuple(
                tuple(F(rng.randint(-3, 3)) for _ in range(3)) for _ in range(3)
            )
            b = tuple(
                tuple(F(rng.randint(-3, 3)) for _ in range(3)) for _ in range(3)
            )
            f = {rng.choice(pts): 1}
            lhs = liemod.act(linalg.mat_sub(linalg.product(a, b), linalg.product(b, a)), f)
            ab = liemod.act(a, liemod.act(b, f))
            ba = liemod.act(b, liemod.act(a, f))
            rhs = {lam: ab.get(lam, 0) - ba.get(lam, 0) for lam in ab | ba.keys()}
            assert lhs == {lam: c for lam, c in rhs.items() if c != 0}


class TestSubstitutedBasis:
    def test_hand_expansion(self):
        k = classical()
        xt = liemod.xtilde_monomial(liemod.conjugator(k, 0), (1, 1))
        assert xt == {(2, 0): F(1, 4), (0, 2): F(-1, 4)}

    def test_weight_property(self):
        # substituted monomials are joint eigenvectors of the conjugated
        # Cartan elements, eigenvalue lam_i - N/(d+1)
        k = milch2()
        N = 3
        conj = liemod.conjugator(k, 0)
        for lam in enumerate_lattice(2, N):
            xt = liemod.xtilde_monomial(conj, lam)
            for i in range(3):
                moved = liemod.act(conjugated(k, liemod.basis_phi(2, i)), xt)
                ev = lam[i] - F(N, 3)
                want = {mu: ev * c for mu, c in xt.items() if ev != 0}
                assert moved == want


class TestBilinearForm:
    def test_hand_norms(self):
        # the form is diagonal on monomials: <x^11, x^11> is a weight, and
        # <xt^20, xt^20> the Gram of xt^20's coefficients under them
        k = classical()
        weights, scaled = liemod._form_weights(k, 2)
        assert weights[(1, 1)] == 16
        xt20 = liemod.xtilde_monomial(liemod.conjugator(k, 0), (2, 0))
        line, D = clear_denominators([xt20.get(n, 0) for n in weights])
        assert list(gram_misses([line], [D], scaled, [8], [8], 0)) == []
        assert list(gram_misses([line], [D], scaled, [7], [7], 0)) == [(0, 0, 8, 7, 0)]

    @pytest.mark.parametrize("k", FAMILIES)
    def test_dual_norms_check(self, k):
        rep = suite("norms", k, 2)
        assert rep.passed and rep.failures == []

    @pytest.mark.parametrize(
        "k",
        [
            kappa.family_hoare_rahman(1, 2, 3, 4),
            kappa.family_milch([F(1, 2), F(1, 4), F(1, 8), F(1, 8)]),
        ],
        ids=["hr1234", "milch"],
    )
    def test_norms_detect_a_moved_entry_of_x(self, k):
        # one entry of one row of X moved by 1: the Gram half fails at that
        # row's diagonal pair and at no pair that avoids the row
        N = 2
        points = list(enumerate_lattice(k.d, N))
        lines, D = liemod.expansion_matrix(liemod.conjugator(k, 0).rhat, points)
        for row in (0, len(points) // 2, len(points) - 1):
            lam = points[row]
            j = next(j for j, x in enumerate(lines[row]) if x)
            bad = [list(line) for line in lines]
            bad[row][j] += D
            rep = liemod.check_dual_norms(k, N, X=(bad, D), moves=liemod.move_table(k.d, N))
            assert not rep.passed
            pairs = [f["pair"] for f in rep.failures]
            assert [list(lam), list(lam)] in pairs
            assert all(list(lam) in pair for pair in pairs)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 9), st.integers(0, 9), st.integers(-5, 5).filter(bool))
    def test_norms_gram_equals_a_fraction_gram(self, row, column, offset):
        # one entry of X moved by offset / D, where it may be 0: the
        # records of norms are those of a plain Fraction Gram of X's rows
        # under the form's weights n! nu^N / pt^n, against the norms
        # n! / p^n, in the same order; the contravariance half adds none
        k, N = kappa.family_hoare_rahman(1, 2, 3, 4), 3
        points = list(enumerate_lattice(k.d, N))
        lines, D = liemod.expansion_matrix(liemod.conjugator(k, 0).rhat, points)
        bad = [list(line) for line in lines]
        bad[row][column] += offset
        rep = liemod.check_dual_norms(k, N, X=(bad, D), moves=liemod.move_table(k.d, N))
        weights = [multi_factorial(m) * F(k.nu) ** N / power_product(k.pt, m) for m in points]
        lines = [[F(x, D) for x in line] for line in bad]
        want = []
        for a, line_a in zip(points, lines):
            for b, line_b in zip(points, lines):
                g = sum(x * y * w for x, y, w in zip(line_a, line_b, weights))
                norm = multi_factorial(a) / power_product(k.p, a) if a == b else 0
                if g != norm:
                    want.append({"pair": [list(a), list(b)], "got": str(g), "want": str(norm)})
        assert want and rep.failures == want

    def test_approx_dual_norms_detect_perturbed_pt(self):
        # one pt entry off by 8e-11 of itself, built past validation; the
        # conjugator's absolute 1e-10 check lets it through, but the
        # degree-6 norms carry the defect about three times over, above
        # the relative tolerance that round-off (near 1e-15) stays below
        k = kappa.from_json_dict(
            kappa.to_json_dict(kappa.family_hoare_rahman(1, 2, 3, 4)),
            "approx",
            1e-10,
        )
        assert suite("norms", k, 6, 1e-10).passed
        pt = list(k.pt)
        pt[1] *= 1 + 8e-11
        bad = kappa.ParameterSet(k.d, k.nu, k.p, tuple(pt), k.u)
        rep = suite("norms", bad, 6, 1e-10)
        assert not rep.passed

    @pytest.mark.parametrize("k", FAMILIES)
    def test_adjoint_check(self, k):
        # <b.f, g> = <f, a(b).g> densely, over every pair of monomials: the
        # reference for the sparse comparison the norms suite makes
        N = 2
        d = k.d
        points = list(enumerate_lattice(d, N))
        weights, _ = liemod._form_weights(k, N)

        def form(f, g):
            shared = f.keys() & g.keys()
            return sum(f[lam] * g[lam] * weights[lam] for lam in shared)

        elements = [liemod.basis_phi(d, i) for i in range(d + 1)]
        elements += [
            liemod.basis_e(d, i, j)
            for i in range(d + 1)
            for j in range(d + 1)
            if i != j
        ]
        for beta in elements:
            adj = liemod.antiauto(k, beta)
            for n in points:
                f = {n: 1}
                for m in points:
                    g = {m: 1}
                    assert form(liemod.act(beta, f), g) == form(f, liemod.act(adj, g))
        assert suite("norms", k, N).passed

    def test_norms_detect_antiauto_without_transpose(self, monkeypatch):
        # a(b) = Pt b Pt^-1 breaks <b.f, g> = <f, a(b).g>; the records are
        # pinned from the dense check over all L^2 pairs, which the sparse
        # comparison must reproduce in (element, n, m) order
        monkeypatch.setattr(liemod, "antiauto", antiauto_without_transpose)
        rep = suite("norms", kappa.family_hoare_rahman(1, 2, 3, 4), 2)
        assert not rep.passed
        assert rep.details == {"pairs": 36}
        with open(ADJOINT_FIXTURE) as fh:
            assert rep.failures == json.load(fh)


class TestPairingRoute:
    @pytest.mark.parametrize(
        "k,N",
        [
            (kappa.griffiths_from_p([F(1, 2), F(1, 2)]), 4),
            (kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)]), 3),
            (kappa.family_ds(F(2), 2), 2),
        ],
        ids=["classical-d1", "milch-d2", "ds-d2"],
    )
    def test_matches_kernel_sum(self, k, N):
        conj = liemod.conjugator(k, 0)
        for n in enumerate_lattice(k.d, N):
            for nt in enumerate_lattice(k.d, N):
                via_pairing = liemod.pairing_eval(k, N, n, nt, conj)
                via_series = hyperg.eval_hypergeometric(k, N, n[1:], nt[1:])
                assert via_pairing == via_series

    def test_weight_is_the_per_entry_factor(self):
        # P(n', nt') = coeff_n(xt^nt) n!/(pt^n N!), the weight depending
        # on n only; the same value as the one-expression form
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        N = 3
        conj = liemod.conjugator(k, 0)
        for n in enumerate_lattice(k.d, N):
            w = liemod.pairing_weight(k, N, n)
            assert w == F(multi_factorial(n)) / (power_product(k.pt, n) * 6)
            for nt in enumerate_lattice(k.d, N):
                c = liemod.xtilde_monomial(conj, nt).get(n, 0)
                assert liemod.pairing_eval(k, N, n, nt, conj) == c * w

    def test_weights_keep_the_data_type_at_N_0(self):
        # at N = 0 the power product is the empty product, the int 1: the
        # weights of an approx set are still floats, not Fraction(1), which
        # a test on types would take for exact data, and an exact set's
        # are Fractions
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        a = approx_twin(k)
        zero = (0, 0, 0)
        weights = [
            liemod.pairing_weight(a, 0, zero),
            weight_over_factorial(a.p, zero),
            multinomial_weights(a.integer_view[3], 0, [zero])[0][0],
        ]
        assert weights == [1, 1, 1]
        assert [type(w) for w in weights] == [float] * 3
        weights = [liemod.pairing_weight(k, 0, zero), weight_over_factorial(k.p, zero)]
        assert weights == [1, 1]
        assert [type(w) for w in weights] == [F] * 2
        # the float branch at N >= 1 is the plain float arithmetic
        n = (1, 2, 0)
        assert liemod.pairing_weight(a, 3, n) == 2 / (a.pt[0] * a.pt[1] ** 2 * 6)
        assert weight_over_factorial(a.p, n) == a.p[0] * a.p[1] ** 2 / 2

    def test_degree_guard(self):
        k = classical()
        with pytest.raises(DegreeMismatchError):
            liemod.pairing_eval(k, 3, (1, 1), (2, 1), liemod.conjugator(k, 0))


class TestLatticeChecks:
    @pytest.mark.parametrize("k", FAMILIES)
    def test_adjacency(self, k):
        rep = suite("adjacency", k, 2)
        assert rep.passed and rep.failures == []

    @pytest.mark.parametrize("k", FAMILIES)
    def test_transition(self, k):
        rep = suite("transition", k, 2)
        assert rep.passed and rep.failures == []

    @pytest.mark.parametrize("k", FAMILIES)
    def test_intertwining_against_inverse_expansion(self, k):
        # the independent reference for the plain half: phi_i.xt^lam read
        # in the substituted basis through Y, the inverse expansion, is
        # the mirror's action on x^lam, coefficient by coefficient
        conj = liemod.conjugator(k, 0)
        for N in range(1, 4):
            points = list(enumerate_lattice(k.d, N))
            index = {n: j for j, n in enumerate(points)}
            Y, Dy = liemod.to_dual_coords(conj, points)
            for lam in points:
                xt = liemod.xtilde_monomial(conj, lam)
                for i in range(1, k.d + 1):
                    moved = liemod.act(liemod.basis_phi(k.d, i), xt)
                    got = {}
                    for j, mu in enumerate(points):
                        x = sum(c * Y[index[n]][j] for n, c in moved.items())
                        if x != 0:
                            got[mu] = F(x) / Dy
                    mirror = liemod.mirror_closed_form(k, i)
                    want = liemod.act(mirror, {lam: 1})
                    assert got == want

    def test_adjacency_detects_row_scaled_set(self):
        # u row 1 times 2 and p_1 / 4 keeps nu P U Pt U^t = I, so the
        # conjugator accepts it, but the closed form of the conjugated
        # phi_1 no longer fixes the substituted monomials
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        u = [list(row) for row in k.u]
        u[1] = [2 * x for x in u[1]]
        p = list(k.p)
        p[1] /= 4
        bad = kappa.ParameterSet(k.d, k.nu, tuple(p), k.pt, linalg.freeze(u))
        rep = suite("adjacency", bad, 2)
        assert not rep.passed
        points = [list(lam) for lam in enumerate_lattice(k.d, 2)]
        assert rep.failures == [
            {"side": "dual-on-plain", "i": 1, "at": lam} for lam in points
        ]

    def test_adjacency_locates_one_corrupted_entry(self):
        # X[lam][n] one off at lam = (1,1,0): the eigen side fails at lam
        # alone, for each i, and the recurrence side at lam and at every
        # point whose d^2+d+1 recurrence terms read row lam, its neighbours
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        N = 2
        points = list(enumerate_lattice(k.d, N))
        lines, D = liemod.expansion_matrix(liemod.conjugator(k, 0).rhat, points)
        lines[points.index((1, 1, 0))][points.index((2, 0, 0))] += 1
        gens = bispec.generators(k, N, liemod.closed_forms(k), liemod.move_table(k.d, N))
        rep = liemod.check_adjacency(k, N, X=(lines, D), gens=gens)
        assert not rep.passed
        plain = [[2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1]]
        want = []
        for i in (1, 2):
            for lam in plain:
                want.append({"side": "plain-on-substituted", "i": i, "at": lam})
                if lam == [1, 1, 0]:
                    want.append({"side": "dual-on-plain", "i": i, "at": lam})
        assert rep.failures == want

    def test_adjacency_detects_denormalized_set(self):
        # the set of test_conjugation_check_detects_denormalized_set: plain
        # phi_1 is no longer its mirror's action over the substituted basis
        k = classical()
        bad = kappa.ParameterSet(
            k.d,
            k.nu,
            k.p,
            tuple(x / 4 for x in k.pt),
            tuple(tuple(2 * x for x in row) for row in k.u),
        )
        rep = suite("adjacency", bad, 2)
        assert not rep.passed
        assert rep.failures == [
            {"side": "plain-on-substituted", "i": 1, "at": [2, 0]},
            {"side": "plain-on-substituted", "i": 1, "at": [0, 2]},
        ]
