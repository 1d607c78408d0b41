"""Matrix pictures, the polynomial module, and the pairing route."""

import json
import os
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvkraw import hyperg, kappa, liemod, linalg, verify
from mvkraw.numeric import (
    DegreeMismatchError,
    enumerate_lattice,
    exactify,
    expand_forms,
    gram,
    multi_factorial,
    power_product,
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


def conjugated(k, beta):
    """R beta R^-1, the element of the conjugated basis that beta names."""
    conj = liemod.conjugator(k, 0)
    return linalg.mat_mul(linalg.mat_mul(conj.rhat, beta), conj.rhat_inv)


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
        assert linalg.mat_mul(conj.rhat, conj.rhat_inv) == linalg.identity(3)

    def test_expands_each_power_once_per_direction(self, monkeypatch):
        # the expansion matrix expands each xt^lam once, forward, and the
        # inverse substitution of a monomial expands it once, backward
        calls = []

        def counting(forms, exponents, caps=None):
            calls.append((forms, tuple(exponents)))
            return expand_forms(forms, exponents, caps)

        monkeypatch.setattr(liemod, "expand_forms", counting)
        k = milch2()
        points = list(enumerate_lattice(k.d, 2))
        conj = liemod.conjugator(k, 0)
        X = liemod.expansion_matrix(conj, points)
        assert list(X) == points
        for lam in points:
            assert X[lam] == expand_forms(tuple(zip(*conj.rhat)), lam)
            liemod.to_dual_coords(conj, liemod.monomial(lam))
        assert len(calls) == 2 * len(points)
        assert len(set(calls)) == len(calls)

    def test_adjacency_expands_each_power_once(self, monkeypatch):
        calls = []

        def counting(forms, exponents, caps=None):
            calls.append((forms, tuple(exponents)))
            return expand_forms(forms, exponents, caps)

        monkeypatch.setattr(liemod, "expand_forms", counting)
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        forward = tuple(zip(*liemod.conjugator(k, 0).rhat))
        assert suite("adjacency", k, 3).passed
        # the intertwinings need only the forward expansions, one per point
        assert len(set(calls)) == len(calls) == len(list(enumerate_lattice(k.d, 3)))
        assert all(forms == forward for forms, _ in calls)

    def test_one_conjugator_per_check_run(self, monkeypatch):
        # lemma21, lemma22 and transition share the run's conjugator, and
        # norms, adjacency, transition and threeway its expansion matrix,
        # so all 12 suites expand each power once: 20 distinct expansions
        # at HR N = 3, each of the 10 points once forward and, by
        # transition, once inverse
        calls = []
        conjugators = []

        def counting(forms, exponents, caps=None):
            calls.append((forms, tuple(exponents)))
            return expand_forms(forms, exponents, caps)

        def counting_conjugator(k, tol):
            conjugators.append(tol)
            return conjugator(k, tol)

        conjugator = liemod.conjugator
        monkeypatch.setattr(liemod, "expand_forms", counting)
        monkeypatch.setattr(liemod, "conjugator", counting_conjugator)
        k = kappa.family_hoare_rahman(1, 2, 3, 4)
        reports = verify.run_suites(verify.SUITES, k, 3)
        assert all(r.passed for r in reports)
        assert len(calls) == len(set(calls)) == 20
        assert conjugators == [0]

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
        assert liemod.antiauto(k, linalg.mat_mul(a, b)) == linalg.mat_mul(
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
            assert conjugated(k, phi) == liemod.closed_form(k.nu, k.p, k.pt, k.u, i)
            if i:
                assert conjugated(k, liemod.mirror_closed_form(k, i)) == phi

    @pytest.mark.parametrize("k", FAMILIES)
    def test_antiauto_suite_passes(self, k):
        rep = suite("lemma21", k)
        assert rep.passed and rep.failures == []
        assert rep.check == "lemma21"

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
    def test_monomial(self):
        f = liemod.monomial((2, 0, 1))
        assert f.degree == 3 and f.coeffs == {(2, 0, 1): 1}
        assert liemod.monomial((1, 1, 1), 3).coeffs == {(1, 1, 1): 3}
        assert liemod.monomial((1, 1, 1), 0).coeffs == {}

    def test_expand_forms(self):
        # (y0 + y1)(y0 + y1)
        sq = expand_forms([(1, 1), (1, 1)], (1, 1))
        assert sq == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
        # (y0 - y1)(y0 + y1): the cancelled y0 y1 term is dropped
        assert expand_forms([(1, -1), (1, 1)], (1, 1)) == {(2, 0): 1, (0, 2): -1}
        # (y0 + 2 y1)^2 (y0/2 + 3 y2)^2: caps prune monomials, never
        # the coefficients of those kept
        forms, exponents = [(1, 2, 0), (F(1, 2), 0, 3)], (2, 2)
        full = expand_forms(forms, exponents)
        assert full[(4, 0, 0)] == F(1, 4) and full[(0, 2, 2)] == 36
        capped = expand_forms(forms, exponents, caps=(3, 1, 4))
        assert capped == {
            key: c for key, c in full.items() if key[0] <= 3 and key[1] <= 1
        }
        assert 0 < len(capped) < len(full)

    def test_act_moves_one_unit(self):
        out = liemod.act(liemod.basis_e(2, 1, 0), liemod.monomial((2, 0, 0)))
        assert out.coeffs == {(1, 1, 0): 2}
        # annihilates when the source exponent is zero
        out = liemod.act(liemod.basis_e(2, 0, 2), liemod.monomial((2, 0, 0)))
        assert out.coeffs == {}

    def test_act_diagonal(self):
        out = liemod.act(liemod.basis_phi(1, 1), liemod.monomial((1, 2)))
        assert out.coeffs == {(1, 2): 2 - F(3, 2)}

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
            f = liemod.monomial(rng.choice(pts))
            lhs = liemod.act(linalg.commutator(a, b), f).coeffs
            ab = liemod.act(a, liemod.act(b, f)).coeffs
            ba = liemod.act(b, liemod.act(a, f)).coeffs
            rhs = {lam: ab.get(lam, 0) - ba.get(lam, 0) for lam in ab | ba.keys()}
            assert lhs == {lam: c for lam, c in rhs.items() if c != 0}


class TestSubstitutedBasis:
    def test_hand_expansion(self):
        k = classical()
        xt = liemod.xtilde_monomial(liemod.conjugator(k, 0), (1, 1))
        assert xt.coeffs == {(2, 0): F(1, 4), (0, 2): F(-1, 4)}

    def test_round_trip_through_dual_coords(self):
        conj = liemod.conjugator(milch2(), 0)
        for lam in enumerate_lattice(2, 2):
            xt = liemod.xtilde_monomial(conj, lam)
            back = liemod.to_dual_coords(conj, xt)
            assert liemod.polys_equal(back, liemod.monomial(lam))

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
                want = {mu: ev * c for mu, c in xt.coeffs.items() if ev != 0}
                assert moved.coeffs == want


class TestBilinearForm:
    def test_hand_norms(self):
        # the form is diagonal on monomials: <x^11, x^11> is a weight, and
        # <xt^20, xt^20> the Gram of xt^20's coefficients under them
        k = classical()
        weights = liemod._form_weights(k, 2)
        assert weights[(1, 1)] == 16
        xt20 = liemod.xtilde_monomial(liemod.conjugator(k, 0), (2, 0)).coeffs
        assert gram([[xt20.get(n, 0) for n in weights]], list(weights.values())) == [[8]]

    @pytest.mark.parametrize("k", FAMILIES)
    def test_dual_norms_check(self, k):
        rep = suite("norms", k, 2)
        assert rep.passed and rep.failures == []

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
        weights = liemod._form_weights(k, N)

        def form(f, g):
            shared = f.coeffs.keys() & g.coeffs.keys()
            return sum(f.coeffs[lam] * g.coeffs[lam] * weights[lam] for lam in shared)

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
                f = liemod.monomial(n)
                for m in points:
                    g = liemod.monomial(m)
                    assert form(liemod.act(beta, f), g) == form(f, liemod.act(adj, g))
        assert suite("norms", k, N).passed

    def test_norms_detect_antiauto_without_transpose(self, monkeypatch):
        # a(b) = Pt b Pt^-1 breaks <b.f, g> = <f, a(b).g>; the records are
        # pinned from the dense check over all L^2 pairs, which the sparse
        # comparison must reproduce in (element, n, m) order
        def no_transpose(k, beta):
            n = k.d + 1
            return tuple(
                tuple(exactify(k.pt[r]) * beta[r][c] / k.pt[c] for c in range(n))
                for r in range(n)
            )

        monkeypatch.setattr(liemod, "antiauto", no_transpose)
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
                c = liemod.xtilde_monomial(conj, nt).coeffs.get(n, 0)
                assert liemod.pairing_eval(k, N, n, nt, conj) == c * w

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
        # in the substituted basis through the inverse expansion is the
        # mirror's action on x^lam, coefficient by coefficient
        conj = liemod.conjugator(k, 0)
        for N in range(1, 4):
            for lam in enumerate_lattice(k.d, N):
                xt = liemod.xtilde_monomial(conj, lam)
                for i in range(1, k.d + 1):
                    moved = liemod.act(liemod.basis_phi(k.d, i), xt)
                    got = liemod.to_dual_coords(conj, moved)
                    mirror = liemod.mirror_closed_form(k, i)
                    want = liemod.act(mirror, liemod.monomial(lam))
                    assert got.coeffs == want.coeffs

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
