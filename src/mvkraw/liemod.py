"""Traceless-matrix machinery and the degree-N polynomial module.

Two commuting pictures of sl_{d+1} drive everything here.  The plain
picture uses the diagonal Cartan elements phi_i = e_ii - I/(d+1) and
matrix units e_ij; the dual picture conjugates them by the matrix
R = Pt U^t (whose inverse is nu P U, a restatement of the defining
identity of the parameter set).  `closed_form` writes the conjugated
phi_i over the plain basis once; with p and pt swapped and u transposed
it writes plain phi_i over the conjugated basis, the matrix whose
derivation action is the i-th difference operator of `bispec`.  The
lemma22 suite checks both closed forms against honest conjugation.  The
antiautomorphism a(b) = Pt b^t Pt^{-1} fixes both Cartan bases and
transports matrix units with explicit weight ratios (the lemma21 suite).

Matrices act on homogeneous polynomials in x_0..x_d as derivations:
e_ij sends x^lam to lam_j x^(lam+v_i-v_j).  The substituted variables
xt = x R carry the dual weight basis, and the module suites are
identities of the expansion matrix X[lam][n] = coeff_n(xt^lam): the d
recurrences as intertwinings (adjacency); orthogonality of the xt^lam
for a form diagonal on plain monomials with weight nu^N n!/pt^n, and
the form's contravariance <b.f, g> = <f, a(b).g> (norms); both basis
transitions against the table (transition).  The pairing <x^n, xt^nt>
recovers P(n', nt') up to an explicit constant and serves as the third
evaluation route.  Substituting y_j = pt_j x_j turns xt^nt into the
generating function of `hyperg.generating_column`, so both routes
expand through the one core `numeric.expand_forms`, as does the inverse
substitution of `to_dual_coords`.  The module suites read X as one
`expansion_matrix`, made once per run from the run's one conjugator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import hyperg, linalg
from .kappa import ParameterSet, tol_for
from .numeric import (
    DegreeMismatchError,
    MultiIndex,
    Scalar,
    clear_denominators,
    enumerate_lattice,
    exactify,
    expand_forms,
    format_scalar,
    gram,
    multi_factorial,
    power_product,
    scalars_equal,
    weight_over_factorial,
)
from .report import CheckReport

Matrix = tuple


def basis_e(d: int, i: int, j: int) -> Matrix:
    """The matrix unit e_ij, i != j (off-diagonal sl element)."""
    if not (0 <= i <= d and 0 <= j <= d):
        raise IndexError(f"indices ({i},{j}) out of range for d = {d}")
    if i == j:
        raise IndexError("matrix units here are off-diagonal only; use basis_phi")
    return tuple(
        tuple(1 if (r, c) == (i, j) else 0 for c in range(d + 1))
        for r in range(d + 1)
    )


def basis_phi(d: int, i: int) -> Matrix:
    """The traceless diagonal element e_ii - I/(d+1); index 0 allowed
    (it equals minus the sum of the others)."""
    if not 0 <= i <= d:
        raise IndexError(f"index {i} out of range for d = {d}")
    shift = Fraction(1, d + 1)
    return tuple(
        tuple((1 if r == i else 0) - shift if r == c else 0 for c in range(d + 1))
        for r in range(d + 1)
    )


@dataclass(frozen=True)
class Conjugator:
    """The change-of-basis matrix and its inverse, fixed to the scaling
    in which rhat = Pt U^t and rhat_inv = nu P U (both rational)."""

    rhat: Matrix
    rhat_inv: Matrix


def conjugator(kappa: ParameterSet, tol: Scalar) -> Conjugator:
    """The conjugator of kappa, its inverse checked at `tol_for(kappa, tol)`."""
    rhat = linalg.mat_mul(linalg.diagonal(kappa.pt), linalg.transpose(kappa.u))
    rhat_inv = linalg.mat_scale(
        exactify(kappa.nu), linalg.mat_mul(linalg.diagonal(kappa.p), kappa.u)
    )
    tol = tol_for(kappa, tol)
    if not linalg.mats_equal(
        linalg.mat_mul(rhat, rhat_inv), linalg.identity(kappa.d + 1), tol
    ):
        raise AssertionError("conjugator inverse failed; parameter set corrupt")
    return Conjugator(rhat, rhat_inv)


def _conjugate(conj: Conjugator, beta: Matrix) -> Matrix:
    return linalg.mat_mul(linalg.mat_mul(conj.rhat, beta), conj.rhat_inv)


def closed_form(nu: Scalar, p: tuple, pt: tuple, u: Matrix, i: int) -> Matrix:
    """The conjugated phi_i of the set (nu, p, pt, u), expanded over
    {e_kl, phi_j}: e_kl (k != l) with nu p_i pt_k u_ik u_il, phi_j
    (j >= 1) with p_i (nu pt_j u_ij^2 - 1).  With p and pt swapped and u
    transposed it is the mirror, plain phi_i over the conjugated basis
    (`mirror_closed_form`).  The data are not re-validated."""
    d = len(p) - 1
    nu = exactify(nu)
    shift = Fraction(1, d + 1)
    if i == 0:
        # every column is the pt vector, then the trace correction
        return tuple(
            tuple(pt[r] - (shift if r == c else 0) for c in range(d + 1))
            for r in range(d + 1)
        )
    out = [[0] * (d + 1) for _ in range(d + 1)]
    for k in range(d + 1):
        for l in range(d + 1):
            if k != l:
                out[k][l] = nu * p[i] * pt[k] * u[i][k] * u[i][l]
    for j in range(1, d + 1):
        c = p[i] * (nu * pt[j] * u[i][j] ** 2 - 1)
        for r in range(d + 1):
            out[r][r] -= c * shift
        out[j][j] += c
    return linalg.freeze(out)


def mirror_closed_form(kappa: ParameterSet, i: int) -> Matrix:
    """Plain phi_i as the matrix of its coefficients over the conjugated
    basis {R e_kl R^-1, R phi_j R^-1}: the closed form of the involuted
    set, read off kappa without validating it."""
    return closed_form(kappa.nu, kappa.pt, kappa.p, linalg.transpose(kappa.u), i)


def antiauto(kappa: ParameterSet, beta: Matrix) -> Matrix:
    """a(b) = Pt b^t Pt^{-1}; with Pt diagonal this is an entrywise
    weight-ratio transpose."""
    pt = kappa.pt
    n = kappa.d + 1
    return tuple(
        tuple(exactify(pt[r]) * beta[c][r] / pt[c] for c in range(n))
        for r in range(n)
    )


def _expect(failures: list, tol: Scalar, tag: str, got: Matrix, want: Matrix) -> None:
    """Record the matrix identity got = want under `tag` when it fails
    beyond tol, with its largest entrywise defect."""
    if not linalg.mats_equal(got, want, tol):
        failures.append(
            {"identity": tag, "defect": format_scalar(linalg.max_defect(got, want))}
        )


def check_lemma21(
    kappa: ParameterSet, tol: Scalar = 0, *, conj: Conjugator
) -> CheckReport:
    """The antiautomorphism suite: fixed points, transport of matrix
    units with weight ratios, involutivity, and product reversal on a
    seeded random sample."""
    d = kappa.d
    tol = tol_for(kappa, tol)
    failures = []

    for i in range(d + 1):
        phi = basis_phi(d, i)
        _expect(failures, tol, f"a(phi_{i}) = phi_{i}", antiauto(kappa, phi), phi)
        dphi = _conjugate(conj, phi)
        tag = f"a(dual_phi_{i}) = dual_phi_{i}"
        _expect(failures, tol, tag, antiauto(kappa, dphi), dphi)
    units = {
        (i, j): basis_e(d, i, j) for i in range(d + 1) for j in range(d + 1) if i != j
    }
    duals = {ij: _conjugate(conj, e) for ij, e in units.items()}
    for (i, j), e in units.items():
        image = antiauto(kappa, e)
        _expect(
            failures,
            tol,
            f"a(e_{i}{j}) = (pt_{j}/pt_{i}) e_{j}{i}",
            image,
            linalg.mat_scale(exactify(kappa.pt[j]) / kappa.pt[i], units[j, i]),
        )
        _expect(
            failures,
            tol,
            f"a(dual_e_{i}{j}) = (p_{j}/p_{i}) dual_e_{j}{i}",
            antiauto(kappa, duals[i, j]),
            linalg.mat_scale(exactify(kappa.p[j]) / kappa.p[i], duals[j, i]),
        )
        _expect(failures, tol, f"a(a(e_{i}{j})) = e_{i}{j}", antiauto(kappa, image), e)

    rng = random.Random(0)

    def rand_matrix() -> Matrix:
        return tuple(
            tuple(rng.randint(-3, 3) for _ in range(d + 1))
            for _ in range(d + 1)
        )

    for t in range(20):
        a, b = rand_matrix(), rand_matrix()
        _expect(
            failures,
            tol,
            f"a(AB) = a(B)a(A) [sample {t}]",
            antiauto(kappa, linalg.mat_mul(a, b)),
            linalg.mat_mul(antiauto(kappa, b), antiauto(kappa, a)),
        )
        tag = f"a(a(A)) = A [sample {t}]"
        _expect(failures, tol, tag, antiauto(kappa, antiauto(kappa, a)), a)

    return CheckReport("lemma21", not failures, failures, {"samples": 20})


def check_generation(
    kappa: ParameterSet, tol: Scalar = 0, *, conj: Conjugator
) -> CheckReport:
    """Bracket-generation suite: the conjugated phi_0 against minus the
    sum of the others, both closed forms (every conjugated phi_i over
    the plain basis, and every plain phi_i, i >= 1, as the conjugation
    of its mirror), and the triple-commutator identity producing every
    matrix unit from the plain Cartan elements and the single dual
    phi_0."""
    d = kappa.d
    tol = tol_for(kappa, tol)
    failures = []

    dphis = [_conjugate(conj, basis_phi(d, i)) for i in range(d + 1)]
    minus_sum = dphis[1]
    for t in dphis[2:]:
        minus_sum = linalg.mat_add(minus_sum, t)
    _expect(
        failures,
        tol,
        "dual_phi_0 = -sum dual_phi_j",
        dphis[0],
        linalg.mat_scale(-1, minus_sum),
    )
    for i, dphi in enumerate(dphis):
        _expect(
            failures,
            tol,
            f"dual_phi_{i} closed form",
            dphi,
            closed_form(kappa.nu, kappa.p, kappa.pt, kappa.u, i),
        )
    for i in range(1, d + 1):
        _expect(
            failures,
            tol,
            f"phi_{i} mirror closed form",
            _conjugate(conj, mirror_closed_form(kappa, i)),
            basis_phi(d, i),
        )

    for i in range(d + 1):
        for j in range(d + 1):
            if i == j:
                continue
            inner = linalg.commutator(basis_phi(d, j), dphis[0])
            middle = linalg.commutator(basis_phi(d, i), inner)
            outer = linalg.commutator(basis_phi(d, j), middle)
            _expect(
                failures,
                tol,
                f"bracket recovery of e_{i}{j}",
                linalg.mat_scale(
                    1 / (2 * exactify(kappa.pt[i])), linalg.mat_sub(outer, middle)
                ),
                basis_e(d, i, j),
            )

    return CheckReport("lemma22", not failures, failures, {})


# ---------------------------------------------------------------------------
# the polynomial module


@dataclass(frozen=True)
class HomogPoly:
    """Homogeneous polynomial of fixed total degree, sparse over the
    monomial basis; zero coefficients are never stored."""

    degree: int
    coeffs: dict


def _poly(degree: int, coeffs: dict) -> HomogPoly:
    return HomogPoly(degree, {lam: c for lam, c in coeffs.items() if c != 0})


def monomial(lam: MultiIndex, coeff: Scalar = 1) -> HomogPoly:
    lam = tuple(lam)
    return _poly(sum(lam), {lam: coeff})


def polys_equal(f: HomogPoly, g: HomogPoly, tol: Scalar = 0) -> bool:
    if tol == 0:
        return f.degree == g.degree and f.coeffs == g.coeffs
    keys = set(f.coeffs) | set(g.coeffs)
    return f.degree == g.degree and all(
        scalars_equal(f.coeffs.get(k, 0), g.coeffs.get(k, 0), tol) for k in keys
    )


def act(beta: Matrix, f: HomogPoly) -> HomogPoly:
    """Derivation action: e_ij contributes lam_j x^(lam+v_i-v_j), the
    diagonal contributes sum_k beta_kk lam_k on the spot."""
    out: dict = {}
    n = len(beta)
    for lam, c in f.coeffs.items():
        diag = sum(beta[k][k] * lam[k] for k in range(n) if lam[k])
        if diag != 0:
            out[lam] = out.get(lam, 0) + c * diag
        for l in range(n):
            if lam[l] == 0:
                continue
            for k in range(n):
                if k == l or beta[k][l] == 0:
                    continue
                mu = list(lam)
                mu[l] -= 1
                mu[k] += 1
                mu = tuple(mu)
                out[mu] = out.get(mu, 0) + c * beta[k][l] * lam[l]
    return _poly(f.degree, out)


def _add_scaled(acc: dict, coeffs: dict, c: Scalar) -> None:
    """acc += c * coeffs, in place; zeros are left for `_poly` to drop."""
    for lam, v in coeffs.items():
        acc[lam] = acc.get(lam, 0) + c * v


def xtilde_monomial(conj: Conjugator, lam: MultiIndex) -> HomogPoly:
    """The substituted monomial xt^lam = prod_k (sum_j x_j rhat[j][k])^lam_k
    expanded over plain monomials."""
    lam = tuple(lam)
    return HomogPoly(sum(lam), expand_forms(tuple(zip(*conj.rhat)), lam))


def expansion_matrix(conj: Conjugator, points) -> dict:
    """X[lam][n] = coeff_n(xt^lam) for every lam of `points`, in their
    order, as {lam: {n: coefficient}} with zeros left out: one
    expansion per point."""
    return {lam: xtilde_monomial(conj, lam).coeffs for lam in points}


def to_dual_coords(conj: Conjugator, f: HomogPoly) -> HomogPoly:
    """Coefficients of f over the substituted basis: apply the inverse
    substitution x = xt rhat_inv and collect."""
    forms = tuple(zip(*conj.rhat_inv))
    out: dict = {}
    for lam, c in f.coeffs.items():
        _add_scaled(out, expand_forms(forms, lam), c)
    return _poly(f.degree, out)


def pairing_weight(kappa: ParameterSet, N: int, n: MultiIndex) -> Scalar:
    """n!/(pt^n N!), which turns coeff_n(xt^nt) into P(n', nt') for
    every nt: a full-grid sweep computes it once per n.  The one place
    the form's weight n!/pt^n is written."""
    return exactify(multi_factorial(n)) / (
        exactify(power_product(kappa.pt, n)) * math.factorial(N)
    )


def _form_weights(kappa: ParameterSet, N: int) -> dict:
    """The form's diagonal {n: <x^n, x^n> = n! nu^N / pt^n} over the
    degree-N lattice; the form is diagonal on monomials, so this is all
    of it."""
    scale = exactify(kappa.nu) ** N * math.factorial(N)
    return {
        lam: scale * pairing_weight(kappa, N, lam)
        for lam in enumerate_lattice(kappa.d, N)
    }


def pairing_eval(
    kappa: ParameterSet,
    N: int,
    n: MultiIndex,
    nt: MultiIndex,
    conj: Conjugator,
) -> Scalar:
    """P(n', nt') = <x^n, xt^nt> / (nu^N N!); the nu^N cancels against
    the form's weight, leaving coeff_n(xt^nt) times `pairing_weight`.
    The reduced indices n[1:] and nt[1:] are refused as the other
    routes refuse them (`hyperg.check_degree_vector`), then the degrees.
    """
    n, nt = tuple(n), tuple(nt)
    hyperg.check_degree_vector(kappa.d, N, n[1:], "m")
    hyperg.check_degree_vector(kappa.d, N, nt[1:], "mt")
    if sum(n) != N or sum(nt) != N:
        raise DegreeMismatchError(f"|{n}| or |{nt}| differs from N = {N}")
    c = xtilde_monomial(conj, nt).coeffs.get(n, 0)
    return c * pairing_weight(kappa, N, n)


def check_dual_norms(
    kappa: ParameterSet, N: int, tol: Scalar = 0, *, X: dict
) -> CheckReport:
    """Two facts about the form.  The substituted monomials are
    orthogonal for it, with norms n!/p^n (no nu power): the Gram of the
    rows of X[lam][n] = coeff_n(xt^lam) under the form's weights, summed
    on integers (`numeric.gram`).  The norms grow like N!/min|p|^N, so
    the tolerance of a pair is tol times the larger of its two norms.
    And the form is contravariant for the antiautomorphism
    (`_adjoint_failures`)."""
    points = tuple(enumerate_lattice(kappa.d, N))
    weights = _form_weights(kappa, N)
    rows = [[X[lam].get(n, 0) for n in points] for lam in points]
    grams = gram(rows, list(weights.values()))
    norms = [1 / weight_over_factorial(kappa.p, lam) for lam in points]
    failures = []
    for a, n in enumerate(points):
        for b, m in enumerate(points):
            got = grams[a][b]
            want = norms[a] if a == b else 0
            scale = max(abs(norms[a]), abs(norms[b]))
            if not scalars_equal(got, want, tol * scale):
                failures.append(
                    {
                        "pair": [list(n), list(m)],
                        "got": format_scalar(got),
                        "want": format_scalar(want),
                    }
                )
    failures += _adjoint_failures(kappa, N, tol, points, weights)
    return CheckReport(
        "norms", not failures, failures, {"pairs": len(points) ** 2}
    )


def _adjoint_failures(
    kappa: ParameterSet, N: int, tol: Scalar, points: tuple, weights: dict
) -> list:
    """<b.x^n, x^m> = <x^n, a(b).x^m> for b over {phi_i} and {e_ij}, in
    (b, n, m) order.  The form is diagonal on monomials, so a pair where
    neither side has x^m in b.x^n nor x^n in a(b).x^m reads 0 = 0 and is
    skipped.  Approx mode compares within tol N max(1, w(n), w(m)), w
    the form's weights, which bounds every term of either side."""
    d = kappa.d
    elements = [(f"phi_{i}", basis_phi(d, i)) for i in range(d + 1)]
    elements += [
        (f"e_{i}{j}", basis_e(d, i, j))
        for i in range(d + 1)
        for j in range(d + 1)
        if i != j
    ]
    order = {lam: k for k, lam in enumerate(points)}
    failures = []
    for tag, beta in elements:
        adj = antiauto(kappa, beta)
        into = {n: {} for n in points}  # into[n][m]: coefficient of x^n in a(b).x^m
        for m in points:
            for n, c in act(adj, monomial(m)).coeffs.items():
                into[n][m] = c
        for n in points:
            out = act(beta, monomial(n)).coeffs
            for m in sorted(out.keys() | into[n].keys(), key=order.__getitem__):
                lhs = out.get(m, 0) * weights[m]
                rhs = into[n].get(m, 0) * weights[n]
                bound = tol * N * max(1, abs(weights[n]), abs(weights[m])) if tol else 0
                if not scalars_equal(lhs, rhs, bound):
                    failures.append(
                        {
                            "element": tag,
                            "pair": [list(n), list(m)],
                            "lhs": format_scalar(lhs),
                            "rhs": format_scalar(rhs),
                        }
                    )
    return failures


def check_adjacency(
    kappa: ParameterSet, N: int, tol: Scalar = 0, *, X: dict
) -> CheckReport:
    """The d recurrences as two intertwinings of the expansion matrix
    X[lam][n] = coeff_n(xt^lam), for i = 1..d and every lam:

        plain-on-substituted   phi_i.xt^lam = sum_mu S[lam][mu] xt^mu
        dual-on-plain          dual_phi_i.xt^lam = (lam_i - N/(d+1)) xt^lam

    where sum_mu S[lam][mu] x^mu is the action of `mirror_closed_form`
    on x^lam (d^2+d+1 terms), so the first is X C_i = S_i X with C_i the
    diagonal of phi_i, and dual_phi_i is `closed_form`.  Any derivation
    action moves one unit, so the first implies that phi_i moves xt^lam
    only to itself and its adjacent lattice points.  Every coefficient
    is compared, on integers in exact mode.  Approx mode compares within
    tol times the larger of 1 and a bound of the terms of either side:
    the largest |X[mu][n]| of each row mu involved times its factor."""
    d = kappa.d
    points = tuple(enumerate_lattice(d, N))
    # both sides are linear in X and in the matrices, so X and the three
    # matrices of each i are scaled to integers once, by D and K
    ints, D = clear_denominators([c for lam in points for c in X[lam].values()])
    it = iter(ints)
    X = {lam: {n: next(it) for n in X[lam]} for lam in points}
    size = {lam: max(map(abs, f.values()), default=0) for lam, f in X.items()}
    failures = []
    for i in range(1, d + 1):
        mats = (
            basis_phi(d, i),
            mirror_closed_form(kappa, i),
            closed_form(kappa.nu, kappa.p, kappa.pt, kappa.u, i),
        )
        ints, K = clear_denominators([x for m in mats for row in m for x in row])
        it = iter(ints)
        phi, mirror, dual = (
            tuple(tuple(next(it) for _ in row) for row in m) for m in mats
        )
        dual_mass = N * sum(abs(x) for row in dual for x in row)
        for lam in points:
            f = HomogPoly(N, X[lam])
            recurrence = act(mirror, monomial(lam)).coeffs
            rhs: dict = {}
            for mu, c in recurrence.items():
                _add_scaled(rhs, X[mu], c)
            ev = K * (lam[i] - Fraction(N, d + 1))
            eigen = {n: ev * c for n, c in f.coeffs.items()}
            terms = sum(abs(c) * size[mu] for mu, c in recurrence.items())
            plain_mass = max(N * K * size[lam], terms)
            for side, got, want, mass in (
                ("plain-on-substituted", act(phi, f), rhs, plain_mass),
                ("dual-on-plain", act(dual, f), eigen, dual_mass * size[lam]),
            ):
                if not polys_equal(got, _poly(N, want), tol * max(K * D, mass)):
                    failures.append({"side": side, "i": i, "at": list(lam)})
    return CheckReport(
        "adjacency", not failures, failures, {"points": len(points)}
    )


def check_transition(
    kappa: ParameterSet,
    N: int,
    tol: Scalar = 0,
    *,
    tab: hyperg.PolynomialTable,
    conj: Conjugator,
    X: dict,
) -> CheckReport:
    """Both basis-transition expansions as exact polynomial identities:

        xt^nt        = N! sum_n P(n',nt') (pt^n/n!) x^n
        x^n / nu^N   = N! sum_nt P(n',nt') (p^nt/nt!) xt^nt

    with P read from the table, so this cross-ties the module picture to
    the series definition.  The first compares each row X[nt] of the
    expansion matrix with a column of the table; the second reads
    x^n / nu^N in the substituted basis (`to_dual_coords`, the inverse
    expansion) and compares it with a row.
    """
    points = tab.points
    pt_w = [1 / pairing_weight(kappa, N, n) for n in points]
    nfact = math.factorial(N)
    p_w = [nfact * weight_over_factorial(kappa.p, nt) for nt in points]
    failures = []

    for c, nt in enumerate(points):
        want = {n: tab.values[r][c] * pt_w[r] for r, n in enumerate(points)}
        if not polys_equal(HomogPoly(N, X[nt]), _poly(N, want), tol):
            failures.append({"expansion": "substituted-over-plain", "at": list(nt)})

    inv_nu_pow = 1 / exactify(kappa.nu) ** N
    for r, n in enumerate(points):
        want = {nt: tab.values[r][c] * p_w[c] for c, nt in enumerate(points)}
        got = to_dual_coords(conj, monomial(n, inv_nu_pow))
        if not polys_equal(got, _poly(N, want), tol):
            failures.append({"expansion": "plain-over-substituted", "at": list(n)})

    return CheckReport(
        "transition", not failures, failures, {"points": len(points)}
    )
