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
transports matrix units with explicit weight ratios pt_r/pt_c, read off
the set's integer view (`ParameterSet.integer_view`) as pt[r]/pt[c] on
its ints; a is linear, so the lemma21 suite proves it involutive and
product-reversing on the matrix units and their (d+1)^4 pairs, with no
sampled matrices.  Both suites run on integers for a set that its
integer view calls exact: the run's one conjugator keeps R and R^-1 on
integer rows (`Conjugator.scaled`), the Cartan elements are
(d+1) phi_i, each matrix is carried with its scale, and each identity
is compared by `numeric.misses`, cross-multiplied, a Fraction made only
for a miss; floats keep scale 1 and the plain products.

Matrices act on homogeneous polynomials in x_0..x_d, each a plain dict
{exponent: coefficient} with zeros left out (as `numeric.expand_forms`
returns them), as derivations: e_ij sends x^lam to lam_j
x^(lam+v_i-v_j).  On the degree-N lattice that action is one
`lattice_form`, which the difference operators of `bispec` and the
contravariance check of norms both read; the action is linear in the
matrix, so each form is read from the unit moves of the run's one
`move_table`.  The substituted variables
xt = x R carry the dual weight basis, and the change of basis
x^n <-> xt^nt on degree-N polynomials has two matrices: X = Sym^N(R),
X[lam][n] = coeff_n(xt^lam), and its inverse Y = Sym^N(R^-1),
Y[n][mu] = the coefficient of xt^mu in x^n (`to_dual_coords`).  Both
are one `expansion_matrix`, dense integer lines in layout order over one
scale, built a degree at a time and made once per run from the run's
one conjugator.  The module
suites are identities of these two: the d recurrences as intertwinings
of X (adjacency); orthogonality of the xt^lam for a form diagonal on
plain monomials with weight nu^N n!/pt^n, read off the lines of X, and
the form's contravariance <b.f, g> = <f, a(b).g> on the units e_ij
(norms); both basis transitions against the table, X against its
columns and Y against its rows (transition).  The pairing
<x^n, xt^nt> recovers P(n', nt') up to an explicit constant and serves
as the third evaluation route.  Substituting y_j = pt_j x_j turns
xt^nt into the generating function of `hyperg.generating_column`, so
for one value both routes expand through the one capped core
`numeric.expand_forms`; the checks read all values at once, from X and
from the generating matrix of the set (`generating_matrix`), another
`expansion_matrix`.  For exact data both run on ints.  Both closed forms come
as `closed_forms`, made once per run; adjacency reads the two actions
it needs from the lattice forms of the run's generators
(`bispec.generators`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import add, itemgetter, mul, sub
from typing import NamedTuple

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
    gram_misses,
    is_exact,
    misses,
    multi_factorial,
    multinomial_weights,
    power_product,
    ratio,
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

    @functools.cached_property
    def scaled(self) -> tuple:
        """((A, Da), (B, Db)) with rhat = A/Da and rhat_inv = B/Db on
        integer rows (`linalg.integer_rows`; floats keep their values
        with D = 1).  Made on first use and kept on the instance, so a
        run scales its one conjugator once."""
        return linalg.integer_rows(self.rhat), linalg.integer_rows(self.rhat_inv)

    def conjugate(self, beta: tuple) -> tuple:
        """R beta R^-1 for beta = (entries, scale), as (entries, scale):
        two plain products (`linalg.product`), on ints over the product
        of the three scales when beta is on ints; floats keep scale 1
        and the sums of the plain product."""
        (A, Da), (B, Db) = self.scaled
        entries, scale = beta
        return linalg.product(linalg.product(A, entries), B), Da * scale * Db


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


def closed_form(view: tuple, i: int) -> Matrix:
    """The conjugated phi_i of the set whose integer view is `view`
    (`ParameterSet.integer_view`), expanded over {e_kl, phi_j}: e_kl
    (k != l) with nu p_i pt_k u_ik u_il, phi_j (j >= 1) with
    p_i (nu pt_j u_ij^2 - 1).  With p and pt swapped and u transposed
    (`_mirrored`) it is the mirror, plain phi_i over the conjugated
    basis (`mirror_closed_form`).  An exact view is summed on ints, each
    entry times d+1 over the scales of the view, and each entry is one
    Fraction at the end; a float view makes the plain products in the
    same order.  The data are not re-validated."""
    exact, ([nu], Dn), (p, Dp), (pt, Dq), (u, Du), _ = view
    width = len(p)
    cols = range(width)
    if exact:  # nu pt_j u_ij^2 - 1 = (nu pt_j u_ij^2 - one) / one on the view's ints
        w, one, shift = width, Dn * Dq * Du * Du, 1
    else:
        w, one, shift, nu = 1, 1, Fraction(1, width), exactify(nu)
    if i == 0:
        # every column is the pt vector, then the trace correction
        out = [[w * pt[r] - (shift * Dq if r == c else 0) for c in cols] for r in cols]
        return _over(out, width * Dq) if exact else linalg.freeze(out)
    out = [[0] * width for _ in cols]
    for k in cols:
        row = w * nu * p[i] * pt[k] * u[i][k]  # the product's first four factors, in order
        for l in cols:
            if k != l:
                out[k][l] = row * u[i][l]
    for j in cols[1:]:
        c = p[i] * (nu * pt[j] * u[i][j] ** 2 - one)
        for r in cols:
            out[r][r] -= c * shift
        out[j][j] += w * c
    return _over(out, width * Dp * one) if exact else linalg.freeze(out)


def _over(entries: list, scale: int) -> Matrix:
    """The integer matrix entries / scale, one Fraction per entry."""
    return tuple(tuple(Fraction(x, scale) for x in row) for row in entries)


def _mirrored(view: tuple) -> tuple:
    """The integer view of the involuted set: p and pt swapped, u
    transposed, and no kernel-sum views."""
    exact, nu, p, pt, (u, Du), _ = view
    return exact, nu, pt, p, ([list(col) for col in zip(*u)], Du), {}


def mirror_closed_form(kappa: ParameterSet, i: int) -> Matrix:
    """Plain phi_i as the matrix of its coefficients over the conjugated
    basis {R e_kl R^-1, R phi_j R^-1}: the closed form of the involuted
    set, read off kappa's integer view without validating it."""
    return closed_form(_mirrored(kappa.integer_view), i)


class ClosedForms(NamedTuple):
    """Both closed forms of a set for i = 0..d, built once per run:
    closed[i] the conjugated phi_i over the plain basis (`closed_form`),
    mirror[i] plain phi_i over the conjugated basis
    (`mirror_closed_form`)."""

    closed: tuple
    mirror: tuple


def closed_forms(kappa: ParameterSet) -> ClosedForms:
    """The closed forms of kappa, each of its d+1 Cartan indices, read
    off its integer view."""
    view = kappa.integer_view
    mirror = _mirrored(view)
    indices = range(kappa.d + 1)
    return ClosedForms(
        tuple(closed_form(view, i) for i in indices),
        tuple(closed_form(mirror, i) for i in indices),
    )


def antiauto(kappa: ParameterSet, beta: Matrix) -> Matrix:
    """a(b) = Pt b^t Pt^{-1}; with Pt diagonal this is the transpose of b
    scaled entrywise by the weight ratios pt_r/pt_c, read off the set's
    integer view (`ParameterSet.integer_view`) as pt[r]/pt[c] on its
    ints: one Fraction per nonzero entry of an integer b, and a zero
    entry stays the int 0."""
    pt = kappa.integer_view[3][0]
    return tuple(
        tuple(ratio(pt[r] * x, pt[c]) if x else 0 for c, x in enumerate(col))
        for r, col in enumerate(zip(*beta))
    )


# The Lie-lemma suites carry each matrix as (entries, scale), its value
# entries / scale: on ints in an exact run, and the plain values over 1
# beside floats, so that approx runs make the plain products.


def _cartan(d: int, exact: bool) -> list:
    """phi_0..phi_d: (d+1) phi_i on ints over d+1 for an exact set, the
    Fraction matrices over 1 beside floats."""
    phis = (basis_phi(d, i) for i in range(d + 1))
    return [linalg.integer_rows(phi) if exact else (phi, 1) for phi in phis]


def _image(images: dict, S: int, m: tuple) -> tuple:
    """a(m) for m = (entries, scale), as (entries, scale S): a is linear,
    so a(m) is the sum of m[r][c] a(e_rc) over the nonzero entries of m,
    with images[r, c] the nonzero entries of a(e_rc) on ints over S (the
    values over 1 beside floats)."""
    entries, scale = m
    out = [[0] * len(entries) for _ in entries]
    for r, row in enumerate(entries):
        for c, x in enumerate(row):
            for (s, t), y in images[r, c].items() if x else ():
                out[s][t] += x * y
    return out, scale * S


def _expect(failures: list, tol: Scalar, tag: str, got: tuple, want: tuple) -> None:
    """Record the matrix identity got = want, each side (entries, scale),
    under `tag` when it fails beyond tol, with its largest entrywise
    defect.  The entries are compared by `numeric.misses`: exact ones
    cross-multiplied on ints, the values made only for a miss."""
    (G, Sg), (W, Sw) = got, want
    got, want = [x for row in G for x in row], [x for row in W for x in row]
    defects = [abs(g - w) for _, g, w in misses(got, Sg, want, Sw)]
    if defects and (defect := max(defects)) > tol:
        failures.append({"identity": tag, "defect": format_scalar(defect)})


def check_lemma21(
    kappa: ParameterSet, tol: Scalar = 0, *, conj: Conjugator
) -> CheckReport:
    """The antiautomorphism suite: fixed points, transport of matrix
    units with weight ratios, and involutivity and product reversal on
    the matrix units, a proof for all matrices as a is linear.
    `antiauto` is applied to the matrix units alone, and their images
    are brought to one integer scale S; every other image is summed from
    them (`_image`).  The Cartan elements, the units and their
    conjugates by the run's integer conjugator are on ints in an exact
    run, and the weight ratios of the transports are read off the set's
    integer view (`ParameterSet.integer_view`), so each identity is
    compared on ints.  Since e_ij e_kl = delta_jk e_il, a pair needs no
    product on the left, and a(e_kl) a(e_ij) is summed over the nonzero
    entries of the images."""
    d = kappa.d
    tol = tol_for(kappa, tol)
    failures = []
    n = d + 1
    units = {
        (i, j): (tuple(tuple(int((r, c) == (i, j)) for c in range(n)) for r in range(n)), 1)
        for i in range(n)
        for j in range(n)
    }
    images = {ij: antiauto(kappa, e) for ij, (e, _) in units.items()}
    images = {
        ij: {(r, c): x for r, row in enumerate(m) for c, x in enumerate(row) if x != 0}
        for ij, m in images.items()
    }
    ints, S = clear_denominators([x for f in images.values() for x in f.values()])
    ints = iter(ints)
    images = {ij: {rc: next(ints) for rc in f} for ij, f in images.items()}

    exact, _, (p, _), (pt, _), _, _ = kappa.integer_view
    for i, phi in enumerate(_cartan(d, exact)):
        _expect(failures, tol, f"a(phi_{i}) = phi_{i}", _image(images, S, phi), phi)
        dphi = conj.conjugate(phi)
        tag = f"a(dual_phi_{i}) = dual_phi_{i}"
        _expect(failures, tol, tag, _image(images, S, dphi), dphi)
    duals = {(i, j): conj.conjugate(e) for (i, j), e in units.items() if i != j}
    for (i, j), e in units.items():
        image = _image(images, S, e)
        if i != j:
            _expect(
                failures,
                tol,
                f"a(e_{i}{j}) = (pt_{j}/pt_{i}) e_{j}{i}",
                image,
                (linalg.mat_scale(pt[j], units[j, i][0]), pt[i]),
            )
            dual, scale = duals[j, i]
            _expect(
                failures,
                tol,
                f"a(dual_e_{i}{j}) = (p_{j}/p_{i}) dual_e_{j}{i}",
                _image(images, S, duals[i, j]),
                (linalg.mat_scale(p[j], dual), p[i] * scale),
            )
        tag = f"a(a(e_{i}{j})) = e_{i}{j}"
        _expect(failures, tol, tag, _image(images, S, image), e)

    for i, j in units:
        for k, l in units:
            diff = {rs: S * x for rs, x in images[i, l].items()} if j == k else {}
            for (r, c), x in images[k, l].items():
                for (c2, s), y in images[i, j].items():
                    if c == c2:
                        diff[r, s] = diff.get((r, s), 0) - x * y
            defect = max(map(abs, diff.values()), default=0)
            if defect and (defect := ratio(defect, S * S)) > tol:
                tag = f"a(e_{i}{j} e_{k}{l}) = a(e_{k}{l}) a(e_{i}{j})"
                failures.append({"identity": tag, "defect": format_scalar(defect)})

    return CheckReport("lemma21", not failures, failures, {"unit_pairs": n**4})


def check_generation(
    kappa: ParameterSet, tol: Scalar = 0, *, conj: Conjugator, forms: ClosedForms
) -> CheckReport:
    """Bracket-generation suite: both closed forms (every conjugated
    phi_i over the plain basis, and every plain phi_i, i >= 1, as the
    conjugation of its mirror), and the triple-commutator identity
    producing every matrix unit from the plain Cartan elements and the
    single dual phi_0, which is minus the sum of the others by
    construction.  In an exact run the Cartan elements are (d+1) phi_i
    on ints, the conjugations and brackets run on ints, and each
    identity is compared cross-multiplied (`_expect`)."""
    d = kappa.d
    tol = tol_for(kappa, tol)
    failures = []

    phis = _cartan(d, kappa.integer_view[0])
    dphis = [conj.conjugate(phi) for phi in phis]
    for i, dphi in enumerate(dphis):
        _expect(failures, tol, f"dual_phi_{i} closed form", dphi, (forms.closed[i], 1))
    for i in range(1, d + 1):
        mirror = conj.conjugate(linalg.integer_rows(forms.mirror[i]))
        _expect(failures, tol, f"phi_{i} mirror closed form", mirror, phis[i])

    # phi_j = C_j / K and dual_phi_0 = dC / S: [C_j, dC] = K S [phi_j,
    # dual_phi_0], made once per j, and the middle and outer brackets
    # gain one K each, so outer - middle = (outer' - K middle') / (K^3 S)
    dC, S = dphis[0]
    pt, Dq = kappa.integer_view[3]  # 1 / (2 pt_i) = Dq / (2 pt[i])
    inners = [linalg.commutator(C, dC) for C, _ in phis]
    for i, (Ci, K) in enumerate(phis):
        for j, (Cj, _) in enumerate(phis):
            if i == j:
                continue
            middle = linalg.commutator(Ci, inners[j])
            outer = linalg.commutator(Cj, middle)
            delta = linalg.mat_sub(outer, linalg.mat_scale(K, middle))
            _expect(
                failures,
                tol,
                f"bracket recovery of e_{i}{j}",
                (linalg.mat_scale(Dq, delta), 2 * pt[i] * K**3 * S),
                (basis_e(d, i, j), 1),
            )

    return CheckReport("lemma22", not failures, failures, {})


# ---------------------------------------------------------------------------
# the polynomial module


def act(beta: Matrix, f: dict) -> dict:
    """Derivation action: e_ij contributes lam_j x^(lam+v_i-v_j), the
    diagonal contributes sum_k beta_kk lam_k on the spot."""
    out: dict = {}
    n = len(beta)
    for lam, c in f.items():
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
    return {mu: c for mu, c in out.items() if c != 0}


def move_table(d: int, N: int) -> tuple:
    """How the units move the degree-N monomials: for the k-th point lam
    of the layout order, (diagonal, moves) with diagonal the (k, lam_k),
    lam_k > 0, by which e_kk scales x^lam, and moves the (k, l, lam_l,
    target) of each unit e_kl, k != l, that sends x^lam to lam_l times
    the monomial at layout index target, in `act`'s order (l-major,
    k-minor).  Read off one `act` of the all-ones off-diagonal matrix
    per point; every lattice form of a run is read from its one table
    (`lattice_form`)."""
    points = tuple(enumerate_lattice(d, N))
    index = {lam: k for k, lam in enumerate(points)}
    ones = tuple(tuple(int(k != l) for l in range(d + 1)) for k in range(d + 1))
    table = []
    for lam in points:
        moves = []
        for mu, c in act(ones, {lam: 1}).items():
            steps = list(map(sub, mu, lam))
            moves.append((steps.index(1), steps.index(-1), c, index[mu]))
        table.append((tuple((k, e) for k, e in enumerate(lam) if e), tuple(moves)))
    return tuple(table)


def lattice_form(M: Matrix, moves: tuple) -> tuple:
    """(rows, D) with M = A / D on integer rows (`linalg.integer_rows`; a
    float M keeps its values, with D = 1) and rows[k] the (target, c)
    terms of the derivation action of A on the k-th monomial of the
    layout, each target by its layout index: the one lattice form of a
    derivation action, which the difference operators of `bispec` and
    `norms` read.  The action is linear in A, so each row is read from
    the point's `move_table` entry: the diagonal term first, then one
    term per nonzero A[k][l], the terms and products of `act` of A, in
    its order."""
    A, D = linalg.integer_rows(M)
    rows = []
    for here, (diagonal, moves_here) in enumerate(moves):
        c = sum(A[k][k] * e for k, e in diagonal)
        row = [(here, c)] if c != 0 else []
        row += [(target, A[k][l] * e) for k, l, e, target in moves_here if A[k][l] != 0]
        rows.append(row)
    return tuple(rows), D


def xtilde_monomial(conj: Conjugator, lam: MultiIndex) -> dict:
    """The substituted monomial xt^lam = prod_k (sum_j x_j rhat[j][k])^lam_k
    expanded over plain monomials, one Fraction per coefficient."""
    coeffs, D = expand_forms(tuple(zip(*conj.rhat)), tuple(lam))
    return coeffs if D == 1 else {n: Fraction(c, D) for n, c in coeffs.items()}


def expansion_matrix(R: Matrix, points) -> tuple:
    """(lines, D) with lines[k][j] / D the coefficient of the j-th
    point's monomial x^n in prod_i (sum_j x_j R[j][i])^lam_i, lam the
    k-th point, for `points` the degree-N lattice in layout order, zeros
    included: Sym^N(R) on the monomial basis, line k the
    `numeric.expand_forms` of lam over one scale D.

    Built a degree at a time on dense integer lines, column i of R, the
    linear form i, scaled to ints once as F_i / D_i: the line of lam is
    the line of its parent lam - e_k, k the first nonzero part of lam,
    times form k alone, over the parent's scale times D_k, so each
    monomial prefix is expanded once for all the lines that share it.
    The degree-t lattice is the first C(t+d, d) points of the layout,
    lam_0 lowered by N - t, so one index map per j, nu -> nu - e_j (-1
    where nu_j = 0, which reads the 0 that ends each line), cut to the
    degree, does the shifts.  D is the lcm of the line scales
    prod_i D_i^lam_i.  A float R is read at its floats' exact values
    and each entry rounded once, with D = 1; an entry past the float
    range raises an OverflowError that names it.  With R = rhat it is X,
    with R = rhat_inv its inverse Y (`to_dual_coords`), and with the
    generating function's row factors the generating matrix
    (`generating_matrix`)."""
    points = tuple(points)
    width, N = len(R), sum(points[0])
    if points != tuple(enumerate_lattice(width - 1, N)):
        raise ValueError("points must be the degree-N lattice in layout order")
    exact = all(map(is_exact, chain(*R)))
    forms = [clear_denominators(col if exact else list(map(Fraction, col))) for col in zip(*R)]
    index = {lam[1:]: i for i, lam in enumerate(points)}
    less = [
        [index.get(lam[1:j] + (lam[j] - 1,) + lam[j + 1 :], -1) for lam in points]
        for j in range(1, width)
    ]
    lines, plus = [([1, 0], 1)], functools.partial(map, add)
    for t in range(1, N + 1):
        size, below = math.comb(t + width - 1, t), len(lines)
        maps = [[*range(below), *(-1,) * (size - below)]] + [m[:size] for m in less]
        gathers = [itemgetter(*m) for m in maps]
        grown = []
        for i in range(size):
            k = next(j for j, m in enumerate(maps) if m[i] >= 0)
            parent, s = lines[maps[k][i]]
            F, Dk = forms[k]
            terms = [
                gather(parent) if f == 1 else map(mul, gather(parent), repeat(f))
                for gather, f in zip(gathers, F)
                if f
            ]
            line = list(functools.reduce(plus, terms)) if terms else [0] * size
            line.append(0)
            grown.append((line, s * Dk))
        lines = grown
    if not exact:
        return [_rounded(line, s, lam, points) for (line, s), lam in zip(lines, points)], 1
    D = math.lcm(*(s for _, s in lines))
    return [line[:-1] if s == D else [x * (D // s) for x in line[:-1]] for line, s in lines], D


def _rounded(line: list, s: int, lam: tuple, points: tuple) -> list:
    """The entries of the integer line of lam over s, its trailing 0
    dropped, each the nearest float (int / int true division rounds
    once); where one leaves the float range, the OverflowError names
    its pair of points."""
    out = []
    for x, n in zip(line, points):
        try:
            out.append(x / s)
        except OverflowError:
            raise OverflowError(
                f"entry ({list(lam)}, {list(n)}) of an approx Sym^{sum(lam)} matrix "
                "leaves the float range"
            ) from None
    return out


def to_dual_coords(conj: Conjugator, points) -> tuple:
    """Y = Sym^N(rhat_inv), the inverse of X: (lines, D) with
    lines[k][j] / D the coefficient of xt^mu, mu the j-th point, in x^n,
    n the k-th, from the inverse substitution x = xt rhat_inv
    (`expansion_matrix`).  A run builds it once, for `transition`."""
    return expansion_matrix(conj.rhat_inv, points)


def generating_matrix(kappa: ParameterSet, points) -> tuple:
    """(lines, D) with lines[k][j] / (D multinomial(N, n)) = P(n', nt'),
    nt the k-th point and n the j-th: Sym^N of the generating function's
    row factors (`hyperg.generating_forms`), so line k is the generating
    column of nt (`hyperg.generating_column`) with its multinomials left
    in, all lines from one `expansion_matrix`."""
    return expansion_matrix(linalg.transpose(hyperg.generating_forms(kappa)), points)


def pairing_weight(kappa: ParameterSet, N: int, n: MultiIndex) -> Scalar:
    """n!/(pt^n N!), which turns coeff_n(xt^nt) into P(n', nt') for
    every nt: a full-grid sweep computes it once per n.  It is the
    reciprocal of the multinomial weight N! pt^n/n! that `transition`
    and `orthogonality` read on ints (`numeric.multinomial_weights`)."""
    den = power_product(kappa.pt, n) * math.factorial(N)
    if kappa.integer_view[0]:
        return Fraction(multi_factorial(n), den)
    return multi_factorial(n) / den


def _form_weights(kappa: ParameterSet, N: int) -> tuple:
    """The form's diagonal {n: <x^n, x^n> = n! nu^N / pt^n} over the
    degree-N lattice, and the same weights in layout order as (ints, S)
    on integers (`numeric.clear_denominators`) for the Gram sums; the
    form is diagonal on monomials, so this is all of it."""
    scale = exactify(kappa.nu) ** N * math.factorial(N)
    weights = {
        lam: scale * pairing_weight(kappa, N, lam)
        for lam in enumerate_lattice(kappa.d, N)
    }
    return weights, clear_denominators(list(weights.values()))


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
    c = xtilde_monomial(conj, nt).get(n, 0)
    return c * pairing_weight(kappa, N, n)


def check_dual_norms(
    kappa: ParameterSet, N: int, tol: Scalar = 0, *, X: tuple, moves: tuple
) -> CheckReport:
    """Two facts about the form.  The substituted monomials are
    orthogonal for it, with norms n!/p^n (no nu power): the Gram of the
    lines of X[lam][n] = coeff_n(xt^lam) under the form's weights, summed
    on ints over X's one scale and the weights' own and compared with
    each norm on ints (`numeric.gram_misses`, as for the table's
    orthogonality); a Fraction is built only for a miss.  The norms grow
    like N!/min|p|^N, so the tolerance of a pair is tol times the larger
    of its two norms.  And the form is contravariant for the
    antiautomorphism (`_adjoint_failures`), read from the run's move
    table."""
    points = tuple(enumerate_lattice(kappa.d, N))
    weights, scaled = _form_weights(kappa, N)
    lines, D = X
    norms = [1 / weight_over_factorial(kappa.p, lam) for lam in points]
    sizes = [abs(x) for x in norms]
    failures = []
    for a, b, got, want, bound in gram_misses(lines, [D] * len(lines), scaled, norms, sizes, tol):
        if not scalars_equal(got, want, bound):
            got, want = format_scalar(got), format_scalar(want)
            pair = [list(points[a]), list(points[b])]
            failures.append({"pair": pair, "got": got, "want": want})
    failures += _adjoint_failures(kappa, N, tol, points, moves, weights, scaled)
    return CheckReport(
        "norms", not failures, failures, {"pairs": len(points) ** 2}
    )


def _adjoint_failures(
    kappa: ParameterSet,
    N: int,
    tol: Scalar,
    points: tuple,
    moves: tuple,
    weights: dict,
    scaled: tuple,
) -> list:
    """<b.x^n, x^m> = <x^n, a(b).x^m> for b over the units e_ij, i != j,
    in (b, n, m) order; for the phi_i, which act diagonally, it is
    lemma21's a(phi_i) = phi_i.  The form is diagonal on monomials, so a
    pair where neither side has x^m in b.x^n nor x^n in a(b).x^m reads
    0 = 0 and is skipped.  b and a(b) = A/Sa act through their lattice
    forms (`lattice_form` on the run's move table), and the weights are
    scaled = (W, S) in layout order (`_form_weights`), so the sides out[m] W[m] / S and
    into[n][m] W[n] / (S Sa) are compared on ints (`numeric.misses`).
    Approx mode compares within tol N max(1, w(n), w(m)), w the form's
    weights, which bounds every term of either side."""
    d = kappa.d
    W, S = scaled
    sizes = [abs(w) for w in weights.values()]
    failures = []
    for i in range(d + 1):
        for j in range(d + 1):
            if i == j:
                continue
            beta = basis_e(d, i, j)
            adj, Sa = lattice_form(antiauto(kappa, beta), moves)
            into = [{} for _ in points]  # into[n][m]: coefficient of x^n in a(b).x^m
            for m, image in enumerate(adj):
                for n, c in image:
                    into[n][m] = c
            outs = [dict(row) for row in lattice_form(beta, moves)[0]]
            pairs = [(n, m) for n, out in enumerate(outs) for m in sorted({**out, **into[n]})]
            lhs = [outs[n].get(m, 0) * W[m] for n, m in pairs]
            rhs = [into[n].get(m, 0) * W[n] for n, m in pairs]
            for k, got, want in misses(lhs, S, rhs, S * Sa):
                n, m = pairs[k]
                bound = tol * N * max(1, sizes[n], sizes[m]) if tol else 0
                if not scalars_equal(got, want, bound):
                    failures.append(
                        {
                            "element": f"e_{i}{j}",
                            "pair": [list(points[n]), list(points[m])],
                            "lhs": format_scalar(got),
                            "rhs": format_scalar(want),
                        }
                    )
    return failures


def check_adjacency(
    kappa: ParameterSet, N: int, tol: Scalar = 0, *, X: tuple, gens: dict
) -> CheckReport:
    """The d recurrences as two intertwinings of the expansion matrix
    X[lam][n] = coeff_n(xt^lam), for i = 1..d and every lam:

        plain-on-substituted   phi_i.xt^lam = sum_mu S[lam][mu] xt^mu
        dual-on-plain          dual_phi_i.xt^lam = (lam_i - N/(d+1)) xt^lam

    where sum_mu S[lam][mu] x^mu is the action of `mirror_closed_form`
    on x^lam (d^2+d+1 terms), so the first is X C_i = S_i X with C_i the
    diagonal of phi_i, and dual_phi_i is `closed_form`.  Any derivation
    action moves one unit, so the first implies that phi_i moves xt^lam
    only to itself and its adjacent lattice points.  Both actions are
    the lattice forms of the run's generators (`bispec.generators`), on
    ints over their scales: S_i is tilde generator i, and dual_phi_i
    acts by mirror generator i.  Every coefficient is compared, on ints
    in exact mode.  Approx mode compares within tol times the larger of
    1 and a bound of the terms of either side: the largest |X[mu][n]|
    of each row mu involved times its factor."""
    d = kappa.d
    width = d + 1
    points = tuple(enumerate_lattice(d, N))
    lines, D = X
    zeros = [0] * len(points)
    size = [max(map(abs, line)) for line in lines] if tol else None
    failures = []
    generators = zip(gens["second_index_family"], gens["first_index_family"])
    for i, (mirror, dual) in enumerate(generators, 1):
        Dm, Dc = mirror.scale, dual.scale
        factors = [(width * n[i] - N) * Dm for n in points]
        dual_mass = N * Dc * sum(abs(x) for row in dual.matrix for x in row)
        for k, (lam, line, terms) in enumerate(zip(points, lines, mirror.rows)):
            # phi_i is diagonal: X[lam][n] ((d+1) n_i - N) Dm against
            # (d+1) sum_t c X[t][n] over the terms (t, c) of row lam
            weights = [width * c for _, c in terms]
            columns = zip(*(lines[t] for t, _ in terms))
            recurrence = [sum(map(mul, weights, col)) for col in columns] or zeros
            # row lam of X pushed through the mirror generator, against
            # ((d+1) lam_i - N) Dc X[lam]
            pushed = zeros.copy()
            for x, row in zip(line, dual.rows):
                for t, c in row if x else ():
                    pushed[t] += x * c
            ev = (width * lam[i] - N) * Dc
            sides = (
                ("plain-on-substituted", [x * f for x, f in zip(line, factors)], recurrence),
                ("dual-on-plain", [width * y for y in pushed], [ev * x for x in line]),
            )
            bounds = (0, 0)
            if tol:
                terms_mass = sum(abs(c) * size[t] for t, c in terms)
                bounds = (
                    tol * width * max(Dm * D, N * Dm * size[k], terms_mass),
                    tol * width * max(Dc * D, dual_mass * size[k]),
                )
            for (side, got, want), bound in zip(sides, bounds):
                if bound:
                    missed = any(abs(g - w) > bound for g, w in zip(got, want))
                else:
                    missed = got != want
                if missed:
                    failures.append({"side": side, "i": i, "at": list(lam)})
    return CheckReport(
        "adjacency", not failures, failures, {"points": len(points)}
    )


def _expands_to(got: list, D: int, line: tuple, weights: tuple, tol: Scalar) -> bool:
    """Whether got[k] / D = line[k] weights[k] within tol at every
    point k, with got a dense line of X or Y, the line a table line of
    the integer view and the weights from `numeric.multinomial_weights`,
    each as (ints, S), compared by `numeric.misses`."""
    (values, S), (ints, Sw) = line, weights
    want = list(map(mul, values, ints))
    return all(scalars_equal(g, w, tol) for _, g, w in misses(got, D, want, S * Sw))


def check_transition(
    kappa: ParameterSet,
    N: int,
    tol: Scalar = 0,
    *,
    tab: hyperg.PolynomialTable,
    X: tuple,
    Y: tuple,
) -> CheckReport:
    """Both basis-transition expansions as exact polynomial identities:

        xt^nt        = N! sum_n P(n',nt') (pt^n/n!) x^n
        x^n / nu^N   = N! sum_nt P(n',nt') (p^nt/nt!) xt^nt

    with P read from the table, so this cross-ties the module picture to
    the series definition.  The first compares each line X[nt] of the
    expansion matrix with a column of the table, the second each line
    Y[n] of its inverse (`to_dual_coords`), read as x^n / nu^N, with a
    row.  In exact mode nu = NU / Dn is read off the set's integer view,
    so a line of Y over its scale Dy is Dn^N Y[n] over Dy NU^N, on ints;
    floats take the plain 1 / nu^N.  Each coefficient is compared with
    its table entry times its weight cross-multiplied (`_expands_to`);
    a Fraction is built only for a miss.
    """
    points = tab.points
    exact, ([nu], Dn), p, pt, _, _ = kappa.integer_view
    table_rows, table_columns = tab.integer_view
    (Xs, Dx), (Ys, Dy) = X, Y
    lift, Sy = (Dn**N, Dy * nu**N) if exact else (1 / nu**N, Dy)
    sides = (  # (record, lines, factor, scale, table lines, weights)
        ("substituted-over-plain", Xs, 1, Dx, table_columns, pt),
        ("plain-over-substituted", Ys, lift, Sy, table_rows, p),
    )
    failures = []
    for expansion, lines, factor, scale, table_lines, w in sides:
        weights = multinomial_weights(w, N, points)
        for line, want, at in zip(lines, table_lines, points):
            got = line if factor == 1 else [x * factor for x in line]
            if not _expands_to(got, scale, want, weights, tol):
                failures.append({"expansion": expansion, "at": list(at)})

    return CheckReport(
        "transition", not failures, failures, {"points": len(points)}
    )
