"""Difference operators on the degree lattice and the eigen checks.

Every operator here is the derivation action of one (d+1) x (d+1)
matrix M on degree-N monomials, x^lam -> sum_kl M[k][l] lam_l
x^(lam+v_k-v_l), transposed into an operator on lattice functions:
(op F)(y) = sum c F(mu[1:]) over the terms c x^mu of M.x^lam, with
lam = (N - |y|, y).  The two canonical families (one shifting the
second index of the table, one the first) have d generators each with
at most d^2 + d + 1 terms: generator i of the first is the action of
plain phi_i over the conjugated basis (`liemod.mirror_closed_form`),
and the second is the first of the involuted set, whose matrix is the
closed form of the conjugated phi_i itself (`liemod.closed_form`).
Multiplying a table row or column by a generator reproduces the row or
column scaled by an eigenvalue that depends only on the opposite index.
The universal operator, the action of p 1^t - I, has eigenvalue minus
the reduced degree; as the action is linear in its matrix, its identity
with minus the sum of one family less a multiple of the identity is
checked once, as a matrix identity.

An operator is built from its matrix alone.  On first use M is scaled
to integers once by D, the lcm of its denominators, and the lattice
form `rows` is `liemod.act` of D M on every monomial, read at reduced
points: for every point the (target, c D) pairs, on Python ints.  A
float matrix keeps its floats, with D = 1, so approximate mode runs the
same code.  The action stays on the lattice: an outward term carries
the integer lam_l, which is 0 exactly where the shift would leave the
simplex.  `apply` sums each point's terms and divides by D once; the
eigen checks feed it table lines scaled to integers, and
`check_commute` composes two integer forms directly, so a Fraction is
built once per lattice point, or only for a failure.  The affine form
of the action, one coefficient per shift that is affine in the point
(`_stencil`), is kept for output and counting: the `stencil` dump and
`term_count`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import hyperg, liemod, linalg
from .kappa import ParameterSet
from .linalg import Matrix
from .numeric import (
    Scalar,
    clear_denominators,
    enumerate_degree_points,
    enumerate_lattice,
    exactify,
    format_scalar,
    is_exact,
    scalars_equal,
)
from .report import CheckReport


@dataclass(frozen=True)
class AffineCoeff:
    """c(y) = constant + sum_l linear[l] * y[l] over reduced points y."""

    constant: Scalar
    linear: tuple

    def is_zero(self) -> bool:
        return self.constant == 0 and all(x == 0 for x in self.linear)

    def to_json_dict(self) -> dict:
        return {
            "constant": format_scalar(self.constant),
            "linear": [format_scalar(x) for x in self.linear],
        }


@dataclass(frozen=True, eq=False)
class DifferenceOperator:
    """The operator of a (d+1) x (d+1) matrix on degree-N lattice
    functions, plus the eigenvalue law it satisfies on tables (the law
    takes the reduced opposite-side index).  `scale` is D, the lcm of
    the matrix's denominators (1 when an entry is a float), and `rows`
    the lattice form: one (y, ((target, c D), ...)) record per reduced
    point y in layout order, the terms of D M acting on x^lam.  Both are
    built on first use, so the `stencil` dump, which reads neither,
    never acts on the lattice."""

    matrix: Matrix
    N: int
    eigenvalue: Callable | None
    name: str

    @functools.cached_property
    def _lattice_form(self) -> tuple:
        ints, D = clear_denominators([x for row in self.matrix for x in row])
        it = iter(ints)
        scaled = tuple(tuple(next(it) for _ in row) for row in self.matrix)
        rows = []
        for lam in enumerate_lattice(self.d, self.N):
            image = liemod.act(scaled, liemod.monomial(lam)).coeffs
            rows.append((lam[1:], tuple((mu[1:], c) for mu, c in image.items())))
        return D, tuple(rows)

    scale = property(lambda self: self._lattice_form[0])
    rows = property(lambda self: self._lattice_form[1])

    @property
    def d(self) -> int:
        return len(self.matrix) - 1

    @property
    def stencil(self) -> dict:
        """The affine form of the action (`_stencil`)."""
        return _stencil(self.matrix, self.N)

    def term_count(self) -> int:
        return len(self.stencil)


def _stencil(M: Matrix, N: int) -> dict:
    """The derivation action x^lam -> sum_kl M[k][l] lam_l x^(lam+v_k-v_l)
    of a (d+1) x (d+1) matrix on degree-N monomials, read at reduced
    points y = lam[1:] as affine coefficients: shift e_k - e_l with
    coefficient M[k][l] lam_l, where e_0 = 0 and lam_0 = N - |y|, so the
    no-shift term is M[0][0] N + sum_j (M[j][j] - M[0][0]) y_j.  One term
    order: the shifts -e_l, then e_k, then none, then e_k - e_l for
    k, l >= 1; zero terms are dropped."""
    d = len(M) - 1
    js = range(1, d + 1)

    def times_lam(l: int, c: Scalar) -> AffineCoeff:
        if l == 0:
            return AffineCoeff(c * N, tuple(-c for _ in js))
        return AffineCoeff(0, tuple(c if m == l else 0 for m in js))

    pairs = [(0, l) for l in js] + [(k, 0) for k in js] + [(0, 0)]
    pairs += [(k, l) for k in js for l in js if k != l]
    stencil = {}
    for k, l in pairs:
        shift = tuple((m == k) - (m == l) for m in js)
        if k == l:
            diag = tuple(M[j][j] - M[0][0] for j in js)
            coeff = AffineCoeff(M[0][0] * N, diag)
        else:
            coeff = times_lam(l, M[k][l])
        if not coeff.is_zero():
            stencil[shift] = coeff
    return stencil


def _tilde_law(d: int, N: int, i: int) -> Callable:
    """The eigenvalue law m_i - N/(d+1) of generator i, refusing an i
    outside 1..d."""
    if not 1 <= i <= d:
        raise IndexError(f"index {i} out of range for d = {d}")
    shift = Fraction(N, d + 1)
    return lambda m: m[i - 1] - shift


def operator_mtilde(kappa: ParameterSet, N: int, i: int) -> DifferenceOperator:
    """Generator i of the family shifting the second (tilde) index: the
    action of plain phi_i over the conjugated basis
    (`liemod.mirror_closed_form`); eigenvalue m_i - N/(d+1) read off the
    first index."""
    law = _tilde_law(kappa.d, N, i)
    return DifferenceOperator(liemod.mirror_closed_form(kappa, i), N, law, f"mtilde_{i}")


def operator_m(kappa: ParameterSet, N: int, i: int) -> DifferenceOperator:
    """Generator i of the mirror family shifting the first index: the
    tilde generator of the involuted set, whose p and pt are swapped and
    u transposed, so its matrix is the closed form of the conjugated
    phi_i of kappa itself.  Eigenvalue mt_i - N/(d+1)."""
    law = _tilde_law(kappa.d, N, i)
    closed = liemod.closed_form(kappa.nu, kappa.p, kappa.pt, kappa.u, i)
    return DifferenceOperator(closed, N, law, f"m_{i}")


def _universal_matrix(kappa: ParameterSet) -> Matrix:
    """p 1^t - I: only the weights enter, never u."""
    p = [exactify(x) for x in kappa.p]
    columns_p = tuple(tuple(x for _ in p) for x in p)
    return linalg.mat_sub(columns_p, linalg.identity(len(p)))


def operator_universal(kappa: ParameterSet, N: int) -> DifferenceOperator:
    """Parameter-light operator with eigenvalue -|m|: the action of
    p 1^t - I."""
    return DifferenceOperator(_universal_matrix(kappa), N, lambda m: -sum(m), "universal")


def apply(op: DifferenceOperator, F: Callable) -> dict:
    """(op F)(y) = sum c F(target) over the terms of row y of the
    operator's lattice form, so F is only called on lattice points.
    Each point sums c D F(target), on ints when F gives ints, and is
    divided by D once."""
    D = op.scale
    out = {}
    for y, terms in op.rows:
        acc = 0
        for target, c in terms:
            acc += c * F(target)
        out[y] = Fraction(acc, D) if isinstance(acc, (int, Fraction)) else acc / D
    return out


def _bounds(op: DifferenceOperator, F: Callable, tol: Scalar) -> dict:
    """The tolerance of (op F)(y) at each lattice point y: tol times the
    larger of 1 and the summed magnitudes |c F(target)| of its terms."""
    return {
        y: tol * max(1, sum(abs(c * F(t)) for t, c in terms) / op.scale)
        for y, terms in op.rows
    }


def _misses(
    op: DifferenceOperator, ev: Scalar, line: tuple, reduced: dict, tol: Scalar
):
    """Where op applied to a table line is not literally ev times the
    line: (y, got, want, bound) per such point y, with the tolerance of
    `_bounds` (0 in exact mode).  The line goes to `apply` scaled to
    integers, and each point is compared on ints; a Fraction is built
    only for a miss."""
    ints, S = clear_denominators(line)
    got = apply(op, lambda y: ints[reduced[y]])
    bounds = _bounds(op, lambda y: line[reduced[y]], tol) if tol else {}
    num, den = ev.numerator, ev.denominator
    for y, g in got.items():
        k = reduced[y]
        if is_exact(g) and g.numerator * den == num * ints[k] * g.denominator:
            continue
        yield y, g / S, ev * line[k], bounds.get(y, 0)


def check_eigen(
    kappa: ParameterSet,
    N: int,
    tol: Scalar = 0,
    *,
    tab: hyperg.PolynomialTable,
) -> CheckReport:
    """Both generator families against a full table: rows are
    eigenfunctions of the tilde-shifting family, columns of the mirror
    family, and everything of the universal operator."""
    d = kappa.d
    reduced = {pt[1:]: idx for idx, pt in enumerate(tab.points)}
    failures = []
    max_resid = 0

    ops_second = [operator_mtilde(kappa, N, i) for i in range(1, d + 1)]
    ops_first = [operator_m(kappa, N, i) for i in range(1, d + 1)]
    universal = operator_universal(kappa, N)

    # columns are the rows of the transposed table, as the mirror family
    # is the tilde family of the involuted set
    columns = tuple(zip(*tab.values))
    for lines, ops in ((tab.values, ops_second + [universal]), (columns, ops_first)):
        for fixed, line in zip(tab.points, lines):
            for op in ops:
                ev = op.eigenvalue(fixed[1:])
                for y, got, want, bound in _misses(op, ev, line, reduced, tol):
                    max_resid = max(max_resid, abs(got - want))
                    if not scalars_equal(got, want, bound):
                        failures.append(
                            {
                                "operator": op.name,
                                "fixed_index": list(fixed),
                                "at": list(y),
                                "got": format_scalar(got),
                                "want": format_scalar(want),
                            }
                        )

    details = {
        "term_counts": {
            "second_index_family": [op.term_count() for op in ops_second],
            "first_index_family": [op.term_count() for op in ops_first],
            "universal": universal.term_count(),
        },
        "term_bound": d * d + d + 1,
        "max_residual": format_scalar(max_resid),
    }
    return CheckReport("recurrence", not failures, failures, details)


def check_universal(
    kappa: ParameterSet,
    N: int,
    tol: Scalar = 0,
    *,
    tab: hyperg.PolynomialTable,
) -> CheckReport:
    """Eigenvalue -|m| on every table row, plus the identity
    universal = -(sum of the tilde-shifting generators) - dN/(d+1) as the
    matrix identity p 1^t - I = -sum_i M_i - d/(d+1) I of the matrices
    the operators are built from (M_i = `liemod.mirror_closed_form`).
    The action is linear in its matrix, so this gives the operator
    identity at every N; it collapses the u-dependence via the defining matrix
    equation, and its trace reads sum p = 1."""
    reduced = {pt[1:]: idx for idx, pt in enumerate(tab.points)}
    universal = operator_universal(kappa, N)
    failures = []
    max_resid = 0

    for n, row in zip(tab.points, tab.values):
        ev = universal.eigenvalue(n[1:])
        for y, got, want, bound in _misses(universal, ev, row, reduced, tol):
            resid = abs(got - want)
            max_resid = max(max_resid, resid)
            if not scalars_equal(got, want, bound):
                failures.append(
                    {
                        "operator": "universal",
                        "fixed_index": list(n),
                        "at": list(y),
                        "residual": format_scalar(resid),
                    }
                )

    d = kappa.d
    rhs = linalg.mat_scale(Fraction(d, d + 1), linalg.identity(d + 1))
    for i in range(1, d + 1):
        rhs = linalg.mat_add(rhs, liemod.mirror_closed_form(kappa, i))
    symbolic = linalg.mats_equal(
        _universal_matrix(kappa), linalg.mat_scale(-1, rhs), tol
    )
    if not symbolic:
        failures.append({"identity": "universal as signed generator sum"})

    return CheckReport(
        "universal",
        not failures,
        failures,
        {"symbolic_identity": symbolic, "max_residual": format_scalar(max_resid)},
    )


def _compose(a: DifferenceOperator, b: DifferenceOperator) -> dict:
    """The product ab as a matrix scaled by D_a D_b: {y: {z: entry}},
    row y of a's lattice form times the rows of b's, on ints."""
    rows_b = dict(b.rows)
    out = {}
    for y, terms in a.rows:
        row: dict = {}
        for x, c in terms:
            for z, e in rows_b[x]:
                row[z] = row.get(z, 0) + c * e
        out[y] = row
    return out


def check_commute(kappa: ParameterSet, N: int, tol: Scalar = 0) -> CheckReport:
    """Pairwise commutation of each generator family as operators on the
    full function space, tested on every delta basis function (not on
    table eigenfunctions, which would be circular): column y0 of the
    composed matrices ab and ba is the image of the delta at y0, and
    every entry of both is compared, scaled by D_a D_b."""
    d = kappa.d
    points = list(enumerate_degree_points(d, N))
    index = {y: k for k, y in enumerate(points)}
    failures = []
    pair_count = 0
    families = {
        "second_index_family": [operator_mtilde(kappa, N, i) for i in range(1, d + 1)],
        "first_index_family": [operator_m(kappa, N, i) for i in range(1, d + 1)],
    }
    for family_name, ops in families.items():
        for a in range(len(ops)):
            for b in range(a + 1, len(ops)):
                pair_count += 1
                ab = _compose(ops[a], ops[b])
                ba = _compose(ops[b], ops[a])
                bound = tol * ops[a].scale * ops[b].scale
                misses = sorted(
                    (index[y0], index[y])
                    for y in points
                    for y0 in ab[y].keys() | ba[y].keys()
                    if not scalars_equal(ab[y].get(y0, 0), ba[y].get(y0, 0), bound)
                )
                for k0, k in misses:
                    failures.append(
                        {
                            "family": family_name,
                            "pair": [ops[a].name, ops[b].name],
                            "basis_point": list(points[k0]),
                            "at": list(points[k]),
                        }
                    )
    details = {"pairs": pair_count, "basis_size": len(points)}
    if d == 1:
        details["note"] = "single generator per family; commutation is vacuous"
    return CheckReport("commute", not failures, failures, details)


def stencil_json(op: DifferenceOperator) -> list:
    """Inspectable wire form: one record per stencil term."""
    return [
        {"shift": list(s), "coeff": coeff.to_json_dict()}
        for s, coeff in sorted(op.stencil.items())
    ]
