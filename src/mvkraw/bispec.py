"""Difference operators on the degree lattice and the eigen checks.

Each operator is a stencil: a map from shift vectors s in Z^d to a
coefficient that is an affine function of the lattice point, evaluated
lazily.  Every stencil here is the derivation action of one
(d+1) x (d+1) matrix M on degree-N monomials, x^lam ->
sum_kl M[k][l] lam_l x^(lam+v_k-v_l), read at reduced points, and one
builder makes it (`_stencil`).  The two canonical families (one
shifting the second index of the table, one the first) have d
generators each with at most d^2 + d + 1 stencil terms: generator i of
the first is the action of plain phi_i over the conjugated basis
(`liemod.mirror_closed_form`), and the second is the first of the
involuted set.  Multiplying a table row or column by a generator
reproduces the row or column scaled by an eigenvalue that depends only
on the opposite index.  The universal operator, the action of
p 1^t - I, has eigenvalue minus the reduced degree; as the stencil is
linear in its matrix, its identity with minus the sum of one family
less a multiple of the identity is checked once, as a matrix identity.

Stencils vanish on their own at the lattice boundary: every outward
shift carries a factor (point coordinate or remaining degree) that is
zero exactly where the shift would leave the simplex.  Each operator
has one integer form: its affine coefficients are scaled once by D, the
lcm of their denominators, and the scaled stencil is evaluated on the
lattice once per tolerance, into its lattice form: for every point the
(target, c(y) D) pairs that survive the tolerance, on Python ints.
Float coefficients are kept as they are, with D = 1, so approximate
mode runs the same code.  Building that form refuses a surviving
coefficient whose shift leaves the simplex rather than clamping it, so
`apply` only reads the lattice.  `apply` sums each point's terms and
divides by D once; the eigen checks feed it table lines scaled to
integers, and `check_commute` composes two integer forms directly, so
a Fraction is built once per lattice point, or only for a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import hyperg, liemod, linalg
from . import kappa as kappa_mod
from .kappa import ParameterSet
from .linalg import Matrix
from .numeric import (
    MultiIndex,
    Scalar,
    clear_denominators,
    enumerate_degree_points,
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

    def __call__(self, y: MultiIndex) -> Scalar:
        return self.constant + sum(
            c * y[l] for l, c in enumerate(self.linear) if c != 0
        )

    def is_zero(self) -> bool:
        return self.constant == 0 and all(x == 0 for x in self.linear)

    def to_json_dict(self) -> dict:
        return {
            "constant": format_scalar(self.constant),
            "linear": [format_scalar(x) for x in self.linear],
        }


@dataclass(frozen=True, eq=False)
class DifferenceOperator:
    """Stencil plus the eigenvalue law it satisfies on tables (the law
    takes the reduced opposite-side index).  `scale` is D, the lcm of
    the stencil's denominators (1 when a coefficient is a float), and
    the lattice form holds every coefficient times D."""

    d: int
    N: int
    stencil: dict
    eigenvalue: Callable | None
    name: str
    scale: int = field(init=False, repr=False)
    _scaled: dict = field(init=False, repr=False)
    _forms: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        ints, D = clear_denominators(
            [x for c in self.stencil.values() for x in (c.constant, *c.linear)]
        )
        it = iter(ints)
        scaled = {
            s: AffineCoeff(next(it), tuple(next(it) for _ in c.linear))
            for s, c in self.stencil.items()
        }
        object.__setattr__(self, "scale", D)
        object.__setattr__(self, "_scaled", scaled)

    def term_count(self) -> int:
        return len(self.stencil)

    def lattice_form(self, tol: Scalar = 0) -> tuple:
        """The scaled stencil evaluated on the lattice, once per
        tolerance: one (y, ((target, c D), ...)) record per reduced point
        y in layout order, keeping the terms whose c is not within tol of
        0 in stencil order.  A kept term whose target leaves the simplex
        raises AssertionError."""
        form = self._forms.get(tol)
        if form is None:
            form = self._forms[tol] = tuple(
                (y, self._terms_at(y, tol * self.scale))
                for y in enumerate_degree_points(self.d, self.N)
            )
        return form

    def _terms_at(self, y: MultiIndex, tol: Scalar) -> tuple:
        terms = []
        for s, coeff in self._scaled.items():
            c = coeff(y)
            if scalars_equal(c, 0, tol):
                continue
            target = tuple(a + b for a, b in zip(y, s))
            if min(target) < 0 or sum(target) > self.N:
                c = Fraction(c, self.scale) if is_exact(c) else c
                raise AssertionError(
                    f"{self.name}: shift {s} at {y} leaves the lattice with "
                    f"coefficient {format_scalar(c)}, reading outside it"
                )
            terms.append((target, c))
        return tuple(terms)


def _canonical(stencil: dict) -> dict:
    return {s: c for s, c in stencil.items() if not c.is_zero()}


def _stencil(M: Matrix, N: int) -> dict:
    """The derivation action x^lam -> sum_kl M[k][l] lam_l x^(lam+v_k-v_l)
    of a (d+1) x (d+1) matrix on degree-N monomials, read at reduced
    points y = lam[1:]: shift e_k - e_l with coefficient M[k][l] lam_l,
    where e_0 = 0 and lam_0 = N - |y|, so the no-shift term is
    M[0][0] N + sum_j (M[j][j] - M[0][0]) y_j.  One term order: the
    shifts -e_l, then e_k, then none, then e_k - e_l for k, l >= 1;
    zero terms are dropped."""
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
            stencil[shift] = AffineCoeff(M[0][0] * N, diag)
        else:
            stencil[shift] = times_lam(l, M[k][l])
    return _canonical(stencil)


def _operator(
    M: Matrix, N: int, eigenvalue: Callable, name: str, tol: Scalar
) -> DifferenceOperator:
    """The operator of M's stencil, its lattice form built at tol."""
    op = DifferenceOperator(len(M) - 1, N, _stencil(M, N), eigenvalue, name)
    op.lattice_form(tol)
    return op


def _generator(
    kappa: ParameterSet, N: int, i: int, tol: Scalar, name: str
) -> DifferenceOperator:
    """Generator i of the family shifting the second (tilde) index of
    kappa's table, under the given name: the stencil of plain phi_i over
    the conjugated basis (`liemod.mirror_closed_form`), eigenvalue
    m_i - N/(d+1) read off the first index."""
    d = kappa.d
    if not 1 <= i <= d:
        raise IndexError(f"index {i} out of range for d = {d}")
    shift = Fraction(N, d + 1)
    return _operator(
        liemod.mirror_closed_form(kappa, i),
        N,
        lambda m, i=i, shift=shift: m[i - 1] - shift,
        name,
        tol,
    )


def operator_mtilde(
    kappa: ParameterSet, N: int, i: int, tol: Scalar = 0
) -> DifferenceOperator:
    """Generator i of the family shifting the second (tilde) index;
    eigenvalue m_i - N/(d+1) read off the first index."""
    return _generator(kappa, N, i, tol, f"mtilde_{i}")


def operator_m(
    kappa: ParameterSet, N: int, i: int, tol: Scalar = 0
) -> DifferenceOperator:
    """Generator i of the mirror family shifting the first index: the
    tilde generator of the involuted set, whose p and pt are swapped and
    u transposed, so its matrix is the closed form of the conjugated
    phi_i itself.  Eigenvalue mt_i - N/(d+1)."""
    return _generator(kappa_mod.involute(kappa, tol), N, i, tol, f"m_{i}")


def _universal_matrix(kappa: ParameterSet) -> Matrix:
    """p 1^t - I: only the weights enter, never u."""
    p = [exactify(x) for x in kappa.p]
    columns_p = tuple(tuple(x for _ in p) for x in p)
    return linalg.mat_sub(columns_p, linalg.identity(len(p)))


def operator_universal(
    kappa: ParameterSet, N: int, tol: Scalar = 0
) -> DifferenceOperator:
    """Parameter-light operator with eigenvalue -|m|: the stencil of
    p 1^t - I."""
    return _operator(_universal_matrix(kappa), N, lambda m: -sum(m), "universal", tol)


def apply(
    op: DifferenceOperator, F: Callable, tol: Scalar = 0
) -> dict:
    """(op F)(y) = sum_s c_s(y) F(y+s) over the whole lattice, read off
    the operator's lattice form, so F is only called on lattice points.
    Each point sums c_s(y) D F(y+s), on ints when F gives ints, and is
    divided by D once."""
    D = op.scale
    out = {}
    for y, terms in op.lattice_form(tol):
        acc = 0
        for target, c in terms:
            acc += c * F(target)
        out[y] = Fraction(acc, D) if isinstance(acc, (int, Fraction)) else acc / D
    return out


def _bounds(op: DifferenceOperator, F: Callable, tol: Scalar) -> dict:
    """The tolerance of (op F)(y) at each lattice point y: tol times the
    larger of 1 and the summed magnitudes |c_s(y) F(y+s)| of its stencil
    terms."""
    return {
        y: tol * max(1, sum(abs(c * F(t)) for t, c in terms) / op.scale)
        for y, terms in op.lattice_form(tol)
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
    got = apply(op, lambda y: ints[reduced[y]], tol)
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
    values: hyperg.PolynomialTable | None = None,
) -> CheckReport:
    """Both generator families against a full table: rows are
    eigenfunctions of the tilde-shifting family, columns of the mirror
    family, and everything of the universal operator."""
    d = kappa.d
    tab = values if values is not None else hyperg.table(kappa, N)
    reduced = {pt[1:]: idx for idx, pt in enumerate(tab.points)}
    failures = []
    max_resid = 0

    ops_second = [operator_mtilde(kappa, N, i, tol) for i in range(1, d + 1)]
    ops_first = [operator_m(kappa, N, i, tol) for i in range(1, d + 1)]
    universal = operator_universal(kappa, N, tol)

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
    values: hyperg.PolynomialTable | None = None,
) -> CheckReport:
    """Eigenvalue -|m| on every table row, plus the identity
    universal = -(sum of the tilde-shifting generators) - dN/(d+1) as the
    matrix identity p 1^t - I = -sum_i M_i - d/(d+1) I of the matrices
    whose stencils they are (M_i = `liemod.mirror_closed_form`).  The
    stencil is linear in its matrix, so this gives the stencil identity
    at every N; it collapses the u-dependence via the defining matrix
    equation, and its trace reads sum p = 1."""
    tab = values if values is not None else hyperg.table(kappa, N)
    reduced = {pt[1:]: idx for idx, pt in enumerate(tab.points)}
    universal = operator_universal(kappa, N, tol)
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


def _compose(a: DifferenceOperator, b: DifferenceOperator, tol: Scalar) -> dict:
    """The product ab as a matrix scaled by D_a D_b: {y: {z: entry}},
    row y of a's lattice form times the rows of b's, on ints."""
    rows_b = dict(b.lattice_form(tol))
    out = {}
    for y, terms in a.lattice_form(tol):
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
        "second_index_family": [
            operator_mtilde(kappa, N, i, tol) for i in range(1, d + 1)
        ],
        "first_index_family": [
            operator_m(kappa, N, i, tol) for i in range(1, d + 1)
        ],
    }
    for family_name, ops in families.items():
        for a in range(len(ops)):
            for b in range(a + 1, len(ops)):
                pair_count += 1
                ab = _compose(ops[a], ops[b], tol)
                ba = _compose(ops[b], ops[a], tol)
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
