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
the reduced degree, checked by `check_universal` alone; as the action
is linear in its matrix, its identity with minus the sum of one family
less a multiple of the identity is checked once, as a matrix identity.

An operator is built from its matrix.  On first use
`liemod.lattice_form` scales M to integers once by D, the lcm of its
denominators, and its lattice form `rows` is the action of D M on
every monomial: for every point, in layout order, the (target, c D)
pairs on Python ints, each target given by its layout index.  The
action is linear in M, so the form is read from the unit moves of
`liemod.move_table`: a run builds that table once and hands it to
every operator it builds (`generators`, and the universal operator of
`check_universal`).  An operator built outside a run, by a library
caller or a test, builds its own table on first use; no command
reaches that path, as the `stencil` dump reads no lattice form.  A
float matrix keeps its floats, with D = 1, so approximate mode runs
the same code.  The action stays on the lattice: an outward term
carries the integer lam_l, which is 0 exactly where the shift would
leave the simplex.  `apply` sums each point's
terms over a line read by index and leaves the sums scaled by D.  The
eigen checks feed it the lines of the table's integer view
(`hyperg.PolynomialTable.integer_view`, each line scaled once per run)
and compare each sum with the eigenvalue times the line on ints, and
`check_commute` composes two integer forms directly, so a Fraction is
built only where a check fails.  The affine form of the action, one
coefficient per shift that is affine in the point (`_stencil`), is kept
for the `stencil` dump and for the `term_counts` of `check_eigen`, its
number of terms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import hyperg, liemod, linalg
from .kappa import ParameterSet
from .linalg import Matrix
from .numeric import (
    Scalar,
    enumerate_degree_points,
    exactify,
    format_scalar,
    ratio,
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
    the lattice form: rows[k] = ((target, c D), ...) for the k-th point
    of the layout order, the terms of D M acting on x^lam, each target
    given by its layout index, read from `moves`, the run's
    `liemod.move_table`.  `moves` is left out only outside a run, by
    library callers and tests; such an operator builds its own table.
    Both are built on first use, so
    the `stencil` dump, which reads neither, never acts on the
    lattice."""

    matrix: Matrix
    N: int
    eigenvalue: Callable | None
    name: str
    moves: tuple | None = None

    @functools.cached_property
    def _lattice_form(self) -> tuple:
        moves = self.moves
        if moves is None:
            moves = liemod.move_table(self.d, self.N)
        return liemod.lattice_form(self.matrix, moves)

    rows = property(lambda self: self._lattice_form[0])
    scale = property(lambda self: self._lattice_form[1])

    @property
    def d(self) -> int:
        return len(self.matrix) - 1

    @property
    def stencil(self) -> dict:
        """The affine form of the action (`_stencil`)."""
        return _stencil(self.matrix, self.N)


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
    pairs = [(0, l) for l in js] + [(k, 0) for k in js] + [(0, 0)]
    pairs += [(k, l) for k in js for l in js if k != l]
    stencil = {}
    for k, l in pairs:
        c = M[k][l]
        if k == l:
            coeff = AffineCoeff(c * N, tuple(M[j][j] - c for j in js))
            if coeff.is_zero():
                continue
        elif c == 0:  # M[k][l] lam_l vanishes with its entry
            continue
        elif l == 0:  # lam_0 = N - |y|
            coeff = AffineCoeff(c * N, (-c,) * d)
        else:
            coeff = AffineCoeff(0, tuple(c if m == l else 0 for m in js))
        stencil[tuple((m == k) - (m == l) for m in js)] = coeff
    return stencil


def _tilde_law(d: int, N: int, i: int) -> Callable:
    """The eigenvalue law m_i - N/(d+1) of generator i, refusing an i
    outside 1..d."""
    if not 1 <= i <= d:
        raise IndexError(f"index {i} out of range for d = {d}")
    return lambda m: Fraction((d + 1) * m[i - 1] - N, d + 1)


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
    closed = liemod.closed_form(kappa.integer_view, i)
    return DifferenceOperator(closed, N, law, f"m_{i}")


def generators(
    kappa: ParameterSet, N: int, forms: liemod.ClosedForms, moves: tuple
) -> dict:
    """Both generator families at N, each operator as `operator_mtilde`
    and `operator_m` build it but from the run's closed forms and move
    table, so a run builds each lattice form once: {family name:
    [generator 1..d]}."""
    d = kappa.d
    laws = [(i, _tilde_law(d, N, i)) for i in range(1, d + 1)]
    return {
        "second_index_family": [
            DifferenceOperator(forms.mirror[i], N, law, f"mtilde_{i}", moves)
            for i, law in laws
        ],
        "first_index_family": [
            DifferenceOperator(forms.closed[i], N, law, f"m_{i}", moves) for i, law in laws
        ],
    }


def _universal_matrix(kappa: ParameterSet) -> Matrix:
    """p 1^t - I: only the weights enter, never u."""
    p = [exactify(x) for x in kappa.p]
    columns_p = tuple(tuple(x for _ in p) for x in p)
    return linalg.mat_sub(columns_p, linalg.identity(len(p)))


def operator_universal(
    kappa: ParameterSet, N: int, moves: tuple | None = None
) -> DifferenceOperator:
    """Parameter-light operator with eigenvalue -|m|: the action of
    p 1^t - I, its lattice form read from `moves` when given."""
    matrix = _universal_matrix(kappa)
    return DifferenceOperator(matrix, N, lambda m: -sum(m), "universal", moves)


def apply(op: DifferenceOperator, line: Sequence[Scalar]) -> list:
    """D (op F) at every lattice point, in layout order, for the lattice
    function F given as its line of values in layout order: each point
    sums c D line[target] over its row of the lattice form, on ints when
    the line holds ints.  The caller divides by D = op.scale, or
    compares on ints and divides only for a miss."""
    out = []
    for terms in op.rows:
        acc = 0
        for target, c in terms:
            acc += c * line[target]
        out.append(acc)
    return out


def _bounds(op: DifferenceOperator, line: Sequence[Scalar], tol: Scalar) -> list:
    """The tolerance of (op F)(y) at each lattice point y: tol times the
    larger of 1 and the summed magnitudes |c F(target)| of its terms."""
    return [
        tol * max(1, sum(abs(c * line[t]) for t, c in terms) / op.scale)
        for terms in op.rows
    ]


def _misses(op: DifferenceOperator, ev: Scalar, scaled: tuple, tol: Scalar):
    """Where op applied to a table line is not literally ev times the
    line: (k, got, want, bound) per such layout index k, with the
    tolerance of `_bounds` (0 in exact mode).  `scaled` is the line's
    (ints, S) from the table's integer view, a float line itself with
    S = 1; each point is compared on ints, acc den == num ints[k] D for
    ev = num/den, and a Fraction is built only for a miss."""
    ints, S = scaled
    D = op.scale
    if tol:
        bounds = _bounds(op, ints if S == 1 else [Fraction(x, S) for x in ints], tol)
    num, den = ev.numerator, ev.denominator
    for k, acc in enumerate(apply(op, ints)):
        if type(acc) is int and acc * den == num * ints[k] * D:
            continue
        yield k, ratio(acc, D * S), ev * ratio(ints[k], S), bounds[k] if tol else 0


def check_eigen(
    kappa: ParameterSet,
    N: int,
    tol: Scalar = 0,
    *,
    tab: hyperg.PolynomialTable,
    gens: dict,
) -> CheckReport:
    """Both generator families (`generators`) against a full table: rows
    are eigenfunctions of the tilde-shifting family and columns of the
    mirror family (the universal operator is `check_universal`'s)."""
    d = kappa.d
    points = tab.points
    failures = []
    max_resid = 0

    ops_second = gens["second_index_family"]
    ops_first = gens["first_index_family"]

    # columns are the rows of the transposed table, as the mirror family
    # is the tilde family of the involuted set
    rows, columns = tab.integer_view
    for scaled_lines, ops in ((rows, ops_second), (columns, ops_first)):
        for fixed, scaled in zip(points, scaled_lines):
            for op in ops:
                ev = op.eigenvalue(fixed[1:])
                for k, got, want, bound in _misses(op, ev, scaled, tol):
                    max_resid = max(max_resid, abs(got - want))
                    if not scalars_equal(got, want, bound):
                        failures.append(
                            {
                                "operator": op.name,
                                "fixed_index": list(fixed),
                                "at": list(points[k][1:]),
                                "got": format_scalar(got),
                                "want": format_scalar(want),
                            }
                        )

    details = {
        "term_counts": {
            "second_index_family": [len(op.stencil) for op in ops_second],
            "first_index_family": [len(op.stencil) for op in ops_first],
            "universal": len(operator_universal(kappa, N).stencil),
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
    forms: liemod.ClosedForms,
    moves: tuple,
) -> CheckReport:
    """Eigenvalue -|m| on every table row, plus the identity
    universal = -(sum of the tilde-shifting generators) - dN/(d+1) as the
    matrix identity p 1^t - I = -sum_i M_i - d/(d+1) I of the matrices
    the operators are built from (M_i, the run's mirror closed forms).
    The action is linear in its matrix, so this gives the operator
    identity at every N; it collapses the u-dependence via the defining matrix
    equation, and its trace reads sum p = 1.  The operator's lattice form
    is read from the run's move table."""
    points = tab.points
    universal = operator_universal(kappa, N, moves)
    failures = []
    max_resid = 0

    for n, scaled in zip(points, tab.integer_view[0]):
        ev = universal.eigenvalue(n[1:])
        for k, got, want, bound in _misses(universal, ev, scaled, tol):
            resid = abs(got - want)
            max_resid = max(max_resid, resid)
            if not scalars_equal(got, want, bound):
                failures.append(
                    {
                        "operator": "universal",
                        "fixed_index": list(n),
                        "at": list(points[k][1:]),
                        "residual": format_scalar(resid),
                    }
                )

    d = kappa.d
    rhs = linalg.mat_scale(Fraction(d, d + 1), linalg.identity(d + 1))
    for i in range(1, d + 1):
        rhs = linalg.mat_add(rhs, forms.mirror[i])
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


def _compose(a: DifferenceOperator, b: DifferenceOperator) -> list:
    """The product ab as a matrix scaled by D_a D_b, one {z: entry} row
    per layout index: row k of a's lattice form times the rows of b's,
    on ints."""
    rows_b = b.rows
    out = []
    for terms in a.rows:
        row: dict = {}
        for x, c in terms:
            for z, e in rows_b[x]:
                row[z] = row.get(z, 0) + c * e
        out.append(row)
    return out


def check_commute(
    kappa: ParameterSet, N: int, tol: Scalar = 0, *, gens: dict
) -> CheckReport:
    """Pairwise commutation of each generator family (`generators`) as
    operators on the full function space, tested on every delta basis
    function (not on table eigenfunctions, which would be circular):
    column y0 of the composed matrices ab and ba is the image of the
    delta at y0, and every entry of both is compared, scaled by D_a D_b."""
    d = kappa.d
    points = list(enumerate_degree_points(d, N))
    failures = []
    pair_count = 0
    for family_name, ops in gens.items():
        for a in range(len(ops)):
            for b in range(a + 1, len(ops)):
                pair_count += 1
                ab = _compose(ops[a], ops[b])
                ba = _compose(ops[b], ops[a])
                bound = tol * ops[a].scale * ops[b].scale
                misses = sorted(
                    (k0, k)
                    for k, (row_ab, row_ba) in enumerate(zip(ab, ba))
                    for k0 in row_ab.keys() | row_ba.keys()
                    if not scalars_equal(row_ab.get(k0, 0), row_ba.get(k0, 0), bound)
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
