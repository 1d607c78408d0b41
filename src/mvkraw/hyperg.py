"""Two of the three evaluation routes, full tables, and the
orthogonality and duality checks.

The primary route sums a matrix-indexed hypergeometric series over
square nonnegative-integer kernels with bounded margins.  The oracle
route expands the defining generating function

    prod_i (1 + sum_j u[i][j] z_j)^mt_i  =  sum_m binom * P(m, mt) z^m

with `numeric.expand_forms`: one expansion is the whole column P(., mt)
(`generating_column`), a capped one a single value.  The pairing route
of `liemod` expands the same product (substitute y_j = pt_j x_j in
xt^nt) through the same core, so routes 2 and 3 share their expansion
and only the kernel sum is independent of it.  All routes take the
reduced degree vectors m, mt (length d, with the 0-th coordinates
N - |m|, N - |mt| implied) and agree exactly.

The kernel sum runs on integers: omega is scaled to W/D once per set
instance, and the view of each N, with the factorials and powers that
depend on nothing else, is kept on the instance
(`ParameterSet.kernel_form`), so an entry never hashes or compares the
set.  The view also holds the memo of kernel row-vector lists
(`numeric.enumerate_kernels`): the entries of a table share the lists,
which go with the set instance, not with a module.  Each value is then
one division, one Fraction, at the end; floats take the same loop.

Tables hold P over the full degree-N lattice in graded-lex order, rows
indexed by the first argument, built by kernel sums.  A table keeps one
integer view of itself, every row and column scaled to integers on
first use (`PolynomialTable.integer_view`), which the table checks of a
run share.  On top of tables sit the two-sided orthogonality check
(weighted columns and weighted rows both come out diagonal with
explicit normalizations, under the multinomial weights N! w^n/n! of
`numeric.multinomial_weights`; its Gram sums are compared on ints by
`numeric.gram_misses`, which `liemod`'s norms check shares) and the
duality check: row n of the table is the generating column of n for
the involuted parameter set, so duality crosses the two routes.
"""

from __future__ import annotations

import cmath
import functools
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Sequence

from . import kappa as kappa_mod
from .kappa import ParameterSet
from .numeric import (
    EXACT,
    Scalar,
    clear_denominators,
    enumerate_degree_points,
    enumerate_kernels,
    enumerate_lattice,
    exactify,
    expand_forms,
    format_scalar,
    gram_misses,
    is_exact,
    multi_factorial,
    multinomial,
    multinomial_weights,
    parse_scalar,
    power_product,
    ratio,
    scalars_equal,
    weight_over_factorial,
)
from .report import CheckReport


def check_degree_vector(d: int, N: int, v: Sequence[int], name: str) -> tuple:
    """v as a tuple of d nonnegative integer parts with sum at most N,
    else a ValueError naming `name`.  A tuple of ints (bools included)
    is accepted on its length, sum and least part alone; anything else
    takes the part-by-part checks and their messages."""
    if type(v) is tuple and len(v) == d:
        try:
            if type(s := sum(v)) is int and s <= N and min(v) >= 0:
                return v
        except (TypeError, ValueError):
            pass
    v = tuple(v)
    if len(v) != d:
        raise ValueError(f"{name} must have {d} parts, got {len(v)}")
    if any(part < 0 or part != int(part) for part in v):
        raise ValueError(f"{name} parts must be nonnegative integers: {v}")
    if sum(v) > N:
        raise ValueError(f"|{name}| = {sum(v)} exceeds N = {N}")
    return v


class _Falling(dict):
    """n -> [n!/(n-c)! for c = 0..n], each list made on first use: a
    single evaluation at a large N makes two lists, not N + 1."""

    def __init__(self, fact: tuple):
        super().__init__()
        self.fact = fact

    def __missing__(self, n: int) -> list:
        fact = self.fact
        falls = self[n] = [fact[n] // fact[n - c] for c in range(n + 1)]
        return falls


def _integer_view(kappa: ParameterSet, N: int) -> tuple:
    """The term factors of the kernel sums that depend only on (kappa, N):
    whether the set is exact, the factorials up to N, the falling
    factorials n!/(n-c)! by n (each list made on first use),
    (-1)^t D^(N-t) (N-t)! per kernel total t, {row: (W_i^row, row!)} per
    row i, the scale N!^2 D^N, with omega = W/D taken from
    `ParameterSet.kernel_form`, and the memo of kernel row-vector lists
    (`numeric.enumerate_kernels`), filled as the sums run, so the
    entries of a table share them and none outlives the set instance.
    Built once per set instance and N and kept in that form's views, so
    finding it hashes nothing.  Where a float power leaves the float
    range, the OverflowError names omega and N.
    """
    exact, W, D, views = kappa.kernel_form
    if N in views:
        return views[N]
    fact = tuple(math.factorial(k) for k in range(N + 1))
    by_total = tuple((-1) ** t * D ** (N - t) * fact[N - t] for t in range(N + 1))
    vectors = list(enumerate_degree_points(kappa.d, N))
    try:  # only float powers overflow
        rows = tuple(
            {v: (power_product(Wi, v), multi_factorial(v)) for v in vectors}
            for Wi in W
        )
    except OverflowError:
        raise OverflowError(
            f"the approx powers of omega = {W} in the kernel sums at N = {N} "
            "leave the float range"
        ) from None
    view = views[N] = (exact, fact, _Falling(fact), by_total, rows, fact[N] ** 2 * D**N, {})
    return view


def eval_hypergeometric(
    kappa: ParameterSet, N: int, m: Sequence[int], mt: Sequence[int]
) -> Scalar:
    """Kernel-sum evaluation of P(m, mt).

    Summation runs over d x d nonnegative-integer matrices A; rising
    factorials of -m and -mt kill every A whose column sums exceed m or
    whose row sums exceed mt, so enumeration is capped accordingly (and
    the total never exceeds N, keeping the denominator nonzero).

    The sum runs on the integer view omega = W/D of `_integer_view`:
    with c, r the column and row sums of A and t its total,

        N!^2 D^N term(A) = (-1)^t D^(N-t) (N-t)! N!/prod A!
                           prod_j m_j!/(m_j-c_j)! prod_i mt_i!/(mt_i-r_i)!
                           prod W^A

    is an integer (the signs of the two rising factorials cancel, as
    sum c = sum r = t), so the terms add up on ints and the sum is
    divided by N!^2 D^N once.  Floats take the same loop with D = 1 and
    a true division; where a term or the quotient leaves the float
    range, the OverflowError names the value.
    """
    d = kappa.d
    m = check_degree_vector(d, N, m, "m")
    mt = check_degree_vector(d, N, mt, "mt")
    exact, fact, falling, by_total, rows, scale, memo = _integer_view(kappa, N)
    col_falls = [falling[x] for x in m]
    row_falls = [falling[x] for x in mt]

    acc = 0
    try:  # only floats overflow; ints and Fractions have no range
        for ker in enumerate_kernels(d, N, mt, m, memo):
            term = by_total[ker.total]
            cells = 1
            for row, r, powers, falls in zip(ker.entries, ker.row_sums, rows, row_falls):
                w, f = powers[row]
                term *= w * falls[r]
                cells *= f
            for c, falls in zip(ker.col_sums, col_falls):
                term *= falls[c]
            acc += term * (fact[N] // cells)
        if exact:
            return Fraction(acc, scale)
        value = acc / scale
    except OverflowError:
        value = math.inf
    if cmath.isfinite(value):
        return value
    raise OverflowError(
        f"the approx kernel sum of P({list(m)}, {list(mt)}) at N = {N} "
        "leaves the float range"
    )


def generating_column(
    kappa: ParameterSet, N: int, mt: Sequence[int], caps: Sequence[int] | None = None
) -> dict:
    """Generating-function evaluation of the column {n: P(n', mt)} over
    full lattice points n: one expansion of the product of the d+1 row
    factors (1 + sum_j u[i][j] z_j)^mt_i (mt_0 = N - |mt|), homogenised
    by z_0, each coefficient divided by the multinomial of n.  The
    expansion runs on ints for an exact set (`numeric.expand_forms`), so
    each value is one Fraction, c / (D multinomial(N, n)).  No point
    above ``caps`` is formed; a point missing from the result has P = 0.
    Independent of the kernel sum; used as its oracle.
    """
    d = kappa.d
    mt = check_degree_vector(d, N, mt, "mt")
    forms = [(1,) + kappa.u[i][1:] for i in range(d + 1)]
    coeffs, D = expand_forms(forms, (N - sum(mt),) + mt, caps)
    scaled = ((n, c, D * multinomial(N, n)) for n, c in coeffs.items())
    return {n: ratio(c, den) for n, c, den in scaled}


def eval_generating(
    kappa: ParameterSet, N: int, m: Sequence[int], mt: Sequence[int]
) -> Scalar:
    """P(m, mt) read off `generating_column`, capped at n = (N - |m|, m)
    so that no monomial beyond the one wanted is formed."""
    m = check_degree_vector(kappa.d, N, m, "m")
    n = (N - sum(m),) + m
    return generating_column(kappa, N, mt, n).get(n, Fraction(0))


@dataclass(frozen=True)
class PolynomialTable:
    """Values of P over the full degree-N lattice, graded-lex both ways.

    values[r][c] = P(points[r][1:], points[c][1:]) where points is the
    lattice in layout order; the first argument indexes rows.
    """

    kappa: ParameterSet
    N: int
    points: tuple
    values: tuple

    @functools.cached_property
    def integer_view(self) -> tuple:
        """(rows, columns): every row and every column of the table as
        (ints, S) with line = ints / S (`numeric.clear_denominators`; a
        float line is kept as it is, with S = 1).  Made on first use and
        kept on the instance, like `ParameterSet.kernel_form`, so the
        checks of a run share one scaling of each line."""
        return (
            tuple(clear_denominators(row) for row in self.values),
            tuple(clear_denominators(col) for col in zip(*self.values)),
        )


def table(kappa: ParameterSet, N: int) -> PolynomialTable:
    """Evaluate the full lattice-by-lattice grid of P by kernel sums."""
    points = tuple(enumerate_lattice(kappa.d, N))
    values = tuple(
        tuple(eval_hypergeometric(kappa, N, n[1:], nt[1:]) for nt in points)
        for n in points
    )
    return PolynomialTable(kappa, N, points, values)


def table_to_json_dict(tab: PolynomialTable) -> dict:
    return {
        "kappa": kappa_mod.to_json_dict(tab.kappa),
        "N": tab.N,
        "order": "grlex",
        "values": [[format_scalar(x) for x in row] for row in tab.values],
    }


def table_from_json_dict(obj: dict, mode: str = EXACT, tol: Scalar = 0) -> PolynomialTable:
    try:
        kap = kappa_mod.from_json_dict(obj["kappa"], mode, tol)
        N = obj["N"]
        order = obj["order"]
        raw = obj["values"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed table object: {exc}") from exc
    if isinstance(N, bool) or not isinstance(N, int) or N < 0:
        raise ValueError(f"table N must be a non-negative integer, got {N!r}")
    if order != "grlex":
        raise ValueError(f"unknown table order {order!r}")
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise ValueError("malformed table values: not a list of rows, each a list")
    size = math.comb(N + kap.d, kap.d)  # the lattice is made only at its size
    if len(raw) != size or any(len(r) != size for r in raw):
        raise ValueError("table dimensions do not match the lattice")
    points = tuple(enumerate_lattice(kap.d, N))
    try:
        values = tuple(tuple(parse_scalar(str(x), mode) for x in row) for row in raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed table value: {exc}") from exc
    return PolynomialTable(kap, N, points, values)


def check_orthogonality(
    kappa: ParameterSet,
    N: int,
    tol: Scalar = 0,
    *,
    tab: PolynomialTable,
) -> CheckReport:
    """Both diagonalization identities over the table.

    Columns: N! sum_n P(n,nt) P(n,kt) pt^n / n!  =  delta
    with diagonal value nt! / (N! nu^N p^nt), which is 1 / nu^N over the
    rows' weight; rows are the same identity on the transposed table
    with the two weight vectors exchanged (`numeric.multinomial_weights`).
    Both sides are one `numeric.gram_misses` each, on the table's integer
    view and integer weights, so an exact pair is compared on ints and
    a Fraction is built only for a miss.  In approx mode a pair passes
    within tol times the larger of 1 and the two diagonal values of its
    side.  Failures carry the residual, the columns and rows side of
    each pair in turn.
    """
    points = tab.points
    nu_pow = exactify(kappa.nu) ** N
    nfact = math.factorial(N)
    exact = all(map(is_exact, (kappa.nu, *kappa.p, *kappa.pt)))
    failures = []
    max_resid = 0

    rows, columns = tab.integer_view
    wt, wp = (multinomial_weights(w, N, points) for w in (kappa.pt, kappa.p))
    sides = []
    for side, lines, weights, (other, oscale), other_w in (
        ("columns", columns, wt, wp, kappa.p),
        ("rows", rows, wp, wt, kappa.pt),
    ):
        if exact:
            diag = [Fraction(oscale, x) / nu_pow for x in other]
        else:
            diag = [1 / (nfact * nu_pow * weight_over_factorial(other_w, x)) for x in points]
        sizes = [max(1, abs(x)) for x in diag]
        ints, scales = zip(*lines)
        misses = gram_misses(ints, scales, weights, diag, sizes, tol)
        sides.append(zip(repeat(side), misses))

    for side, (a, b, lhs, rhs, bound) in heapq.merge(*sides, key=lambda m: m[1][:2]):
        resid = lhs - rhs
        max_resid = max(max_resid, abs(resid))
        if not scalars_equal(lhs, rhs, bound):
            pair = [list(points[a]), list(points[b])]
            failures.append({"side": side, "pair": pair, "residual": format_scalar(resid)})

    details = {"pairs": 2 * len(points) ** 2, "max_residual": format_scalar(max_resid)}
    return CheckReport("orthogonality", not failures, failures, details)


def check_duality(
    kappa: ParameterSet,
    N: int,
    tol: Scalar = 0,
    *,
    tab: PolynomialTable,
) -> CheckReport:
    """The table is the transpose of the involuted set's: row n of the
    table against the generating column of n' for the involuted set, one
    expansion per row, so the check crosses the two routes.  In approx
    mode a pair passes within tol times the larger of 1 and the two
    values."""
    dual = kappa_mod.involute(kappa, tol)
    failures = []
    for n, row in zip(tab.points, tab.values):
        column = generating_column(dual, N, n[1:])
        for nt, a in zip(tab.points, row):
            b = column.get(nt, Fraction(0))
            bound = tol * max(1, abs(a), abs(b)) if tol else 0
            if not scalars_equal(a, b, bound):
                failures.append(
                    {
                        "pair": [list(n), list(nt)],
                        "value": format_scalar(a),
                        "dual_value": format_scalar(b),
                    }
                )
    return CheckReport(
        "duality", not failures, failures, {"pairs": len(tab.points) ** 2}
    )
