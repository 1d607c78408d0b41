"""Two of the three evaluation routes, full tables, and the
orthogonality and duality checks.

The primary route sums a matrix-indexed hypergeometric series over
square nonnegative-integer kernels with bounded margins.  The oracle
route expands the defining generating function

    prod_i (1 + sum_j u[i][j] z_j)^mt_i  =  sum_m binom * P(m, mt) z^m

with `numeric.expand_forms`: one expansion is the whole column P(., mt)
(`generating_column`), a capped one a single value, as `eval` takes
it.  The columns of every mt together are the lines of one symmetric
power of the row factors (`generating_forms`), which the checks read
as `liemod.generating_matrix`.  The pairing route of `liemod` expands
the same product (substitute y_j = pt_j x_j in xt^nt), so routes 2
and 3 share their expansion and only the kernel sum is independent of
it.  All routes take the
reduced degree vectors m, mt (length d, with the 0-th coordinates
N - |m|, N - |mt| implied) and agree exactly.

The kernel sum runs on integers, in both modes: omega = 1 - u is read
as W/D off the set's integer view (`ParameterSet.integer_view`), an
approx set's floats at their exact dyadic values, u = U/D giving
W = D - U, and the view of each N, with the factorials and powers that
depend on nothing else, is kept with it on the instance, so an entry
never hashes or compares the set.  The kernel term is written once, in
`_margin_transfer`, which sums it by kernel margins over the entries of
the kernels, capped at N for a table and at (mt, m) for one value.
Each value is then one division at the end: a Fraction for an exact
set, the correctly rounded float for an approx one.

Tables hold P over the full degree-N lattice in graded-lex order, rows
indexed by the first argument.  Their form is chosen by d alone: a set
with d >= 2 sums every kernel into an integer matrix S over the kernel
margins, by one transfer, and contracts it with the falling factorials,
F S^T F^T; d = 1 takes one `eval_hypergeometric` per entry on the terms
that the same transfer gives (see `table`).  An exact table stays on
integers from build to file: its rows are integer lines over a scale
(`PolynomialTable.lines`), T's rows over N!^2 D^N as built or a parsed
row's ints over the lcm of its denominators, written with one gcd per
entry (`numeric.format_ratio`) and read without a Fraction per entry
(`numeric.parse_ratio`).  A table keeps one integer view of itself,
every row and column in lowest terms, read off the lines on first use
(`PolynomialTable.integer_view`), which the table checks of a run
share; its Fraction values are made only when read, which a passing
exact check does not do.  On top of tables sit the two-sided
orthogonality check (weighted columns and weighted rows both come out
diagonal with explicit normalizations, under the multinomial weights
N! w^n/n! of `numeric.multinomial_weights`; its Gram sums are compared
on ints by `numeric.gram_misses`, which `liemod`'s norms check shares)
and the duality check: row n of the table is the generating column of
n for the involuted parameter set, line n of its generating matrix, so
duality crosses the two routes.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, product, repeat
from operator import mul
from typing import Sequence

from . import kappa as kappa_mod
from . import linalg
from .kappa import ParameterSet
from .numeric import (
    APPROX,
    EXACT,
    Scalar,
    clear_denominators,
    enumerate_kernels,
    enumerate_lattice,
    exactify,
    expand_forms,
    format_ratio,
    format_scalar,
    gram_misses,
    misses,
    multinomial,
    multinomial_weights,
    parse_ratio,
    parse_scalar,
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


@dataclass(frozen=True, eq=False)
class _View:
    """The term factors of the kernel sums that depend only on (kappa, N),
    with omega = W/D on ints (see `_integer_view`)."""

    exact: bool  # the integer view's flag
    W: list  # the rows of omega, on ints over D
    N: int
    fact: tuple  # k! for k = 0..N
    falling: _Falling  # n!/(n-c)! by n, each list made on first use
    by_total: tuple  # per kernel total t: (-1)^t D^(N-t) (N-t)!, at d = 1 the whole term
    scale: int  # N!^2 D^N


def _integer_view(kappa: ParameterSet, N: int) -> _View:
    """The `_View` of (kappa, N), built once per set instance and N and
    kept in the views of `ParameterSet.integer_view`, so finding it
    hashes nothing.  omega = 1 - u[i][j], i, j >= 1, is W/D, W = D - U
    on the view's u = U/D.  An approx set's floats are dyadic rationals,
    so its u is scaled to ints at its exact values (`Fraction` of each
    float, `linalg.integer_rows`): its kernel sums run on the same ints
    as an exact set's, and each value is rounded once, at the end.

    At d = 1 a kernel is its total t, so by_total holds its whole term
    c[t] = (-1)^t D^(N-t) (N-t)! N!/t! W^t, read off the diagonal
    S[t][t] of the margin transfer (`_margin_transfer`).
    """
    exact, _, _, _, (u, D), views = kappa.integer_view
    if N in views:
        return views[N]
    if not exact:
        u, D = linalg.integer_rows([[Fraction(x) for x in row] for row in u])
    W = [[D - x for x in row[1:]] for row in u[1:]]
    fact = tuple(accumulate(range(1, N + 1), mul, initial=1))
    by_total = [(-1) ** t * D ** (N - t) * fact[N - t] for t in range(N + 1)]
    if kappa.d == 1:
        sums = _margin_transfer(W, N, fact, by_total, (N,), (N,))
        by_total = [sums.get(((t,), (t,)), 0) for t in range(N + 1)]
    scale = fact[N] ** 2 * D**N
    view = views[N] = _View(exact, W, N, fact, _Falling(fact), tuple(by_total), scale)
    return view


def _margin_transfer(
    W: list, N: int, fact: tuple, by_total: Sequence, row_caps: Sequence, col_caps: Sequence
) -> dict:
    """{(r, c): S[r][c]}, S[r][c] = sum of by_total[t] N!/A! W^A over the
    d x d kernels A of total t <= N with row sums r <= row_caps and
    column sums c <= col_caps, on ints, built entry by entry of A without
    listing a kernel.  This is the one place where the kernel term is
    written: a table passes the caps N, `eval_hypergeometric` the
    degree vectors (mt, m), beyond which the falling factorials vanish.

    As N!/A! = (N!/t!) multinomial(t; A), a state, keyed by the row sums
    so far (the last one still open) and the column sums, holds the sum
    of multinomial(t; A) W^A over the partial kernels that reach it.
    Setting entry (i, j) to a multiplies a state of total t by
    W_ij^a C(t + a, a), which p = p W_ij (t + a) // a builds one a at a
    time, each division exact; an entry with W_ij = 0 can only be 0 and
    leaves the states as they are.  The finished states are scaled by
    by_total[t] N!/t!.  At d = 1 the states are the totals t, and S[t][t]
    is the term of Griffiths' Krawtchouk 2F1.
    """
    d = len(W)
    states = {((), (0,) * d): 1}
    for Wi, row_cap in zip(W, row_caps):
        states = {(rows + (0,), cols): v for (rows, cols), v in states.items()}
        for j, (w, col_cap) in enumerate(zip(Wi, col_caps)):
            if not w:
                continue
            grown = dict(states)  # every state with entry (i, j) = 0
            for (rows, cols), p in states.items():
                t = sum(cols)
                head, s = rows[:-1], rows[-1]
                left, c, right = cols[:j], cols[j], cols[j + 1 :]
                for a in range(1, min(N - t, row_cap - s, col_cap - c) + 1):
                    p = p * w * (t + a) // a
                    key = head + (s + a,), left + (c + a,) + right
                    grown[key] = grown.get(key, 0) + p
            states = grown
    top = fact[N]
    sums = {}
    for key, v in states.items():
        t = sum(key[1])
        sums[key] = by_total[t] * (top // fact[t]) * v
    return sums


def _rounded(view: _View, acc: int, m: Sequence[int], mt: Sequence[int]) -> float:
    """P(m, mt) = acc / N!^2 D^N of an approx set as the nearest float
    (int / int true division rounds once); where it leaves the float
    range, the OverflowError names P(m, mt) and N."""
    try:
        return acc / view.scale
    except OverflowError:
        raise OverflowError(
            f"the approx kernel sum of P({list(m)}, {list(mt)}) at N = {view.N} "
            "leaves the float range"
        ) from None


def eval_hypergeometric(
    kappa: ParameterSet, N: int, m: Sequence[int], mt: Sequence[int]
) -> Scalar:
    """Kernel-sum evaluation of P(m, mt).

    Summation runs over d x d nonnegative-integer matrices A; rising
    factorials of -m and -mt kill every A whose column sums exceed m or
    whose row sums exceed mt, so the sum is capped accordingly (and the
    total never exceeds N, keeping the denominator nonzero).

    The sum runs on the integer view omega = W/D of `_integer_view`:
    with c, r the column and row sums of A and t its total,

        N!^2 D^N term(A) = (-1)^t D^(N-t) (N-t)! N!/prod A!
                           prod_j m_j!/(m_j-c_j)! prod_i mt_i!/(mt_i-r_i)!
                           prod W^A

    is an integer (the signs of the two rising factorials cancel, as
    sum c = sum r = t), so the terms add up on ints and the sum is
    divided by N!^2 D^N once: a Fraction for an exact set, the correctly
    rounded float for an approx one (`_rounded`).  At d >= 2 the kernels
    enter through their margins alone: the margin transfer capped at
    rows <= mt and columns <= m (`_margin_transfer`) is contracted with
    the falling factorials fall(mt, r) fall(m, c).  At d = 1 the kernel
    is its total t = r = c (`numeric.enumerate_kernels`), and the term
    is the view's one integer for t times the two falling factorials.
    """
    d = kappa.d
    m = check_degree_vector(d, N, m, "m")
    mt = check_degree_vector(d, N, mt, "mt")
    view = _integer_view(kappa, N)
    col_falls = [view.falling[x] for x in m]
    row_falls = [view.falling[x] for x in mt]
    if d == 1:  # one integer term per total
        (col,), (row,), by_total = col_falls, row_falls, view.by_total
        acc = sum(col[t] * row[t] * by_total[t] for t in enumerate_kernels(N, mt[0], m[0]))
    else:
        sums = _margin_transfer(view.W, N, view.fact, view.by_total, mt, m)
        acc = sum(
            math.prod(map(list.__getitem__, row_falls, r))
            * math.prod(map(list.__getitem__, col_falls, c))
            * s
            for (r, c), s in sums.items()
        )
    return Fraction(acc, view.scale) if view.exact else _rounded(view, acc, m, mt)


def generating_forms(kappa: ParameterSet) -> tuple:
    """The d+1 row factors (1, u[i][1], ..., u[i][d]) of the generating
    function, each a linear form in z_0..z_d."""
    return tuple((1,) + row[1:] for row in kappa.u)


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
    mt = check_degree_vector(kappa.d, N, mt, "mt")
    coeffs, D = expand_forms(generating_forms(kappa), (N - sum(mt),) + mt, caps)
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
    lattice in layout order; the first argument indexes rows.  The table
    holds its rows as `lines`, one (line, S) per row with
    values[r][c] = line[c] / S: an exact table as it is built or read,
    ints over a scale S (the margin form's N!^2 D^N, a parsed row's lcm
    of its denominators), and a table of given values, from the d = 1
    per-entry sums, an approx set's rounded margin form or a caller, as
    those values with S = 1.
    """

    kappa: ParameterSet
    N: int
    points: tuple
    lines: tuple

    @functools.cached_property
    def values(self) -> tuple:
        """The rows of values, made on first read: each int entry x of a
        line as the Fraction x / S, any other entry as it is.  A table
        that is only written, or only passes its checks, never makes
        them."""
        return tuple(
            tuple(Fraction(x, S) if type(x) is int else x for x in line)
            for line, S in self.lines
        )

    @functools.cached_property
    def integer_view(self) -> tuple:
        """(rows, columns): every row and every column of the table as
        (ints, S) with line = ints / S in lowest terms, the form that
        `numeric.clear_denominators` gives (a float line is kept as it
        is, with S = 1).  It is read off the lines: a row of ints is
        divided by one gcd of its scale and entries, and the columns, on
        the lcm M of the row scales, by one gcd each; a line of given
        values is cleared by `clear_denominators` first.  Made on first
        use and kept on the instance, like `ParameterSet.integer_view`,
        so the checks of a run share one scaling of each line."""
        lines = [(line, S) if S != 1 else clear_denominators(line) for line, S in self.lines]
        if not all(type(x) is int for line, _ in lines for x in line):  # a float line
            columns = zip(*(line for line, _ in self.lines))  # given values, S = 1
            return tuple(lines), tuple(map(clear_denominators, columns))
        M = math.lcm(*(S for _, S in lines))
        lifted = (line if S == M else [x * (M // S) for x in line] for line, S in lines)
        columns = ((col, M) for col in zip(*lifted))
        return tuple(map(_lowest, lines)), tuple(map(_lowest, columns))


def _lowest(scaled: tuple) -> tuple:
    """(ints, S) of ints and S > 0 divided by their gcd."""
    ints, S = scaled
    g = math.gcd(S, *ints)
    return [x // g for x in ints] if g != 1 else list(ints), S // g


def _margin_table(kappa: ParameterSet, N: int, points: tuple) -> tuple:
    """The rows of T = F S^T F^T as (ints, N!^2 D^N) lines, an approx
    set's rows then as floats, each entry rounded once (`_rounded`),
    with scale 1 (see `table`).  S[r][c], the sum of (-1)^t D^(N-t)
    (N-t)! N!/A! W^A over the kernels A with row sums r and column sums
    c, comes on ints from one `_margin_transfer`, as by_col[c] =
    [(r, S[r][c]), ...] over layout indices."""
    view = _integer_view(kappa, N)
    falling, scale = view.falling, view.scale
    vectors = [n[1:] for n in points]
    index = {v: k for k, v in enumerate(vectors)}
    by_col = [[] for _ in index]
    caps = (N,) * kappa.d
    for (r, c), s in _margin_transfer(view.W, N, view.fact, view.by_total, caps, caps).items():
        by_col[index[c]].append((index[r], s))
    below = []  # per point v: (layout indices of c <= v, F[v][c])
    for v in vectors:
        cs = list(product(*(range(x + 1) for x in v)))
        rows = [falling[x] for x in v]
        falls = [math.prod(map(list.__getitem__, rows, c)) for c in cs]
        below.append((list(map(index.__getitem__, cs)), falls))
    lines = []
    for cols, falls in below:
        g = [0] * len(points)  # row m of F S^T
        for c, f in zip(cols, falls):
            for r, s in by_col[c]:
                g[r] += f * s
        lines.append(tuple(sum(map(mul, map(g.__getitem__, rs), fr)) for rs, fr in below))
    if view.exact:
        return tuple((line, scale) for line in lines)
    return tuple(
        (tuple(_rounded(view, x, m, mt) for x, mt in zip(line, vectors)), 1)
        for line, m in zip(lines, vectors)
    )


def table(kappa: ParameterSet, N: int) -> PolynomialTable:
    """The full lattice-by-lattice grid of P, by kernel sums, in one of
    two forms chosen by d alone.

    A set with d >= 2 takes the margin form.  A kernel A enters
    P(m, mt) through its row sums r and column sums c only by the
    falling factorials fall(mt, r) fall(m, c), so

        P(m, mt) = sum_{r <= mt, c <= m} fall(mt, r) K'[r][c] fall(m, c)

    with K' depending on (kappa, N) alone and block-diagonal in
    t = |r| = |c|: the multivariable form of the Mizukawa-Tanaka sum,
    whose d = 1 case is Griffiths' Krawtchouk 2F1.  The table then
    (1) sums the integers S[r][c] = N!^2 D^N K'[r][c] on the integer
    view of `_integer_view` by one transfer over the entries of the
    kernels of total <= N, capped at N, which lists no kernel
    (`_margin_transfer`); and (2) contracts
    T = F S^T F^T on ints, with F[v][c] = fall(v, c) for each c <= v
    generated under v, not filtered from the lattice (`_margin_table`).
    An exact table's lines are the rows of T over the scale N!^2 D^N,
    and no Fraction is made, so writing the table takes one gcd per
    entry (`numeric.format_ratio`) and its checks read the lines'
    integer view.  An approx set's T is the same on the exact values of
    its floats, and its lines are turned into floats once, at the end,
    each entry the correctly rounded value of its exact sum.  Nothing
    else of it is kept after the call.  The values are those of
    `eval_hypergeometric`, which takes the same transfer capped at
    (mt, m) per value.

    At d = 1 each margin class is a single kernel, its total t, so the
    per-entry sum already is the contraction: each entry, in both
    modes, is one `eval_hypergeometric`, the view's term c[t], the
    diagonal of the same transfer, times two falling factorials, over
    the totals 0..min(m, mt) (the benchmark's traced counts pin these
    per-entry sums).  Their rows are lines of values with scale 1.
    """
    points = tuple(enumerate_lattice(kappa.d, N))
    if kappa.d > 1:
        lines = _margin_table(kappa, N, points)
    else:
        lines = tuple(
            (tuple(eval_hypergeometric(kappa, N, n[1:], nt[1:]) for nt in points), 1)
            for n in points
        )
    return PolynomialTable(kappa, N, points, lines)


def table_to_json_dict(tab: PolynomialTable) -> dict:
    """The wire form: every value as `format_scalar` writes it, an entry
    of an integer line by `format_ratio` on the ints, with no Fraction."""
    return {
        "kappa": kappa_mod.to_json_dict(tab.kappa),
        "N": tab.N,
        "order": "grlex",
        "values": [
            [format_scalar(x) for x in line]
            if S == 1
            else [format_ratio(x, S) for x in line]
            for line, S in tab.lines
        ],
    }


def table_from_json_dict(obj: dict, mode: str = EXACT, tol: Scalar = 0) -> PolynomialTable:
    """The table of a wire form, checked against its lattice.  In exact
    mode each row is read into ints over the lcm of its denominators
    (`numeric.parse_ratio`), with no Fraction for an "a" or "a/b" entry;
    approx entries are floats (`parse_scalar`) with scale 1."""
    exact = mode != APPROX
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
    lines = []
    for n, row in zip(points, raw):
        line = []
        for nt, x in zip(points, row):
            try:
                line.append(parse_ratio(str(x)) if exact else parse_scalar(str(x), mode))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"malformed table value: {exc}") from exc
            except OverflowError as exc:  # an approx entry past the float range
                where = f"row {list(n)}, column {list(nt)}"
                raise OverflowError(f"the table entry {str(x)!r} at {where}: {exc}") from None
        if exact:
            S = math.lcm(*(b for _, b in line))
            lines.append((tuple(a * (S // b) for a, b in line), S))
        else:
            lines.append((tuple(line), 1))
    return PolynomialTable(kap, N, points, tuple(lines))


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
    Each side is one `numeric.gram_misses`, on the table's integer view
    and integer weights, so an exact pair is compared on ints and a
    Fraction is built only for a miss.  The rows side is summed only
    after the columns side misses, which an exact side does only where
    a pair fails and a float side does at every pair, so approx mode
    sums both.  In exact mode a passing columns side implies the rows
    side: it reads T^t Wt T = Dc for the square table T, the diagonal
    weights Wt of the columns and Dc of their diagonal values, and Dc is
    invertible, so T and Wt are too, and T Dc^-1 T^t = Wt^-1, which is
    the rows identity, as Dc^-1 = nu^N Wp.  A passing table's report is
    therefore that of both sides, and a failing one gets the records of
    both.  In approx mode a pair passes within tol times the larger of
    1 and the two diagonal values of its side.  Failures carry the
    residual, the columns and rows side of each pair in turn.
    """
    points = tab.points
    nu_pow = exactify(kappa.nu) ** N
    nfact = math.factorial(N)
    exact = kappa.integer_view[0]
    failures = []
    max_resid = 0

    rows, columns = tab.integer_view
    wt, wp = (multinomial_weights(kappa.integer_view[k], N, points) for k in (3, 2))
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
        first = next(misses, None)
        if first is None:  # a side without a miss; after the columns, the rows hold
            break
        sides.append(zip(repeat(side), chain([first], misses)))

    for side, (a, b, lhs, rhs, bound) in heapq.merge(*sides, key=lambda m: m[1][:2]):
        resid = lhs - rhs
        max_resid = max(max_resid, abs(resid))
        if not scalars_equal(lhs, rhs, bound):
            pair = [list(points[a]), list(points[b])]
            failures.append({"side": side, "pair": pair, "residual": format_scalar(resid)})

    details = {"pairs": 2 * len(points) ** 2, "max_residual": format_scalar(max_resid)}
    return CheckReport("orthogonality", not failures, failures, details)


def check_duality(
    N: int,
    tol: Scalar = 0,
    *,
    tab: PolynomialTable,
    G_dual: tuple,
) -> CheckReport:
    """The table is the transpose of the involuted set's: row n of the
    table against line n of the involuted set's generating matrix
    G_dual = (lines, D) (`liemod.generating_matrix`, built once per
    run), whose entry at nt is P(n', nt') times D multinomial(N, nt), so
    the check crosses the two routes.  Each row, its entries times their
    multinomials, is compared with its line by `numeric.misses`, on the
    table's integer view, so an exact pair is compared cross-multiplied
    on ints and its values are made only for a miss.  In approx mode a
    pair passes within tol times the larger of 1 and the two values."""
    points = tab.points
    lines, D = G_dual
    weights = [multinomial(N, nt) for nt in points]
    failures = []
    for n, (ints, S), line in zip(points, tab.integer_view[0], lines):
        for k, _, _ in misses(list(map(mul, ints, weights)), S, line, D):
            a, b = ratio(ints[k], S), ratio(line[k], D * weights[k])
            bound = tol * max(1, abs(a), abs(b)) if tol else 0
            if not scalars_equal(a, b, bound):
                failures.append(
                    {
                        "pair": [list(n), list(points[k])],
                        "value": format_scalar(a),
                        "dual_value": format_scalar(b),
                    }
                )
    return CheckReport(
        "duality", not failures, failures, {"pairs": len(tab.points) ** 2}
    )
