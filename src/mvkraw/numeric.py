"""Scalar arithmetic and the combinatorial substrate.

Scalars are exact big rationals (``fractions.Fraction``) in the default
mode and floating-point (real or complex) in approximate mode.  All
library code is generic over the scalar type; the mode only decides how
inputs are parsed, how equality is tested (literal vs. within ``eps``)
and how values are serialized.

The combinatorial layer provides multinomial coefficients and weights,
the simplex lattice of multi-indices of fixed total degree, and the
kernels of a d = 1 kernel sum, its totals (`enumerate_kernels`).  A
kernel sum at d >= 2 lists no kernel: it runs over the kernel entries
(`hyperg._margin_transfer`).  A product of linear forms is expanded in
one place, `liemod.expansion_matrix`, on ints.  An approx value that is
summed or expanded on the exact values of its floats becomes a float
once, by `rounded`.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import sys
from fractions import Fraction
from operator import add, mul, ne
from typing import Callable, Iterator, Sequence, Union

Scalar = Union[int, Fraction, float, complex]

EXACT = "exact"
APPROX = "approx"
DEFAULT_EPS = 1e-10

MultiIndex = tuple  # nonnegative integer parts; degree = sum of parts


class DegreeMismatchError(ValueError):
    """A multi-index does not have the required total degree."""


# "a" or "a/b" in ASCII digits, a with an optional sign: the form that
# `format_scalar` writes, which table and parameter-set files hold
_INTEGER_RATIO = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


# a decimal literal with an exponent, in Fraction's grammar (a sign, and
# underscores between digits), the exponent captured
_EXPONENT = re.compile(
    r"[+-]?(?=\d|\.\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?[eE]([+-]?\d+(?:_\d+)*)"
)

# the largest exponent a decimal literal may carry: Fraction builds
# 10**exponent, so "1e999999999" would take hours; this is the digit
# limit that `int` already puts on the "a/b" form
MAX_EXPONENT = sys.int_info.default_max_str_digits


def parse_scalar(text: str, mode: str = EXACT) -> Scalar:
    """Parse "a/b", "a" or a decimal literal into a scalar of the given
    mode.  An ASCII "a" or "a/b" is read by `int`, with one
    Fraction(a, b); everything else goes to Fraction's own parser, which
    gives the same value, or the same error, for every string, save that
    a decimal literal whose exponent is past +-`MAX_EXPONENT` is refused
    with a ValueError before Fraction builds its power of ten."""
    text = text.strip()
    match = _INTEGER_RATIO.fullmatch(text)
    if match is None:
        decimal = _EXPONENT.fullmatch(text)
        if decimal and abs(int(decimal[1])) > MAX_EXPONENT:
            raise ValueError(f"exponent past +-{MAX_EXPONENT} in decimal literal {text!r}")
        value = Fraction(text)
    else:
        num, den = match.groups()
        value = Fraction(int(num)) if den is None else Fraction(int(num), int(den))
    if mode == APPROX:
        return float(value)
    return value


def parse_ratio(text: str) -> tuple:
    """(a, b), b > 0, with a/b the exact value that `parse_scalar` reads,
    not reduced: an ASCII "a" or "a/b" with b != 0 by `int` alone, with
    no Fraction built; everything else by `parse_scalar`, with its value
    or its error."""
    match = _INTEGER_RATIO.fullmatch(text.strip())
    if match is not None:
        num, den = match.groups()
        num, den = int(num), 1 if den is None else int(den)
        if den:
            return num, den
    value = parse_scalar(text)
    return value.numerator, value.denominator


# `str` writes an int of at most this many digits whatever digit limit
# the interpreter is set to
_CHUNK_DIGITS = sys.int_info.str_digits_check_threshold


def _digits(n: int) -> str:
    """The decimal digits of n, written in chunks of `_CHUNK_DIGITS`, so
    that an int past the digit limit of `str` is written too."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunk, parts = 10**_CHUNK_DIGITS, []
    while n >= chunk:
        n, low = divmod(n, chunk)
        parts.append(str(low).zfill(_CHUNK_DIGITS))
    parts.append(str(n))
    return sign + "".join(reversed(parts))


def format_scalar(x: Scalar) -> str:
    """Canonical string form: lowest-terms "a/b" (or "a") exactly, 17
    significant digits in floating mode.  An exact value is written
    whatever its size: parts past the digit limit that `str` puts on an
    int are written in chunks (`_digits`)."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    try:
        if isinstance(x, int):
            return str(x)
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return str(x.numerator)
            return f"{x.numerator}/{x.denominator}"
    except ValueError:  # a part past the digit limit of `str`
        return _long_text(x.numerator, x.denominator)
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    raise TypeError(f"not a scalar: {x!r}")


def _long_text(num: int, den: int) -> str:
    """The lowest-terms num/den as `format_scalar` writes it, by `_digits`."""
    return _digits(num) if den == 1 else f"{_digits(num)}/{_digits(den)}"


def format_ratio(num: int, den: int) -> str:
    """`format_scalar(Fraction(num, den))` for ints num and den > 0, by one
    gcd and no Fraction: the text of an entry of an integer table line."""
    g = math.gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # a part past the digit limit of `str`
        return _long_text(num, den)


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def exactify(x: Scalar) -> Scalar:
    """Promote int to Fraction so that division stays exact; floats pass
    through untouched."""
    return Fraction(x) if is_exact(x) else x


def scalars_equal(a: Scalar, b: Scalar, tol: Scalar = 0) -> bool:
    """Equality up to ``tol``; with ``tol == 0`` this is literal equality."""
    if tol == 0:
        return a == b
    return abs(a - b) <= tol


def clear_denominators(values: Sequence[Scalar]) -> tuple:
    """(ints, D) with values[k] = ints[k] / D, where D is the lcm of the
    denominators of exact values; values with a float among them are
    returned as they are, with D = 1.  Sums over the ints stay on ints,
    with one division by D at the end."""
    kinds = set(map(type, values))
    if kinds <= {int} or not kinds <= {int, Fraction}:
        return list(values), 1
    D = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (D // x.denominator) for x in values], D


def ratio(num: Scalar, den: int) -> Scalar:
    """num / den: a Fraction for an int num, the plain division else."""
    return Fraction(num, den) if type(num) is int else num / den


def rounded(num: int, den: int, what: Callable[[], str]) -> float:
    """The nearest float to num / den, ints with den > 0: int / int true
    division rounds once.  Where it leaves the float range, the
    OverflowError names the value, what(), made only then.  An approx
    kernel sum, Sym^N entry or `eval` value is made by this one
    division from its exact value."""
    try:
        return num / den
    except OverflowError:
        raise OverflowError(f"{what()} leaves the float range") from None


def power(x: Scalar, N: int, name: str) -> Scalar:
    """x ** N; where a float power leaves the float range (past it, or 0
    from a nonzero x), the OverflowError names it as a power of `name`."""
    try:
        y = x**N
    except OverflowError:
        y = 0
    if y == 0 and x != 0:
        raise OverflowError(f"the approx power {name}^{N} at {name} = {format_scalar(x)} "
                            "leaves the float range")
    return y


def misses(a: Sequence, A: int, b: Sequence, B: int) -> Iterator[tuple]:
    """(k, a[k] / A, b[k] / B) for each k where the two lines may differ.
    Exact lines are compared cross-multiplied on ints, and a pair that
    differs is the only one whose values are made; a line with a float
    gives every pair, the values for the caller to compare within its
    bound."""
    kinds = set(map(type, a)) | set(map(type, b))
    if kinds <= {int}:  # two integer lines: the cross products compared at C speed
        differ = map(ne, map(mul, a, itertools.repeat(B)), map(mul, b, itertools.repeat(A)))
        for k in itertools.compress(itertools.count(), differ):
            yield k, ratio(a[k], A), ratio(b[k], B)
        return
    exact = kinds <= {int, Fraction}
    for k, (x, y) in enumerate(zip(a, b)):
        if exact and x.numerator * y.denominator * B == y.numerator * x.denominator * A:
            continue
        yield k, ratio(x, A), ratio(y, B)


def gram_misses(
    lines: Sequence, scales: Sequence, weights: tuple, diag: Sequence, sizes: Sequence, tol: Scalar
) -> Iterator[tuple]:
    """(a, b, got, want, bound) for each pair of lines whose weighted Gram
    sum got = sum_r lines[a][r] lines[b][r] ints[r] / (scales[a] scales[b] S),
    weights = (ints, S), may not be want = diag[a] if a == b else 0, in
    (a, b) order, with bound = tol max(sizes[a], sizes[b]).  The lines
    and weights come scaled to integers by their owners, so each sum,
    taken once for both orders, runs on ints: line a is weighted once,
    and each sum is one dot product of it with line b.  An int sum is
    compared with want cross-multiplied (an off-diagonal 0 at once) and
    comes out only for a miss, its Fraction made then.  A float sum
    keeps the product order (lines[a][r] lines[b][r]) ints[r] and adds
    left to right, not by `sum`, which compensates floats from Python
    3.12 on, so a float Gram sum of given lines is the same on every
    version; it always comes out, for the caller to compare."""
    ints, S = weights
    size = len(lines)
    exact = all(type(x) is int for x in itertools.chain(ints, *lines))
    grams = [[None] * size for _ in range(size)]
    for a, line_a in enumerate(lines):
        if exact:
            weighted = list(map(mul, line_a, ints))
            sums = [sum(map(mul, weighted, line_b)) for line_b in lines[a:]]
        else:
            products = (map(mul, map(mul, line_a, line_b), ints) for line_b in lines[a:])
            sums = [functools.reduce(add, terms, 0) for terms in products]
        for b, g in enumerate(sums, a):
            grams[a][b] = grams[b][a] = g
    for a, row in enumerate(grams):
        for b, g in enumerate(row):
            if a != b and type(g) is int and not g:
                continue
            want = diag[a] if a == b else 0
            den = scales[a] * scales[b] * S
            if type(g) is int and g * want.denominator == want.numerator * den:
                continue
            yield a, b, ratio(g, den), want, tol * max(sizes[a], sizes[b]) if tol else 0


def multinomial(n: int, lam: Sequence[int]) -> int:
    """n! / (lam_0! lam_1! ... lam_k!) for a multi-index with |lam| = n."""
    if sum(lam) != n:
        raise DegreeMismatchError(f"|{tuple(lam)}| = {sum(lam)} != {n}")
    out = 1
    acc = 0
    for part in lam:
        acc += part
        out *= math.comb(acc, part)
    return out


def multi_factorial(lam: Sequence[int]) -> int:
    """lam! = product of the part factorials."""
    out = 1
    for part in lam:
        out *= math.factorial(part)
    return out


def power_product(base: Sequence[Scalar], lam: Sequence[int]) -> Scalar:
    """base^lam = product base_i**lam_i."""
    out = 1
    for b, e in zip(base, lam):
        if e:
            out *= b**e
    return out


def weight_over_factorial(weights: Sequence[Scalar], lam: Sequence[int]) -> Scalar:
    """weights^lam / lam!, a Fraction for exact weights and a float for
    float weights, at lam = 0 too, where `power_product` is the int 1."""
    power = power_product(weights, lam)
    if all(map(is_exact, weights)):
        return Fraction(power, multi_factorial(lam))
    return power / multi_factorial(lam)


def multinomial_weights(w: tuple, N: int, points: Sequence) -> tuple:
    """(ints, S) with N! w^n / n! = ints[k] / S at the k-th point n of
    `points`, each of degree N, for w = W/D as a set's integer view
    holds it, (W, D): multinomial(N, n) W^n over S = D^N.  Float
    weights, with D = 1, are N! (W^n / n!), with S = 1."""
    W, D = w
    if not all(map(is_exact, W)):
        return [math.factorial(N) * weight_over_factorial(W, n) for n in points], 1
    return [multinomial(N, n) * power_product(W, n) for n in points], D**N


def enumerate_lattice(d: int, degree: int) -> Iterator[MultiIndex]:
    """All lam in N_0^{d+1} with |lam| = degree, in graded-lex order.

    The order is fixed once and used everywhere tables are laid out:
    (degree,0,...,0) first, (0,...,0,degree) last.
    """
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")

    def rec(prefix: tuple, remaining: int, slots: int) -> Iterator[MultiIndex]:
        if slots == 1:
            yield prefix + (remaining,)
            return
        for v in range(remaining, -1, -1):
            yield from rec(prefix + (v,), remaining - v, slots - 1)

    yield from rec((), degree, d + 1)


def enumerate_degree_points(d: int, degree: int) -> Iterator[tuple]:
    """All m in N_0^d with |m| <= degree, ordered consistently with
    enumerate_lattice via m = lam[1:]."""
    for lam in enumerate_lattice(d, degree):
        yield lam[1:]


def enumerate_kernels(degree: int, row_cap: int, col_cap: int) -> Iterator[int]:
    """The kernels of a d = 1 kernel sum: a 1 x 1 matrix is its total t,
    and the sum of P(m, mt) at N runs over t = 0..min(mt, m, N), with
    row_cap = mt and col_cap = m.  Sums at d >= 2 list no kernel; they
    run over the kernel entries (`hyperg._margin_transfer`)."""
    if min(row_cap, col_cap) < 0:
        raise ValueError("caps must be nonnegative")
    yield from range(min(row_cap, col_cap, degree) + 1)
