"""Tiny exact matrix helpers on tuple-of-tuples.

Matrices are immutable ((d+1) x (d+1) at most 4x4 here), entries are
scalars in either mode; nothing in the package needs a general inverse,
so none is provided.  `product` is the plain product, left-to-right
row-column sums in the entries' own arithmetic.  `mat_mul` runs a
product of exact matrices on integers: each factor is scaled to integer
rows (`integer_rows`) and each entry is one Fraction of an integer
row-column sum.  A caller that multiplies the same matrices many times
scales them once itself and calls `product` on the integers.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .numeric import Scalar, clear_denominators

Matrix = tuple  # tuple of row-tuples


def freeze(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def diagonal(entries: Sequence[Scalar]) -> Matrix:
    n = len(entries)
    return tuple(
        tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)
    )


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def integer_rows(a: Matrix) -> tuple:
    """(rows, D) with a = rows / D, rows lists of ints and D the lcm of
    a's denominators; a float entry leaves a's values with D = 1
    (`numeric.clear_denominators`)."""
    flat, D = clear_denominators([x for row in a for x in row])
    width = len(a[0])
    return [flat[k : k + width] for k in range(0, len(flat), width)], D


def product(a: Matrix, b: Matrix) -> Matrix:
    """The plain product ab: each entry is the left-to-right sum of its
    row-column products, in the entries' own arithmetic."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product ab.  When the entries are ints and at least one
    Fraction, a = A/Da and b = B/Db with A and B on ints, every
    row-column sum runs on ints and each entry is one Fraction(sum,
    Da Db).  Int products stay int, and a float or complex entry keeps
    D = 1, so approx values are those of the plain `product`."""
    kinds = set(map(type, (x for m in (a, b) for row in m for x in row)))
    if not (Fraction in kinds and kinds <= {int, Fraction}):
        return product(a, b)
    (a, da), (b, db) = integer_rows(a), integer_rows(b)
    den = da * db
    return tuple(tuple(Fraction(x, den) for x in row) for row in product(a, b))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Scalar, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """[a, b] = ab - ba by the plain `product`: on integer matrices it
    stays on ints."""
    return mat_sub(product(a, b), product(b, a))


def mats_equal(a: Matrix, b: Matrix, tol: Scalar = 0) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if tol == 0:
                if x != y:
                    return False
            elif abs(x - y) > tol:
                return False
    return True

