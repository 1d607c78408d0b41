"""Tiny exact matrix helpers on tuple-of-tuples.

Matrices are immutable ((d+1) x (d+1) at most 4x4 here), entries are
scalars in either mode; nothing in the package needs a general inverse,
so none is provided.  `product` is the plain product, left-to-right
row-column sums in the entries' own arithmetic; a caller that
multiplies exact matrices scales them to integer rows once itself
(`integer_rows`) and calls it on the integers.  A caller that knows a
factor is diagonal or a matrix unit calls the helper for that shape
(`scale_rows`, `through_diagonal`, `through_unit`,
`diagonal_commutator`), which makes the nonzero terms of the plain
product alone, in its order.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .numeric import Scalar, clear_denominators

Matrix = tuple  # tuple of row-tuples


def freeze(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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


def scale_rows(c: Sequence[Scalar], a: Matrix) -> Matrix:
    """diag(c) a: row r of a times c[r]."""
    return tuple(tuple(x * y for y in row) for x, row in zip(c, a))


def through_diagonal(a: Matrix, c: Sequence[Scalar], b: Matrix) -> Matrix:
    """a diag(c) b: column k of a times c[k], then one plain product."""
    return product(tuple(tuple(map(mul, row, c)) for row in a), b)


def through_unit(a: Matrix, i: int, j: int, b: Matrix) -> Matrix:
    """a e_ij b: the outer product of column i of a and row j of b."""
    return tuple(tuple(row[i] * y for y in b[j]) for row in a)


def diagonal_commutator(c: Sequence[Scalar], a: Matrix) -> Matrix:
    """[diag(c), a], entry (r, s) the plain product's c[r] a[r][s] -
    a[r][s] c[s]."""
    return tuple(tuple(cr * x - x * cs for x, cs in zip(row, c)) for cr, row in zip(c, a))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Scalar, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


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

