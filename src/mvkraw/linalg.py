"""Tiny exact matrix helpers on tuple-of-tuples.

Matrices are immutable ((d+1) x (d+1) at most 4x4 here), entries are
scalars in either mode; nothing in the package needs a general inverse,
so none is provided.
"""

from __future__ import annotations

from typing import Sequence

from .numeric import Scalar

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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Scalar, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


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


def max_defect(a: Matrix, b: Matrix) -> Scalar:
    """Largest absolute entrywise difference."""
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))
