"""A brute-force reference of the kernel sums: every d x d kernel under
the caps, listed by `itertools.product` and a filter, and each term of
the hypergeometric series added as a Fraction."""

import math
from fractions import Fraction
from itertools import product
from operator import le


def kernels(degree, row_caps, col_caps):
    """Every d x d nonnegative-integer matrix, d = len(row_caps), as a
    tuple of row tuples,
    with row sums <= row_caps, column sums <= col_caps and total
    <= degree, in lex order of the flattened entries: the candidate rows
    of each row i are the vectors under the column caps with sum
    <= row_caps[i], and every product of them is filtered on its column
    sums and total."""
    rows = [
        [v for v in product(*(range(min(c, degree) + 1) for c in col_caps)) if sum(v) <= r]
        for r in row_caps
    ]
    return [
        A
        for A in product(*rows)
        if sum(map(sum, A)) <= degree and all(map(le, map(sum, zip(*A)), col_caps))
    ]


def margins(A):
    """(row sums, column sums) of a kernel."""
    return tuple(map(sum, A)), tuple(map(sum, zip(*A)))


def margin_sums(W, N, by_total, row_caps, col_caps):
    """{(r, c): S[r][c]}: by_total[t] N!/A! W^A added on ints at the
    margins of every kernel A of total t <= N under the caps, with no
    zero sum kept."""
    sums = {}
    for A in kernels(N, row_caps, col_caps):
        cells = [(a, w) for row, Wi in zip(A, W) for a, w in zip(row, Wi)]
        term = by_total[sum(map(sum, A))] * math.factorial(N)
        term //= math.prod(math.factorial(a) for a, _ in cells)
        term *= math.prod(w**a for a, w in cells)
        sums[margins(A)] = sums.get(margins(A), 0) + term
    return {key: s for key, s in sums.items() if s}


def rising(x, n):
    return math.prod(x + k for k in range(n))


def kernel_sum(u, N, m, mt):
    """P(m, mt) as the Fraction

        sum_A prod_j (-m_j)_{c_j} prod_i (-mt_i)_{r_i} / (-N)_t
              prod_ij omega_ij^a_ij / a_ij!

    over the kernels A under the caps (mt, m), omega = 1 - u[i][j] for
    i, j >= 1 at the exact value of each entry, a float's included."""
    omega = [[1 - Fraction(x) for x in row[1:]] for row in u[1:]]
    total = Fraction(0)
    for A in kernels(N, mt, m):
        r, c = margins(A)
        term = Fraction(
            math.prod(map(rising, (-x for x in m), c)) * math.prod(map(rising, (-x for x in mt), r)),
            rising(-N, sum(r)),
        )
        for row, Wi in zip(A, omega):
            for a, w in zip(row, Wi):
                term *= w**a / math.factorial(a)
        total += term
    return total
