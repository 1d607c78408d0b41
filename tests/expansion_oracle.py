"""A plain reference of the products of linear forms: each power by the
multinomial theorem and merged into one dict, on the scalars as given,
left to right, with no scaling.  `liemod.expansion_matrix`, the one
expansion of the package, is checked against it, a line at a time or
a whole Sym^N matrix."""

import math
from fractions import Fraction


def plain_expand(forms, exponents):
    """prod_k (sum_j forms[k][j] y_j)^exponents[k] as {exponent:
    coefficient}, zero coefficients dropped."""
    n = len(forms[0])
    acc = {(0,) * n: 1}
    for form, e in zip(forms, exponents):
        if e == 0:
            continue
        power = {}

        def rec(j, left, expo, c):
            # y_j takes a of the `left` factors still to place
            if j == n - 1:  # the last variable takes all that is left
                if left == 0 or form[j] != 0:
                    power[expo + (left,)] = c * form[j] ** left
                return
            for a in range(left + 1 if form[j] != 0 else 1):
                rec(j + 1, left - a, expo + (a,), c * math.comb(left, a) * form[j] ** a)

        rec(0, e, (), 1)
        merged = {}
        for k1, c1 in acc.items():
            for k2, c2 in power.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                merged[key] = merged.get(key, 0) + c1 * c2
        acc = merged
    return {key: c for key, c in acc.items() if c != 0}


def plain_line(R, lam, points):
    """The line of lam of Sym^N(R) at the exact values of R's entries:
    the coefficient of each point's monomial x^n in
    prod_i (sum_j x_j R[j][i])^lam_i, zeros included, as Fractions."""
    coeffs = plain_expand([tuple(map(Fraction, col)) for col in zip(*R)], lam)
    return [coeffs.get(n, 0) for n in points]
