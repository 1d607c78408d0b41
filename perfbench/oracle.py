"""Checks of mvkraw's outputs that do not use mvkraw.

Everything here reads the documented JSON forms with the standard
library and recomputes what it needs in plain ``Fraction`` arithmetic:

- ``gen_value`` extracts P(m, mt) from the generating function
  prod_i (1 + sum_j u[i][j] z_j)^mt_i = sum_m multinomial(N; m) P(m, mt) z^m;
- ``table_problems`` checks a written table (shape, unit first row and
  column, sampled entries against ``gen_value``, sampled column pairs
  against the orthogonality identity);
- ``report_problems`` checks a written check report (exit code, every
  suite passed, pair counts from the lattice size);
- ``located_problems`` checks that a report on a table with one
  corrupted entry fails and names that entry.

Each returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import math
from fractions import Fraction


def parse_kappa(obj: dict) -> dict:
    """The parameter-set wire form with its scalars as Fractions."""
    return {
        "d": obj["d"],
        "nu": Fraction(obj["nu"]),
        "p": [Fraction(x) for x in obj["p"]],
        "pt": [Fraction(x) for x in obj["pt"]],
        "u": [[Fraction(x) for x in row] for row in obj["u"]],
    }


def kappa_problems(kappa: dict) -> list:
    """The defining conditions: unit first row and column of u, weights
    summing to 1 with p_0 = pt_0 = 1/nu, and nu P U Pt U^t = I."""
    d, nu, p, pt, u = kappa["d"], kappa["nu"], kappa["p"], kappa["pt"], kappa["u"]
    problems = []
    if any(u[0][j] != 1 or u[j][0] != 1 for j in range(d + 1)):
        problems.append("u has no unit first row and column")
    if sum(p) != 1 or sum(pt) != 1 or p[0] != 1 / nu or pt[0] != 1 / nu:
        problems.append("weights do not sum to 1 with leading entry 1/nu")
    for i in range(d + 1):
        for k in range(d + 1):
            entry = nu * p[i] * sum(u[i][j] * pt[j] * u[k][j] for j in range(d + 1))
            if entry != (i == k):
                problems.append(f"(nu P U Pt U^t)[{i}][{k}] = {entry}")
    return problems


def lattice(d: int, N: int) -> list:
    """All (d+1)-tuples of degree N, lexicographically descending: the
    documented graded-lex table order."""
    def rec(slots: int, left: int):
        if slots == 1:
            yield (left,)
            return
        for v in range(left + 1):
            for rest in rec(slots - 1, left - v):
                yield (v,) + rest

    return sorted(rec(d + 1, N), reverse=True)


def gen_value(kappa: dict, N: int, m: tuple, mt: tuple) -> Fraction:
    """P(m, mt) for reduced indices m, mt by expanding the generating
    function one linear factor at a time and reading the z^m term."""
    d, u = kappa["d"], kappa["u"]
    powers = (N - sum(mt),) + tuple(mt)
    poly = {(0,) * d: Fraction(1)}
    for i in range(d + 1):
        for _ in range(powers[i]):
            nxt: dict = {}
            for expo, c in poly.items():
                nxt[expo] = nxt.get(expo, 0) + c
                for j in range(d):
                    if expo[j] < m[j]:
                        e = expo[:j] + (expo[j] + 1,) + expo[j + 1 :]
                        nxt[e] = nxt.get(e, 0) + c * u[i][j + 1]
            poly = nxt
    norm = math.factorial(N) // math.factorial(N - sum(m))
    for part in m:
        norm //= math.factorial(part)
    return poly.get(tuple(m), Fraction(0)) / norm


def _weight(w: list, lam: tuple) -> Fraction:
    out = Fraction(1)
    for x, e in zip(w, lam):
        out *= x**e
        out /= math.factorial(e)
    return out


def column_gram(kappa: dict, N: int, points: list, values: list, a: int, b: int) -> tuple:
    """Both sides of N! sum_n P(n,a) P(n,b) pt^n/n! = delta nt!/(N! nu^N p^nt)."""
    lhs = math.factorial(N) * sum(
        values[r][a] * values[r][b] * _weight(kappa["pt"], n)
        for r, n in enumerate(points)
    )
    rhs = Fraction(0)
    if a == b:
        rhs = 1 / (math.factorial(N) * kappa["nu"] ** N * _weight(kappa["p"], points[a]))
    return lhs, rhs


def table_problems(obj, kappa: dict, N: int, rng, entries: int = 6) -> list:
    if obj is None:
        return ["no table written"]
    d = kappa["d"]
    points = lattice(d, N)
    L = len(points)
    if L != math.comb(N + d, d):
        return [f"lattice has {L} points, not comb(N+d, d)"]
    if obj.get("N") != N or obj.get("order") != "grlex":
        return ["table header does not match the request"]
    raw = obj.get("values")
    if not isinstance(raw, list) or len(raw) != L or any(len(r) != L for r in raw):
        return [f"table is not {L} x {L}"]
    values = [[Fraction(x) for x in row] for row in raw]
    problems = []
    if any(values[0][c] != 1 for c in range(L)) or any(values[r][0] != 1 for r in range(L)):
        problems.append("P(0, .) or P(., 0) is not 1")
    for _ in range(entries):
        r, c = rng.randrange(L), rng.randrange(L)
        want = gen_value(kappa, N, points[r][1:], points[c][1:])
        if values[r][c] != want:
            problems.append(f"P{points[r], points[c]} = {values[r][c]}, generating function gives {want}")
    a = rng.randrange(L)
    for b in (a, (a + 1 + rng.randrange(L - 1)) % L):
        lhs, rhs = column_gram(kappa, N, points, values, a, b)
        if lhs != rhs:
            problems.append(f"orthogonality fails on columns {points[a]}, {points[b]}")
    return problems


def expected_pairs(suite: str, d: int, N: int):
    """The documented ``details.pairs`` count of a suite, or None."""
    L = math.comb(N + d, d)
    return {
        "orthogonality": 2 * L * L,
        "duality": L * L,
        "norms": L * L,
        "threeway": L * L,
        "commute": d * (d - 1),
    }.get(suite)


def report_problems(rc: int, obj, suites: list, d: int, N: int) -> list:
    if rc != 0 or obj is None:
        return [f"exit code {rc}"]
    reports = obj.get("reports", [])
    if obj.get("pass") is not True or [r.get("check") for r in reports] != suites:
        return ["report does not pass every requested suite"]
    problems = []
    for r in reports:
        if r.get("pass") is not True or r.get("failures"):
            problems.append(f"suite {r['check']} failed")
        want = expected_pairs(r["check"], d, N)
        if want is not None and r.get("details", {}).get("pairs") != want:
            problems.append(f"suite {r['check']} reports pairs != {want}")
    return problems


def located_problems(rc: int, obj, corrupted: tuple) -> list:
    """``corrupted`` is the (row point, column point) pair whose entry was
    changed.  Orthogonality must fail, flag the diagonal pairs of that
    row and of that column, and flag no pair that avoids both."""
    if rc != 1 or obj is None or obj.get("pass") is not False:
        return [f"corrupted table gave exit code {rc}"]
    ortho = [r for r in obj.get("reports", []) if r.get("check") == "orthogonality"]
    if not ortho or ortho[0].get("pass") is not False:
        return ["orthogonality did not fail on the corrupted table"]
    marked = [list(p) for p in corrupted]
    pairs = [f.get("pair") for f in ortho[0].get("failures", [])]
    problems = []
    if any([m, m] not in pairs for m in marked):
        problems.append("a diagonal pair of the corrupted entry is not flagged")
    if any(p[0] not in marked and p[1] not in marked for p in pairs):
        problems.append("a flagged pair avoids the corrupted entry")
    return problems
