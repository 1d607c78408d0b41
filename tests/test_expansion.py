"""The integer expansion core against the plain expansion it replaces,
and the integer comparisons of its readers against plain-Fraction
recomputations of their failure records."""

import math
from fractions import Fraction as F
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvkraw import hyperg, kappa, liemod, linalg, verify
from mvkraw.numeric import (
    enumerate_lattice,
    exactify,
    expand_forms,
    format_scalar,
    is_exact,
    multinomial,
    scalars_equal,
    weight_over_factorial,
)


def plain_expand(forms, exponents, caps=None):
    # the multinomial recursion and the merge on the scalars as given,
    # left to right, with no scaling
    n = len(forms[0])
    acc = {(0,) * n: 1}
    for form, e in zip(forms, exponents):
        if e == 0:
            continue
        power = {}

        def rec(j, left, expo, c):
            top = left if caps is None else min(left, caps[j])
            if form[j] == 0:
                top = 0
            if j == n - 1:
                if left <= top:
                    power[expo + (left,)] = c * form[j] ** left
                return
            for a in range(top + 1):
                rec(j + 1, left - a, expo + (a,), c * math.comb(left, a) * form[j] ** a)

        rec(0, e, (), 1)
        merged = {}
        for k1, c1 in acc.items():
            for k2, c2 in power.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                if caps is None or all(a <= b for a, b in zip(key, caps)):
                    merged[key] = merged.get(key, 0) + c1 * c2
        acc = merged
    return {key: c for key, c in acc.items() if c != 0}


INTS = st.integers(-(10**3), 10**3)
FRACTIONS = st.fractions(-(10**2), 10**2, max_denominator=10**3)
SCALARS = {
    "int": INTS,
    "Fraction": FRACTIONS,
    "int and Fraction": st.one_of(INTS, FRACTIONS, st.just(0)),
    "float": st.floats(-1e3, 1e3, allow_nan=False),
    "complex": st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
}


@st.composite
def products(draw):
    width = draw(st.integers(2, 4))

    def form():
        kind = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
        return tuple(draw(kind) for _ in range(width))

    forms = [form() for _ in range(draw(st.integers(1, 3)))]
    exponents = [draw(st.integers(0, 3)) for _ in forms]
    caps = draw(st.one_of(st.none(), st.lists(st.integers(0, 6), min_size=width, max_size=width)))
    return forms, exponents, caps


def bits(x):
    # floats compare bit for bit, -0.0 included; exact values by value
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    return x


@settings(max_examples=300, deadline=None)
@given(products())
def test_expansion_equals_the_plain_expansion(product):
    forms, exponents, caps = product
    got, D = expand_forms(forms, exponents, caps)
    want = plain_expand(forms, exponents, caps)
    assert got.keys() == want.keys()
    used = [x for form, e in zip(forms, exponents) if e for x in form]
    if all(map(is_exact, used)):
        # every coefficient an int over the one scale prod_k D_k^e_k
        assert all(type(c) is int for c in got.values())
        assert D == math.prod(
            math.lcm(*(exactify(x).denominator for x in form)) ** e
            for form, e in zip(forms, exponents)
            if e
        )
        assert {key: F(c, D) for key, c in got.items()} == want
    else:
        # a float or complex among the forms: the plain operations, as they are
        assert D == 1
        assert {key: (type(c), bits(c)) for key, c in got.items()} == {
            key: (type(c), bits(c)) for key, c in want.items()
        }


def test_caps_and_scales_of_a_hand_product():
    # (y0/2 + y1/3)^2 (y0 + y2): D = 6^2, and the cap y0 <= 1 keeps the
    # coefficients of what it keeps
    forms, exponents = [(F(1, 2), F(1, 3), 0), (1, 0, 1)], (2, 1)
    full, D = expand_forms(forms, exponents)
    assert D == 36
    assert full == {(3, 0, 0): 9, (2, 1, 0): 12, (1, 2, 0): 4, (2, 0, 1): 9, (1, 1, 1): 12, (0, 2, 1): 4}
    capped, _ = expand_forms(forms, exponents, caps=(1, 2, 1))
    assert capped == {key: c for key, c in full.items() if key[0] <= 1}


# ---------------------------------------------------------------------------
# negative controls: the integer comparisons of threeway, duality and
# transition against the same checks recomputed on plain Fractions


def plain_sym(forms, exponents):
    # the expansion at the exact values of the forms' scalars; with a
    # float among them, each coefficient rounded once to the nearest
    # float, as approx X, Y and the generating matrices are defined
    coeffs = plain_expand([tuple(map(F, form)) for form in forms], exponents)
    if all(map(is_exact, itertools.chain(*forms))):
        return coeffs
    return {key: float(c) for key, c in coeffs.items()}


def plain_column(k, N, nt):
    forms = [(1,) + tuple(exactify(x) for x in k.u[i][1:]) for i in range(k.d + 1)]
    coeffs = plain_sym(forms, nt)
    return {n: exactify(c) / multinomial(N, n) for n, c in coeffs.items()}


def plain_threeway(k, N, tol, tab):
    rhat = liemod.conjugator(k, tol).rhat
    points = tab.points
    failures, max_resid = [], 0
    for r, n in enumerate(points):
        for c, nt in enumerate(points):
            a = tab.values[r][c]
            b = plain_column(k, N, nt).get(n, F(0))
            x = plain_sym(tuple(zip(*rhat)), nt).get(n, 0)
            p = x * liemod.pairing_weight(k, N, n)
            max_resid = max(max_resid, abs(a - b), abs(a - p))
            bound = tol * max(1, abs(a), abs(b), abs(p)) if tol else 0
            if not (scalars_equal(a, b, bound) and scalars_equal(a, p, bound)):
                failures.append(
                    {
                        "pair": [list(n), list(nt)],
                        "kernel_sum": format_scalar(a),
                        "generating": format_scalar(b),
                        "pairing": format_scalar(p),
                    }
                )
    return failures, format_scalar(max_resid)


def plain_duality(k, N, tol, tab):
    dual = kappa.involute(k, tol)
    failures = []
    for n, row in zip(tab.points, tab.values):
        column = plain_column(dual, N, n)
        for nt, a in zip(tab.points, row):
            b = column.get(nt, F(0))
            bound = tol * max(1, abs(a), abs(b)) if tol else 0
            if not scalars_equal(a, b, bound):
                failures.append(
                    {
                        "pair": [list(n), list(nt)],
                        "value": format_scalar(a),
                        "dual_value": format_scalar(b),
                    }
                )
    return failures


def plain_transition(k, N, tol, tab):
    conj = liemod.conjugator(k, tol)
    points = tab.points

    def equal(got, want):
        keys = got.keys() | want.keys()
        return all(scalars_equal(got.get(x, 0), want.get(x, 0), tol) for x in keys)

    failures = []
    for c, nt in enumerate(points):
        got = plain_sym(tuple(zip(*conj.rhat)), nt)
        want = {
            n: tab.values[r][c] * (1 / liemod.pairing_weight(k, N, n))
            for r, n in enumerate(points)
        }
        if not equal(got, want):
            failures.append({"expansion": "substituted-over-plain", "at": list(nt)})
    inv_nu_pow = 1 / exactify(k.nu) ** N
    for r, n in enumerate(points):
        got = {
            nt: inv_nu_pow * x
            for nt, x in plain_sym(tuple(zip(*conj.rhat_inv)), n).items()
        }
        want = {
            nt: tab.values[r][c] * (math.factorial(N) * weight_over_factorial(k.p, nt))
            for c, nt in enumerate(points)
        }
        if not equal(got, want):
            failures.append({"expansion": "plain-over-substituted", "at": list(n)})
    return failures


HR = kappa.family_hoare_rahman(1, 2, 3, 4)


def corrupted(k, N, entries, approx):
    """The table of k at N with each entry (row, column) moved by 1/7; in
    approx mode the set and the moved table as floats, at eps 1e-10."""
    tab = hyperg.table(k, N)
    values = [list(row) for row in tab.values]
    for r, c in entries:
        values[r][c] += F(1, 7)
    tol = 0
    if approx:
        k = kappa.from_json_dict(kappa.to_json_dict(k), "approx", 1e-10)
        values = [[float(x) for x in row] for row in values]
        tol = 1e-10
    return k, tol, hyperg.PolynomialTable(k, N, tab.points, tuple((tuple(r), 1) for r in values))


@pytest.mark.parametrize("approx", [False, True], ids=["exact", "approx"])
@pytest.mark.parametrize(
    "entries", [[(0, 4)], [(6, 0)], [(3, 7)], [(0, 4), (6, 0), (3, 7)]],
    ids=["row0", "column0", "inner", "all-three"],
)
def test_corrupted_table_fails_as_plain_fractions_find(approx, entries):
    N = 3
    k, tol, tab = corrupted(HR, N, entries, approx)
    threeway, duality, transition = verify.run_suites(
        ["threeway", "duality", "transition"], k, N, tol, tab
    )
    failures, max_resid = plain_threeway(k, N, tol, tab)
    assert failures and threeway.failures == failures
    assert threeway.details["max_residual"] == max_resid
    assert {tuple(map(tuple, f["pair"])) for f in failures} == {
        (tab.points[r], tab.points[c]) for r, c in entries
    }
    assert duality.failures and duality.failures == plain_duality(k, N, tol, tab)
    assert transition.failures and transition.failures == plain_transition(k, N, tol, tab)


@pytest.mark.parametrize("approx", [False, True], ids=["exact", "approx"])
def test_passing_threeway_reports_no_residual(approx):
    k, tol, tab = corrupted(HR, 3, [], approx)
    (rep,) = verify.run_suites(["threeway"], k, 3, tol, tab)
    failures, max_resid = plain_threeway(k, 3, tol, tab)
    assert rep.passed and failures == []
    assert rep.details["max_residual"] == max_resid
    if not approx:
        assert max_resid == "0"


def test_perturbed_u_fails_threeway_at_a_pair():
    # u[1][2] moved by 1/7 past validation: the generating route reads
    # the broken u, while the table and the expansion matrix are the
    # valid set's (its conjugator would refuse the broken set)
    N = 3
    u = [list(row) for row in HR.u]
    u[1][2] += F(1, 7)
    bad = kappa.ParameterSet(HR.d, HR.nu, HR.p, HR.pt, tuple(map(tuple, u)))
    tab = hyperg.table(HR, N)
    X = liemod.expansion_matrix(liemod.conjugator(HR, 0).rhat, tab.points)
    G = liemod.generating_matrix(bad, tab.points)
    rep = verify.check_threeway(bad, N, tab=tab, X=X, G=G)
    assert not rep.passed
    assert all(f["pair"][0] in map(list, tab.points) for f in rep.failures)
    assert all(f["kernel_sum"] == f["pairing"] != f["generating"] for f in rep.failures)
    want = [
        [list(n), list(nt)]
        for c, nt in enumerate(tab.points)
        for r, n in enumerate(tab.points)
        if plain_column(bad, N, nt).get(n, 0) != tab.values[r][c]
    ]
    assert sorted(f["pair"] for f in rep.failures) == sorted(want)


# X = Sym^N(rhat) and Y = Sym^N(rhat^-1) are inverse matrices


SYM_SETS = [
    pytest.param(HR, id="hr1234"),
    pytest.param(kappa.family_hoare_rahman(F(17, 101), F(-3, 7), F(29, 113), F(5, 211)), id="hr-odd"),
    pytest.param(kappa.family_milch([F(1, 2), F(1, 4), F(1, 8), F(1, 8)]), id="milch-d3"),
    pytest.param(kappa.griffiths_from_p([F(101, 400), F(99, 400), F(1, 2)]), id="griffiths"),
    pytest.param(kappa.family_ds(F(3), 1), id="ds-q3-d1"),
]


@pytest.mark.parametrize("k", SYM_SETS)
@pytest.mark.parametrize("N", range(5))
def test_x_times_y_is_the_identity(k, N):
    # Sym^N is a functor: Sym^N(rhat) Sym^N(rhat^-1) = Sym^N(I), so the
    # integer lines multiply to Dx Dy I over the layout
    conj = liemod.conjugator(k, 0)
    points = list(enumerate_lattice(k.d, N))
    X, Dx = liemod.expansion_matrix(conj.rhat, points)
    Y, Dy = liemod.to_dual_coords(conj, points)
    assert all(type(x) is int for line in X + Y for x in line)
    product = [[sum(x * y for x, y in zip(line, column)) for column in zip(*Y)] for line in X]
    identity = [[Dx * Dy * (a == b) for b in range(len(points))] for a in range(len(points))]
    assert product == identity


@pytest.mark.parametrize("row,entry", [(0, 0), (4, 7), (9, 3)])
def test_moved_entry_of_y_fails_transition_at_its_row(monkeypatch, row, entry):
    # one entry of Y moved by one: plain-over-substituted fails at that
    # row of Y and at no other, and the X side still passes
    N = 3
    to_dual_coords = liemod.to_dual_coords

    def moved(conj, points):
        Y, Dy = to_dual_coords(conj, points)
        Y[row][entry] += 1
        return Y, Dy

    monkeypatch.setattr(liemod, "to_dual_coords", moved)
    (rep,) = verify.run_suites(["transition"], HR, N)
    points = list(enumerate_lattice(HR.d, N))
    assert rep.failures == [{"expansion": "plain-over-substituted", "at": list(points[row])}]


# the Sym^N builder against the one expansion per point and a brute force


def brute_sym(R, lam):
    # prod_i (sum_j x_j R[j][i])^lam_i, one term per choice of a variable
    # for each of the N factors, on Fractions
    factors = [i for i, e in enumerate(lam) for _ in range(e)]
    out = {}
    for js in itertools.product(range(len(R)), repeat=len(factors)):
        n = tuple(js.count(j) for j in range(len(R)))
        out[n] = out.get(n, 0) + math.prod(F(R[j][i]) for j, i in zip(js, factors))
    return {n: c for n, c in out.items() if c}


@st.composite
def sym_powers(draw, entries=st.one_of(st.just(0), st.fractions(-9, 9, max_denominator=40))):
    # a (d+1) x (d+1) matrix, d <= 3, with zero entries and at times a
    # zero column, and a degree N <= 4
    d = draw(st.integers(1, 3))
    R = [[draw(entries) for _ in range(d + 1)] for _ in range(d + 1)]
    zero = draw(st.one_of(st.none(), st.integers(0, d)))
    for row in R if zero is not None else ():
        row[zero] = 0
    return linalg.freeze(R), draw(st.integers(0, 4))


@settings(max_examples=150, deadline=None)
@given(sym_powers())
def test_sym_power_lines_are_the_expansions(case):
    # every line of the builder is its point's `expand_forms` over the
    # one scale, and at N <= 2 the brute-force product
    R, N = case
    points = list(enumerate_lattice(len(R) - 1, N))
    lines, D = liemod.expansion_matrix(R, points)
    assert all(type(x) is int for line in lines for x in line)
    scales = []
    for lam, line in zip(points, lines):
        coeffs, scale = expand_forms(tuple(zip(*R)), lam)
        scales.append(scale)
        assert [F(x, D) for x in line] == [F(coeffs.get(n, 0), scale) for n in points]
        if N <= 2:
            want = brute_sym(R, lam)
            assert [F(x, D) for x in line] == [want.get(n, 0) for n in points]
    assert D == math.lcm(*scales)


@settings(max_examples=100, deadline=None)
@given(sym_powers(st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_nan=False))))
def test_float_sym_power_is_the_rounded_exact_one(case):
    # a float matrix is read at its floats' exact values, and each entry
    # is the nearest float to the exact entry of Sym^N
    R, N = case
    points = list(enumerate_lattice(len(R) - 1, N))
    lines, D = liemod.expansion_matrix(R, points)
    exact, De = liemod.expansion_matrix(tuple(tuple(map(F, row)) for row in R), points)
    assert D == 1
    assert [[x.hex() for x in line] for line in lines] == [
        [float(F(x, De)).hex() for x in line] for line in exact
    ]


def test_float_sym_power_past_the_float_range_names_the_entry():
    points = list(enumerate_lattice(1, 2))
    with pytest.raises(OverflowError, match=r"entry \(\[2, 0\], \[2, 0\]\)"):
        liemod.expansion_matrix(((1e200, 0.0), (0.0, 1.0)), points)


@pytest.mark.parametrize("suite", ["duality", "threeway"])
@pytest.mark.parametrize("row,entry", [(0, 0), (4, 7), (9, 3)])
def test_moved_entry_of_a_generating_matrix_fails_at_its_pair(monkeypatch, suite, row, entry):
    # one entry of the generating matrix moved by one: duality (the
    # involute's matrix, line n against row n of the table) and threeway
    # (the set's matrix, line nt against column nt) each fail at that
    # one pair, with the generating value off by 1 / (D multinomial)
    N = 3
    points = list(enumerate_lattice(HR.d, N))
    generating_matrix = liemod.generating_matrix
    scales = []

    def moved(k, pts):
        lines, D = generating_matrix(k, pts)
        lines[row][entry] += 1
        scales.append(D)
        return lines, D

    monkeypatch.setattr(liemod, "generating_matrix", moved)
    (rep,) = verify.run_suites([suite], HR, N)
    (D,) = scales
    step = F(1, D * multinomial(N, points[entry]))
    (failure,) = rep.failures
    if suite == "duality":
        assert failure["pair"] == [list(points[row]), list(points[entry])]
        assert F(failure["dual_value"]) - F(failure["value"]) == step
    else:
        assert failure["pair"] == [list(points[entry]), list(points[row])]
        assert F(failure["generating"]) - F(failure["kernel_sum"]) == step
        assert failure["pairing"] == failure["kernel_sum"]
