"""The matrix products against the plain ones."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from mvkraw import linalg


def naive_product(a, b):
    # every entry one left-to-right sum of the products a[i][k] b[k][j]
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


INTS = st.integers(-(10**6), 10**6)
FRACTIONS = st.fractions(-(10**3), 10**3, max_denominator=10**4)
SCALARS = {
    "int": INTS,
    "Fraction": FRACTIONS,
    "int and Fraction": st.one_of(INTS, FRACTIONS),
    "float": st.floats(-1e6, 1e6, allow_nan=False),
    "complex": st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
}


@st.composite
def factors(draw):
    n = draw(st.integers(2, 4))

    def matrix():
        kind = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
        return tuple(tuple(draw(kind) for _ in range(n)) for _ in range(n))

    return matrix(), matrix()


def bits(x):
    # floats compare bit for bit, -0.0 included; exact values by value
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    return x


@settings(max_examples=300, deadline=None)
@given(factors())
def test_product_equals_the_plain_product(pair):
    a, b = pair
    got, want = linalg.product(a, b), naive_product(a, b)
    assert [[bits(x) for x in row] for row in got] == [
        [bits(x) for x in row] for row in want
    ]
    assert [[type(x) for x in row] for row in got] == [[type(x) for x in row] for row in want]
    # exact factors scaled to integer rows once: one integer product, the
    # same values over the product of the scales
    entries = [x for m in (a, b) for row in m for x in row]
    if all(isinstance(x, (int, F)) for x in entries):
        (A, Da), (B, Db) = linalg.integer_rows(a), linalg.integer_rows(b)
        ints = linalg.product(A, B)
        assert all(type(x) is int for row in ints for x in row)
        assert [[F(x, Da * Db) for x in row] for row in ints] == [list(row) for row in want]


def diagonal(entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


@st.composite
def shaped_factors(draw):
    # a, b and m square of side d + 1 <= 5, a diagonal c, and a unit e_ij;
    # integer entries, or floats, where the helpers must give the plain
    # product's values
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from((INTS, st.floats(-1e6, 1e6, allow_nan=False))))

    def matrix():
        return tuple(tuple(draw(kind) for _ in range(n)) for _ in range(n))

    c = [draw(kind) for _ in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return matrix(), matrix(), c, i, j


@settings(max_examples=300, deadline=None)
@given(shaped_factors())
def test_shape_helpers_equal_the_plain_products(case):
    a, b, c, i, j = case
    n = len(a)
    unit = tuple(tuple(int((r, s) == (i, j)) for s in range(n)) for r in range(n))
    D = diagonal(c)
    plain_bracket = linalg.mat_sub(linalg.product(D, a), linalg.product(a, D))
    assert linalg.scale_rows(c, a) == linalg.product(D, a)
    assert linalg.through_diagonal(a, c, b) == linalg.product(linalg.product(a, D), b)
    assert linalg.through_unit(a, i, j, b) == linalg.product(linalg.product(a, unit), b)
    assert linalg.diagonal_commutator(c, a) == plain_bracket
    if all(type(x) is int for row in a for x in row):
        # on ints each helper stays on ints, and the bracket is (c_r - c_s) a_rs
        helpers = (linalg.scale_rows(c, a), linalg.through_unit(a, i, j, b))
        assert all(type(x) is int for m in helpers for row in m for x in row)
        assert plain_bracket == tuple(
            tuple((c[r] - c[s]) * a[r][s] for s in range(n)) for r in range(n)
        )
