"""The matrix product against the plain one it replaces."""

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
    got, want = linalg.mat_mul(a, b), naive_product(a, b)
    assert [[bits(x) for x in row] for row in got] == [
        [bits(x) for x in row] for row in want
    ]
    # an int product stays int; a Fraction in either exact factor makes
    # every entry a Fraction; floats and complexes are the plain product's
    entries = [x for m in (a, b) for row in m for x in row]
    rational = all(isinstance(x, (int, F)) for x in entries) and any(
        isinstance(x, F) for x in entries
    )
    assert [[type(x) for x in row] for row in got] == [
        [F if rational else type(x) for x in row] for row in want
    ]

