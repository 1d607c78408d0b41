"""Scalar modes and the combinatorial substrate."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mvkraw import hyperg
from mvkraw.numeric import (
    APPROX,
    EXACT,
    DegreeMismatchError,
    clear_denominators,
    enumerate_degree_points,
    enumerate_kernels,
    enumerate_lattice,
    exactify,
    format_ratio,
    format_scalar,
    gram_misses,
    is_exact,
    multi_factorial,
    multinomial,
    parse_ratio,
    parse_scalar,
    power_product,
    scalars_equal,
)
import kernel_oracle


class TestScalars:
    def test_parse_rational(self):
        assert parse_scalar("3/4") == Fraction(3, 4)
        assert parse_scalar("-7") == -7
        assert parse_scalar(" 1/3 ") == Fraction(1, 3)

    def test_parse_approx_gives_float(self):
        x = parse_scalar("1/3", APPROX)
        assert isinstance(x, float)

    @staticmethod
    def _parsed(parse, text):
        """What a parse gives: its value with the value's type, or its
        exception's type and message."""
        try:
            value = parse(text)
        except Exception as exc:
            return type(exc), str(exc)
        return type(value), value

    # a decimal literal with an exponent, as Fraction's grammar writes it
    _DECIMAL = re.compile(
        r"""\s*[-+]?(?=\d|\.\d)(\d*|\d+(_\d+)*)
        (\.(\d*|\d+(_\d+)*))?E(?P<exp>[-+]?\d+(_\d+)*)\s*""",
        re.VERBOSE | re.IGNORECASE,
    )

    @classmethod
    def _fraction(cls, text):
        """Fraction(text.strip()), save that a decimal literal whose
        exponent is past +-4300 is refused without calling Fraction,
        which would build 10**exponent."""
        literal = cls._DECIMAL.fullmatch(text)
        if literal and abs(int(literal["exp"])) > 4300:
            raise ValueError(f"exponent past +-4300 in decimal literal {text.strip()!r}")
        return Fraction(text.strip())

    def _assert_parses_as_fraction(self, text):
        # the int fast path gives what Fraction's own parser gives, value
        # or error, in both modes, and refuses an exponent past the bound;
        # `parse_ratio` gives the same value as ints a/b with b > 0, or the
        # same error
        for mode, convert in ((EXACT, Fraction), (APPROX, float)):
            want = self._parsed(lambda t: convert(self._fraction(t)), text)
            assert self._parsed(lambda t: parse_scalar(t, mode), text) == want, (text, mode)

        def ratio_value(t):
            a, b = parse_ratio(t)
            assert type(a) is int and type(b) is int and b > 0
            return Fraction(a, b)

        assert self._parsed(ratio_value, text) == self._parsed(parse_scalar, text), text

    @pytest.mark.parametrize(
        "text",
        ["1/-2", "3/+4", "3 /4", "1_000/3", "0.5", "1e3", "\u0663/4", "1/0", "-0/5", "", "/",
         "-1/0", "+5/0", " -12/18\n", "007/0", "+0", "9e999", "1e4301", "0e500001",
         "1e-4_301", "1E+4_300", " .5e-4300 ", "1/2e99999"],
    )
    def test_parse_cases_match_fraction(self, text):
        self._assert_parses_as_fraction(text)

    @given(
        st.one_of(
            st.text(alphabet="0123456789+-/_. e\u0663\t", max_size=12),
            st.from_regex(r"\s?[+-]?[0-9]{1,40}(/[0-9]{1,40})?\s?", fullmatch=True),
            st.fractions().map(format_scalar),
        )
    )
    def test_parse_matches_fraction(self, text):
        self._assert_parses_as_fraction(text)

    @pytest.mark.parametrize("mode", [EXACT, APPROX])
    @pytest.mark.parametrize("text", ["1e4301", "0e500001", "1e-4_301", "1e999999999"])
    def test_exponent_past_the_bound_is_refused(self, text, mode):
        # Fraction would build 10**exponent; the refusal is a ValueError,
        # which the CLI reports as a parse error (exit 2)
        with pytest.raises(ValueError, match=r"exponent past \+-4300"):
            parse_scalar(text, mode)

    def test_format_lowest_terms(self):
        assert format_scalar(Fraction(2, 4)) == "1/2"
        assert format_scalar(Fraction(-6, 3)) == "-2"
        assert format_scalar(5) == "5"

    # parts past the 4,300 digits that `str` writes for an int
    long_ints = st.builds(
        lambda m, e, sign: sign * (m * 10**e + 1),
        st.integers(1, 10**6),
        st.integers(4290, 4400),
        st.sampled_from([1, -1]),
    )

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.integers(-(10**30), 10**30), long_ints),
        st.one_of(st.integers(1, 10**30), long_ints.map(abs)),
        st.integers(1, 10**6),
    )
    @example(0, 7, 1)
    @example(-12, 4, 1)
    @example(10**4400, 10**4301, 3)
    def test_format_ratio_equals_format_scalar(self, num, den, common):
        # the text of an integer table entry over its scale, by one gcd,
        # is what `format_scalar` writes for the Fraction: negative, zero,
        # integral, not in lowest terms, and parts past the digit limit
        a, b = num * common, den * common
        assert format_ratio(a, b) == format_scalar(Fraction(a, b))

    def test_format_float_17_digits(self):
        s = format_scalar(1 / 3)
        assert float(s) == 1 / 3
        assert len(s.replace("0.", "")) >= 16

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            format_scalar(True)

    def test_exactify(self):
        assert exactify(3) == Fraction(3) and is_exact(exactify(3))
        assert exactify(0.5) == 0.5 and not is_exact(exactify(0.5))
        # int division stays exact after promotion
        assert exactify(1) / 3 == Fraction(1, 3)

    @given(st.fractions(max_denominator=10**6))
    def test_round_trip(self, x):
        assert parse_scalar(format_scalar(x)) == x

    def test_tolerance(self):
        assert scalars_equal(1.0, 1.0 + 1e-12, 1e-10)
        assert not scalars_equal(1.0, 1.0 + 1e-12, 0)

    def test_gram(self):
        # G[a][b] = sum_r col_a[r] col_b[r] w[r] / (S_a S_b S), summed on
        # the ints of lines scaled by their owner, each line weighted
        # once and each symmetric sum taken once; only the pairs that are
        # not literally the diagonal come out
        cols = [[Fraction(1, 2), 0, 3], [Fraction(1, 3), 2, -1]]
        w = [Fraction(2), Fraction(1, 5), 1]
        want = [[sum(x * y * v for x, y, v in zip(a, b, w)) for b in cols] for a in cols]
        assert want == [
            [Fraction(19, 2), Fraction(-8, 3)],
            [Fraction(-8, 3), Fraction(91, 45)],
        ]
        lines, scales = zip(*(clear_denominators(c) for c in cols))
        ints, S = clear_denominators(w)

        class Counted(list):
            """A list that counts the passes made over it."""

            def __init__(self, items):
                super().__init__(items)
                self.passes = 0

            def __iter__(self):
                self.passes += 1
                return super().__iter__()

        L = len(lines)
        sums = L * (L + 1) // 2
        counted, weights = [Counted(line) for line in lines], Counted(ints)
        diag = [Fraction(19, 2), Fraction(91, 45)]
        got = list(gram_misses(counted, scales, (weights, S), diag, [1, 1], 0))
        # the weights are typed once and read once per line weighted; each
        # line is typed and weighted once, then read once per sum it is
        # line b of: L(L+1)/2 dot products, not L^2
        assert weights.passes == 1 + L == 3
        assert sum(line.passes for line in counted) == 2 * L + sums == 7
        assert got == [(0, 1, Fraction(-8, 3), 0, 0), (1, 0, Fraction(-8, 3), 0, 0)]
        assert all(type(g) is Fraction for _, _, g, _, _ in got)
        got = list(gram_misses(lines, scales, (ints, S), [diag[0], 1], [1, 1], 0))
        assert got[-1] == (1, 1, Fraction(91, 45), 1, 0)
        assert list(gram_misses(lines, scales, (ints, S), [9, 2], [1, 1], 0))[0][:2] == (0, 0)
        # a float sum always comes out, bounded by tol max(sizes[a], sizes[b])
        floats = [[float(x) for x in c] for c in cols]
        sizes = [2, 5]
        weights = Counted(float(x) for x in w)
        got = list(gram_misses(floats, [1, 1], (weights, 1), diag, sizes, 1e-10))
        # the typing stops at the first float; then one pass per sum
        assert weights.passes == 1 + sums == 4
        assert [(a, b) for a, b, *_ in got] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for a, b, g, h, bound in got:
            assert type(g) is float and abs(g - want[a][b]) < 1e-12
            assert h == (diag[a] if a == b else 0)
            assert bound == 1e-10 * max(sizes[a], sizes[b])


class TestCombinatorics:
    def test_multinomial(self):
        assert multinomial(4, (2, 1, 1)) == 12
        assert multinomial(0, (0, 0)) == 1
        with pytest.raises(DegreeMismatchError):
            multinomial(3, (1, 1))

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=4))
    def test_multinomial_vs_factorials(self, lam):
        n = sum(lam)
        import math

        assert multinomial(n, lam) * multi_factorial(lam) == math.factorial(n)

    def test_power_product(self):
        assert power_product((2, 3), (3, 1)) == 24
        assert power_product((Fraction(1, 2),), (2,)) == Fraction(1, 4)
        assert power_product((5, 7), (0, 0)) == 1


class TestLattice:
    def test_order_d1(self):
        assert list(enumerate_lattice(1, 2)) == [(2, 0), (1, 1), (0, 2)]

    def test_order_is_lex_descending(self):
        pts = list(enumerate_lattice(2, 3))
        assert pts[0] == (3, 0, 0)
        assert pts[-1] == (0, 0, 3)
        assert pts == sorted(pts, reverse=True)

    @given(st.integers(1, 4), st.integers(0, 6))
    def test_size_matches_binomial(self, d, N):
        pts = list(enumerate_lattice(d, N))
        assert len(pts) == math.comb(N + d, d)
        assert len(set(pts)) == len(pts)
        assert all(sum(p) == N and len(p) == d + 1 for p in pts)

    def test_reduced_points(self):
        red = list(enumerate_degree_points(2, 2))
        assert len(red) == math.comb(2 + 2, 2)
        assert all(len(y) == 2 and sum(y) <= 2 for y in red)


class TestKernels:
    """The d = 1 enumerator of totals, and the margin sums of every d,
    against the brute-force kernel list of `kernel_oracle`."""

    def test_small_square_count(self):
        # a 1 x 1 kernel is its total: caps 3 and 2 at degree 4 leave 0..2
        assert list(enumerate_kernels(4, 3, 2)) == [0, 1, 2]
        assert len(kernel_oracle.kernels(2, (2, 2), (2, 2))) == 15

    @pytest.mark.parametrize(
        "d,degree,row_caps,col_caps",
        [
            (1, 4, (3,), (2,)),
            (2, 2, (2, 2), (2, 2)),
            (2, 3, (2, 1), (3, 3)),
            (3, 2, (2, 2, 2), (1, 1, 2)),
        ],
    )
    def test_matches_brute_force(self, d, degree, row_caps, col_caps):
        # with omega all ones and by_total all ones, S[r][c] is the sum of
        # N!/A! over the listed kernels with margins (r, c): the capped
        # transfer visits exactly the kernels of the brute-force list
        listed = kernel_oracle.kernels(degree, row_caps, col_caps)
        W, by_total = [[1] * d for _ in range(d)], [1] * (degree + 1)
        fact = tuple(math.factorial(x) for x in range(degree + 1))
        got = hyperg._margin_transfer(W, degree, fact, by_total, row_caps, col_caps)
        assert got == kernel_oracle.margin_sums(W, degree, by_total, row_caps, col_caps)
        assert {key for key, s in got.items() if s} == set(map(kernel_oracle.margins, listed))
        if d == 1:
            assert list(enumerate_kernels(degree, *row_caps, *col_caps)) == [a for ((a,),) in listed]

    @given(
        st.integers(1, 3),
        st.integers(0, 4),
        st.data(),
    )
    def test_margins_consistent(self, d, degree, data):
        row_caps = data.draw(
            st.lists(st.integers(0, 4), min_size=d, max_size=d)
        )
        col_caps = data.draw(
            st.lists(st.integers(0, 4), min_size=d, max_size=d)
        )
        W = [[1] * d for _ in range(d)]
        fact = tuple(math.factorial(x) for x in range(degree + 1))
        sums = hyperg._margin_transfer(W, degree, fact, [1] * (degree + 1), row_caps, col_caps)
        for r, c in sums:
            assert sum(r) == sum(c) <= degree
            assert all(x <= y for x, y in zip(r, row_caps))
            assert all(x <= y for x, y in zip(c, col_caps))
        if d == 1:
            totals = list(enumerate_kernels(degree, *row_caps, *col_caps))
            assert totals == [t for (t,), _ in sums]

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
    def test_lex_order_of_flattened_entries(self, degree, row_cap, col_cap):
        # a 1 x 1 kernel flattens to its total: the totals come in the lex
        # order of the brute-force list, each once
        listed = kernel_oracle.kernels(degree, (row_cap,), (col_cap,))
        assert list(enumerate_kernels(degree, row_cap, col_cap)) == [a for ((a,),) in listed]

    def test_zero_matrix_always_first_present(self):
        assert list(enumerate_kernels(0, 5, 5)) == [0]
        assert next(enumerate_kernels(5, 0, 5)) == 0

    def test_bad_caps_rejected(self):
        for caps in ((-1, 1), (1, -1)):
            with pytest.raises(ValueError):
                list(enumerate_kernels(2, *caps))
