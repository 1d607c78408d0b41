"""The parameter space of multivariate Krawtchouk families.

A parameter set is a 4-tuple (nu, P, Ptilde, U): a nonzero scalar nu,
two diagonal weight matrices stored as vectors ``p`` and ``pt`` whose
0-th entries both equal 1/nu, and a mixing matrix ``u`` with first row
and column all ones, subject to the defining matrix identity

    nu * P * U * Ptilde * U^t == identity.

``validate`` is the single point where these conditions are checked,
and it seals the set it returns with the tolerance of the proof
(`sealed`): the involution, the def11 suite and the conjugator read the
seal at that tolerance instead of checking again, and only a set built
directly, with no seal, is diagnosed again.  A set keeps one scaled
form of itself, its integer view (`ParameterSet.integer_view`), with
the one flag that says whether it is exact; the diagnosis, kernel sums,
closed forms and checks read both.  Three
explicit families plus a Gram-Schmidt construction from a bare weight
vector produce valid sets, and the bispectral involution swaps the two
weight vectors while transposing the mixing matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .numeric import (
    DEFAULT_EPS,
    EXACT,
    Scalar,
    clear_denominators,
    exactify,
    format_scalar,
    is_exact,
    misses,
    parse_scalar,
    scalars_equal,
)


@dataclass(frozen=True)
class ParameterSet:
    """A validated parameter set; produce via ``validate`` or a family
    constructor, never directly."""

    d: int
    nu: Scalar
    p: tuple
    pt: tuple
    u: tuple  # (d+1) x (d+1), tuple of row-tuples

    @functools.cached_property
    def integer_view(self) -> tuple:
        """(exact, nu, p, pt, u, views), each value as (ints, D) with the
        value ints / D: nu as a one-entry list, p and pt over the lcm of
        their denominators (`numeric.clear_denominators`), u on integer
        rows over one scale (`linalg.integer_rows`).  exact is the one
        decision whether the set is exact: a set with a float anywhere
        is not, and keeps every value as it is with D = 1, so float
        arithmetic on the view is the plain arithmetic of the set.
        views is {N: view} of `hyperg._integer_view`.  Kept on the
        instance, not as a field, so ==, hash and the wire form never
        see it, and an approx set and its equal exact twin never share
        it; so is the seal of `validate`."""
        values = (self.nu, *self.p, *self.pt, *(x for row in self.u for x in row))
        if all(map(is_exact, values)):
            nu, p, pt = (clear_denominators(v) for v in ((self.nu,), self.p, self.pt))
            return True, nu, p, pt, linalg.integer_rows(self.u), {}
        rows = [list(row) for row in self.u]
        return False, ([self.nu], 1), (list(self.p), 1), (list(self.pt), 1), (rows, 1), {}


@dataclass(frozen=True)
class Violation:
    condition: str
    where: tuple
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition,
            "where": list(self.where),
            "detail": self.detail,
        }


class InvalidParameterSetError(ValueError):
    """Raised when candidate data violates the defining conditions."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        lines = ", ".join(
            f"{v.condition}@{v.where}: {v.detail}" for v in self.violations
        )
        super().__init__(f"invalid parameter set: {lines}")


class GramSchmidtError(ValueError):
    """Orthogonalization broke down at a specific column."""

    def __init__(self, j: int, reason: str):
        self.j = j
        super().__init__(f"orthogonalization failed at column {j}: {reason}")


class FamilyParameterError(ValueError):
    """A family constructor hit a vanishing factor."""

    def __init__(self, factor: str):
        self.factor = factor
        super().__init__(f"forbidden parameter combination: {factor} = 0")


def default_tol(*values: Scalar) -> Scalar:
    """0 for all-exact inputs, the floating epsilon otherwise."""
    return 0 if all(is_exact(v) for v in values) else DEFAULT_EPS


def tol_for(kappa: ParameterSet, tol: Scalar = 0) -> Scalar:
    """The tolerance of a re-check on a sealed set: the run's tol, else 0
    if the set's integer view calls it exact and `DEFAULT_EPS` if not."""
    return tol or (0 if kappa.integer_view[0] else DEFAULT_EPS)


def sealed(kappa: ParameterSet, tol: Scalar) -> bool:
    """Whether `validate` (or `involute` of a sealed set) proved kappa's
    defining conditions at tol.  The seal is kept on the instance, like
    its integer view; a set built directly has none."""
    return kappa.__dict__.get("_sealed_tol") == tol


def _seal(kappa: ParameterSet, tol: Scalar) -> ParameterSet:
    kappa.__dict__["_sealed_tol"] = tol
    return kappa


def diagnose(
    nu: Scalar,
    p: Sequence[Scalar],
    pt: Sequence[Scalar],
    u: Sequence[Sequence[Scalar]],
    tol: Scalar = 0,
) -> list[Violation]:
    """Check every defining condition; empty list means valid.  Identity
    (iii) is read off the integer view of the data as a set
    (`ParameterSet.integer_view`): nu P U is u's integer rows scaled by
    NU P_i and Pt U^t its integer columns scaled by Q_k, so an exact
    product is one integer matrix, compared with its scale times I
    (`numeric.misses`), a Fraction made only for a miss; a float set's
    view is its values, and the product is the plain one."""
    bad = []
    nu = exactify(nu)
    d = len(p) - 1
    if d < 1:
        return [Violation("dimensions", (), f"need d >= 1, got {d}")]
    if len(pt) != d + 1:
        bad.append(Violation("dimensions", (), f"len(pt) = {len(pt)} != {d + 1}"))
    if len(u) != d + 1 or any(len(row) != d + 1 for row in u):
        bad.append(Violation("dimensions", (), f"u is not {d + 1} x {d + 1}"))
    if bad:
        return bad

    eq = lambda a, b: scalars_equal(a, b, tol)

    if eq(nu, 0):
        bad.append(Violation("nu_nonzero", (), "nu = 0"))
    else:
        if not eq(p[0], 1 / nu):
            bad.append(
                Violation("i", (0,), f"p[0] = {format_scalar(p[0])} != 1/nu")
            )
        if not eq(pt[0], 1 / nu):
            bad.append(
                Violation("i", (0,), f"pt[0] = {format_scalar(pt[0])} != 1/nu")
            )

    for j in range(d + 1):
        if not eq(u[0][j], 1):
            bad.append(Violation("ii", (0, j), f"u[0][{j}] != 1"))
        if j and not eq(u[j][0], 1):
            bad.append(Violation("ii", (j, 0), f"u[{j}][0] != 1"))

    if not eq(nu, 0):
        view = ParameterSet(d, nu, tuple(p), tuple(pt), linalg.freeze(u)).integer_view
        _, ([NU], Dn), (P, Dp), (Q, Dq), (U, Du), _ = view
        rows = linalg.scale_rows([NU * x for x in P], U)
        product = linalg.product(rows, linalg.scale_rows(Q, linalg.transpose(U)))
        flat = [x for row in product for x in row]
        identity = [int(i == j) for i in range(d + 1) for j in range(d + 1)]
        for k, got, _ in misses(flat, Dn * Dp * Dq * Du * Du, identity, 1):
            i, j = divmod(k, d + 1)
            if not eq(got, identity[k]):
                bad.append(
                    Violation(
                        "iii",
                        (i, j),
                        f"(nu P U Pt U^t)[{i}][{j}] = {format_scalar(got)} != {identity[k]}",
                    )
                )

    if not eq(sum(p), 1):
        bad.append(Violation("weights_sum", (), "sum(p) != 1"))
    if not eq(sum(pt), 1):
        bad.append(Violation("weights_sum", (), "sum(pt) != 1"))
    for j in range(d + 1):
        if eq(p[j], 0):
            bad.append(Violation("weight_zero", (j,), f"p[{j}] = 0"))
        if eq(pt[j], 0):
            bad.append(Violation("weight_zero", (j,), f"pt[{j}] = 0"))
    return bad


def validate(
    nu: Scalar,
    p: Sequence[Scalar],
    pt: Sequence[Scalar],
    u: Sequence[Sequence[Scalar]],
    tol: Scalar = 0,
) -> ParameterSet:
    """Seal candidate data into a ParameterSet or raise with the full
    list of violated conditions.  The conditions are diagnosed once, at
    tol, and the set is sealed with it (`sealed`)."""
    bad = diagnose(nu, p, pt, u, tol)
    if bad:
        raise InvalidParameterSetError(bad)
    return _seal(ParameterSet(len(p) - 1, nu, tuple(p), tuple(pt), linalg.freeze(u)), tol)


def involute(kappa: ParameterSet, tol: Scalar) -> ParameterSet:
    """Swap the two weight vectors and transpose the mixing matrix.

    Validity of the image is a consequence of the defining identity: AB
    = I implies BA = I for square A and B, and the other conditions are
    symmetric under the swap.  So the image of a set sealed at
    `tol_for(kappa, tol)` is sealed at it with no second diagnosis; an
    unsealed set's image is validated at it, and a failure there means
    the input was corrupted.
    """
    tol = tol_for(kappa, tol)
    u = linalg.transpose(kappa.u)
    if not sealed(kappa, tol):
        return validate(kappa.nu, kappa.pt, kappa.p, u, tol)
    return _seal(ParameterSet(kappa.d, kappa.nu, kappa.pt, kappa.p, u), tol)


def griffiths_from_p(p: Sequence[Scalar], tol: Scalar | None = None) -> ParameterSet:
    """Build a parameter set from a weight vector alone.

    Orthogonalizes the standard basis vectors e_1, ..., e_d in index
    order against the all-ones vector under the inner product
    <a, b> = sum a_i p_i b_i, rescales each result to have 0-th
    coordinate 1, and derives the dual weights from the resulting
    diagonal Gram matrix.
    """
    if tol is None:
        tol = default_tol(*p)
    p = [exactify(x) for x in p]
    d = len(p) - 1
    if d < 1:
        raise ValueError("need at least two weights")
    if any(scalars_equal(x, 0, tol) for x in p):
        raise ValueError("all weights must be nonzero")
    if not scalars_equal(sum(p), 1, tol):
        raise ValueError("weights must sum to 1")

    def inner(a, b):
        return sum(x * w * y for x, w, y in zip(a, p, b))

    columns = [tuple(1 for _ in range(d + 1))]
    norms = [inner(columns[0], columns[0])]  # = sum(p) = 1
    for j in range(1, d + 1):
        v = [1 if i == j else 0 for i in range(d + 1)]
        for k in range(j):
            c = inner(v, columns[k]) / norms[k]
            v = [x - c * w for x, w in zip(v, columns[k])]
        norm = inner(v, v)
        if scalars_equal(norm, 0, tol):
            raise GramSchmidtError(j, "zero norm")
        if scalars_equal(v[0], 0, tol):
            raise GramSchmidtError(j, "zero leading coordinate")
        scale = v[0]
        v = [x / scale for x in v]
        columns.append(tuple(v))
        norms.append(inner(v, v))

    u = tuple(
        tuple(columns[j][i] for j in range(d + 1)) for i in range(d + 1)
    )
    pt = tuple(p[0] / q for q in norms)
    return validate(1 / p[0], p, pt, u, tol)


def family_hoare_rahman(
    hp1: Scalar, hp2: Scalar, hp3: Scalar, hp4: Scalar
) -> ParameterSet:
    """The bivariate family with four free parameters.

    Forbidden combinations are detected lazily at the first vanishing
    denominator and reported by the factor that vanished.
    """
    hp1, hp2, hp3, hp4 = (exactify(x) for x in (hp1, hp2, hp3, hp4))
    named = {"hp1": hp1, "hp2": hp2, "hp3": hp3, "hp4": hp4}
    for name, value in named.items():
        if value == 0:
            raise FamilyParameterError(name)
    s = hp1 + hp2 + hp3 + hp4
    if s == 0:
        raise FamilyParameterError("hp1+hp2+hp3+hp4")
    pairs = {
        "hp1+hp2": hp1 + hp2,
        "hp1+hp3": hp1 + hp3,
        "hp2+hp4": hp2 + hp4,
        "hp3+hp4": hp3 + hp4,
    }
    for name, value in pairs.items():
        if value == 0:
            raise FamilyParameterError(name)

    u11 = 1 - (hp1 + hp2) * (hp1 + hp3) / (hp1 * s)
    u12 = 1 - (hp1 + hp2) * (hp2 + hp4) / (hp2 * s)
    u21 = 1 - (hp1 + hp3) * (hp3 + hp4) / (hp3 * s)
    u22 = 1 - (hp2 + hp4) * (hp3 + hp4) / (hp4 * s)
    p1 = hp1 * hp2 * s / ((hp1 + hp2) * (hp1 + hp3) * (hp2 + hp4))
    p2 = hp3 * hp4 * s / ((hp1 + hp3) * (hp2 + hp4) * (hp3 + hp4))
    pt1 = hp1 * hp3 * s / ((hp1 + hp2) * (hp1 + hp3) * (hp3 + hp4))
    pt2 = hp2 * hp4 * s / ((hp1 + hp2) * (hp2 + hp4) * (hp3 + hp4))
    p0 = 1 - p1 - p2
    if p0 == 0:
        raise FamilyParameterError("1-p1-p2")

    u = ((1, 1, 1), (1, u11, u12), (1, u21, u22))
    tol = default_tol(hp1, hp2, hp3, hp4)
    return validate(1 / p0, (p0, p1, p2), (p0, pt1, pt2), u, tol)


def family_milch(p: Sequence[Scalar]) -> ParameterSet:
    """Lower-triangular family fixing the weight vector p.

    Dual weights come from the tail sums 1 - p_1 - ... - p_k; each tail
    sum appears in a denominator and must not vanish.
    """
    p = [exactify(x) for x in p]
    d = len(p) - 1
    if d < 1:
        raise ValueError("need at least two weights")
    for j, x in enumerate(p):
        if x == 0:
            raise FamilyParameterError(f"p[{j}]")
    if sum(p) != 1:
        raise ValueError("weights must sum to 1")

    tails = [1]  # tails[k] = 1 - p_1 - ... - p_k
    for k in range(1, d + 1):
        tails.append(tails[k - 1] - p[k])
    for k in range(1, d + 1):
        if tails[k] == 0:
            raise FamilyParameterError(f"1-p[1..{k}]")

    pt = [p[0]]
    for k in range(1, d + 1):
        pt.append(p[k] * p[0] / (tails[k] * tails[k - 1]))

    u_rows = []
    for i in range(d + 1):
        row = []
        for j in range(d + 1):
            if i < j:
                row.append(1 if i == 0 else 0)
            elif i > j:
                row.append(1)
            elif i == 0:
                row.append(1)
            else:
                row.append(-tails[i] / p[i])
        u_rows.append(tuple(row))

    tol = default_tol(*p)
    return validate(1 / p[0], tuple(p), tuple(pt), tuple(u_rows), tol)


def family_ds(q: Scalar, d: int) -> ParameterSet:
    """Self-dual geometric family with anti-triangular mixing matrix.
    Where a float q puts the weight q^-d or nu = q^d past the float
    range (0 included for q^-d), the OverflowError names q and d."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    if q == 0 or q == 1:
        raise FamilyParameterError("q(q-1)")
    q = exactify(q)

    try:  # only float powers leave the range
        p = [q ** (-d)]
        nu = 1 / p[0]
    except (OverflowError, ZeroDivisionError):
        nu = math.inf
    if abs(nu) == math.inf:
        raise OverflowError(f"the approx ds weights at q = {q}, d = {d} leave the float range")
    for k in range(1, d + 1):
        p.append(q ** (-d + k - 1) * (q - 1))

    u_rows = []
    for i in range(d + 1):
        row = []
        for j in range(d + 1):
            if i + j <= d:
                row.append(1)
            elif i + j == d + 1:
                row.append(1 / (1 - q))
            else:
                row.append(0)
        u_rows.append(tuple(row))

    tol = default_tol(q)
    return validate(nu, tuple(p), tuple(p), tuple(u_rows), tol)


def to_json_dict(kappa: ParameterSet) -> dict:
    """Wire form with fixed key order and canonical scalar strings."""
    return {
        "d": kappa.d,
        "nu": format_scalar(kappa.nu),
        "p": [format_scalar(x) for x in kappa.p],
        "pt": [format_scalar(x) for x in kappa.pt],
        "u": [[format_scalar(x) for x in row] for row in kappa.u],
    }


def from_json_dict(obj: dict, mode: str = EXACT, tol: Scalar = 0) -> ParameterSet:
    """Parse and re-validate the wire form."""

    def scalar(field: str, x) -> Scalar:  # an approx value past the float range names its field
        try:
            return parse_scalar(str(x), mode)
        except OverflowError as exc:
            raise OverflowError(f"the parameter-set field {field} = {str(x)!r}: {exc}") from None

    try:
        d = obj["d"]
        if isinstance(d, bool) or not isinstance(d, int):
            raise TypeError(f"d must be an integer, got {d!r}")
        nu = scalar("nu", obj["nu"])
        p = [scalar(f"p[{j}]", x) for j, x in enumerate(obj["p"])]
        pt = [scalar(f"pt[{j}]", x) for j, x in enumerate(obj["pt"])]
        u = [[scalar(f"u[{i}][{j}]", x) for j, x in enumerate(r)] for i, r in enumerate(obj["u"])]
    except (KeyError, ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"malformed parameter-set object: {exc}") from exc
    if d != len(p) - 1:
        raise ValueError(f"declared d = {d} does not match len(p) = {len(p)}")
    return validate(nu, p, pt, u, tol)
