"""Named verification suites over the whole library.

Each suite name maps to one check; `run_suites` executes a list of them
against a parameter set at the run's tolerance, sharing the polynomial
table, and the conjugator with its memoized expansions, between the
checks that consume one, so each is built at most once per run.  The
three-way check reads the kernel sums from that table, the generating
route one column expansion at a time, and the pairing route from the
shared expansions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import bispec, hyperg, liemod
from . import kappa as kappa_mod
from .kappa import ParameterSet
from .numeric import Scalar, format_scalar, scalars_equal
from .report import CheckReport

SUITES = (
    "def11",
    "orthogonality",
    "duality",
    "recurrence",
    "universal",
    "commute",
    "lemma21",
    "lemma22",
    "norms",
    "adjacency",
    "transition",
    "threeway",
)

KAPPA_ONLY_SUITES = frozenset({"def11", "lemma21", "lemma22"})
TABLE_SUITES = frozenset(
    {"orthogonality", "duality", "recurrence", "universal", "transition", "threeway"}
)
CONJUGATOR_SUITES = frozenset({"norms", "adjacency", "transition", "threeway"})


def check_def11(kappa: ParameterSet, tol: Scalar = 0) -> CheckReport:
    """Re-run the defining-condition diagnosis on a sealed set."""
    violations = kappa_mod.diagnose(kappa.nu, kappa.p, kappa.pt, kappa.u, tol)
    return CheckReport(
        "def11",
        not violations,
        [v.to_json_dict() for v in violations],
        {"d": kappa.d},
    )


def check_threeway(
    kappa: ParameterSet,
    N: int,
    tol: Scalar = 0,
    values: hyperg.PolynomialTable | None = None,
    conj: liemod.Conjugator | None = None,
) -> CheckReport:
    """All three evaluation routes on every index pair of the lattice;
    the kernel-sum route is read from the table (built when none is
    given), the generating route one column at a time, and the pairing
    route from each xt^nt and the weight of each n.  In approx mode the
    routes agree within tol times the larger of 1 and their largest
    magnitude."""
    tab = values if values is not None else hyperg.table(kappa, N)
    points = tab.points
    conj = conj if conj is not None else liemod.conjugator(kappa, tol)
    columns = [hyperg.generating_column(kappa, N, nt[1:]) for nt in points]
    xt = [liemod.xtilde_monomial(kappa, N, nt, conj).coeffs for nt in points]
    weights = [liemod.pairing_weight(kappa, N, n) for n in points]
    failures = []
    max_resid = 0
    for r, n in enumerate(points):
        for c, nt in enumerate(points):
            a = tab.values[r][c]
            b = columns[c].get(n, Fraction(0))
            p = xt[c].get(n, 0) * weights[r]
            resid = max(abs(a - b), abs(a - p))
            max_resid = max(max_resid, resid)
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
    return CheckReport(
        "threeway",
        not failures,
        failures,
        {"pairs": len(points) ** 2, "max_residual": format_scalar(max_resid)},
    )


def run_suites(
    names: Sequence[str],
    kappa: ParameterSet,
    N: int | None,
    tol: Scalar = 0,
    table: hyperg.PolynomialTable | None = None,
) -> list[CheckReport]:
    """Run the named suites in order, evaluating the table and the
    conjugator lazily, once each."""
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown check suite {name!r}")
        if name not in KAPPA_ONLY_SUITES and N is None:
            raise ValueError(f"suite {name!r} needs N")

    # built per call, so a check rebound on its module (as the perfbench
    # tracer does) is the one run
    checks = {
        "def11": check_def11,
        "orthogonality": hyperg.check_orthogonality,
        "duality": hyperg.check_duality,
        "recurrence": bispec.check_eigen,
        "universal": bispec.check_universal,
        "commute": bispec.check_commute,
        "lemma21": liemod.check_lemma21,
        "lemma22": liemod.check_generation,
        "norms": liemod.check_dual_norms,
        "adjacency": liemod.check_adjacency,
        "transition": liemod.check_transition,
        "threeway": check_threeway,
    }
    reports = []
    conj = None
    for name in names:
        args = (kappa, tol) if name in KAPPA_ONLY_SUITES else (kappa, N, tol)
        if name in TABLE_SUITES:
            if table is None:
                table = hyperg.table(kappa, N)
            args += (table,)
        shared = {}
        if name in CONJUGATOR_SUITES:
            if conj is None:
                conj = liemod.conjugator(kappa, tol)
            shared["conj"] = conj
        reports.append(checks[name](*args, **shared))
    return reports
