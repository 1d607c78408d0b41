"""Named verification suites over the whole library.

Each suite name maps to one check; `run_suites` executes a list of them
against a parameter set at the run's tolerance, and is the one place
their inputs are built: the polynomial table, the conjugator (its
inverse checked at that tolerance) and the expansion matrix X of
`liemod.expansion_matrix`, each lazily and once per run, handed to
each check that reads it.  The three-way check reads the kernel sums
from the table, the generating route one column expansion at a time,
and the pairing route from X.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import bispec, hyperg, liemod
from . import kappa as kappa_mod
from .kappa import ParameterSet
from .numeric import Scalar, enumerate_lattice, format_scalar, scalars_equal
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
    *,
    tab: hyperg.PolynomialTable,
    X: dict,
) -> CheckReport:
    """All three evaluation routes on every index pair of the lattice;
    the kernel-sum route is read from the table, the generating route
    one column at a time, and the pairing route from each row X[nt] of
    the expansion matrix and the weight of each n.  In approx mode the
    routes agree within tol times the larger of 1 and their largest
    magnitude."""
    points = tab.points
    columns = [hyperg.generating_column(kappa, N, nt[1:]) for nt in points]
    weights = [liemod.pairing_weight(kappa, N, n) for n in points]
    failures = []
    max_resid = 0
    for r, n in enumerate(points):
        for c, nt in enumerate(points):
            a = tab.values[r][c]
            b = columns[c].get(n, Fraction(0))
            p = X[nt].get(n, 0) * weights[r]
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
    """Run the named suites in order.  The table (`table` when one is
    given), the conjugator at `tol` and the expansion matrix are each
    built on first need and handed to every suite that reads them."""
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown check suite {name!r}")
        if name not in KAPPA_ONLY_SUITES and N is None:
            raise ValueError(f"suite {name!r} needs N")

    # each check with the inputs it reads besides (kappa, N, tol), by
    # keyword; built per call, so a check rebound on its module (as the
    # perfbench tracer does) is the one run
    checks = {
        "def11": (check_def11,),
        "orthogonality": (hyperg.check_orthogonality, "tab"),
        "duality": (hyperg.check_duality, "tab"),
        "recurrence": (bispec.check_eigen, "tab"),
        "universal": (bispec.check_universal, "tab"),
        "commute": (bispec.check_commute,),
        "lemma21": (liemod.check_lemma21, "conj"),
        "lemma22": (liemod.check_generation, "conj"),
        "norms": (liemod.check_dual_norms, "X"),
        "adjacency": (liemod.check_adjacency, "X"),
        "transition": (liemod.check_transition, "tab", "conj", "X"),
        "threeway": (check_threeway, "tab", "X"),
    }
    build = {
        "tab": lambda: hyperg.table(kappa, N),
        "conj": lambda: liemod.conjugator(kappa, tol),
        "X": lambda: liemod.expansion_matrix(need("conj"), enumerate_lattice(kappa.d, N)),
    }
    inputs = {} if table is None else {"tab": table}

    def need(key: str):
        if key not in inputs:
            inputs[key] = build[key]()
        return inputs[key]

    reports = []
    for name in names:
        check, *keys = checks[name]
        args = (kappa, tol) if name in KAPPA_ONLY_SUITES else (kappa, N, tol)
        reports.append(check(*args, **{key: need(key) for key in keys}))
    return reports
