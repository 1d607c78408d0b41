"""Named verification suites over the whole library.

Each suite name maps to one check; `run_suites` executes a list of them
against a parameter set, sharing the polynomial table between the
checks that consume one so it is evaluated at most once per run.
"""

from __future__ import annotations

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
) -> CheckReport:
    """All three evaluation routes on every index pair of the lattice;
    the kernel-sum route is read from the table (built when none is given).
    In approx mode the routes agree within tol times the larger of 1 and
    their largest magnitude."""
    tab = values if values is not None else hyperg.table(kappa, N)
    points = tab.points
    conj = liemod.conjugator(kappa)
    cache: dict = {}
    failures = []
    max_resid = 0
    for r, n in enumerate(points):
        for c, nt in enumerate(points):
            a = tab.values[r][c]
            b = hyperg.eval_generating(kappa, N, n[1:], nt[1:])
            p = liemod.pairing_eval(kappa, N, n, nt, conj, cache)
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
    """Run the named suites in order, evaluating the table lazily once."""
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown check suite {name!r}")
        if name not in KAPPA_ONLY_SUITES and N is None:
            raise ValueError(f"suite {name!r} needs N")

    def shared_table() -> hyperg.PolynomialTable:
        nonlocal table
        if table is None:
            table = hyperg.table(kappa, N)
        return table

    reports = []
    for name in names:
        if name == "def11":
            reports.append(check_def11(kappa, tol))
        elif name == "orthogonality":
            reports.append(
                hyperg.check_orthogonality(kappa, N, tol, shared_table())
            )
        elif name == "duality":
            reports.append(hyperg.check_duality(kappa, N, tol, shared_table()))
        elif name == "recurrence":
            reports.append(bispec.check_eigen(kappa, N, tol, shared_table()))
        elif name == "universal":
            reports.append(bispec.check_universal(kappa, N, tol, shared_table()))
        elif name == "commute":
            reports.append(bispec.check_commute(kappa, N, tol))
        elif name == "lemma21":
            reports.append(liemod.check_lemma21(kappa))
        elif name == "lemma22":
            reports.append(liemod.check_generation(kappa))
        elif name == "norms":
            reports.append(liemod.check_dual_norms(kappa, N, tol))
        elif name == "adjacency":
            reports.append(liemod.check_adjacency(kappa, N, tol))
        elif name == "transition":
            reports.append(
                liemod.check_transition(kappa, N, tol, shared_table())
            )
        elif name == "threeway":
            reports.append(check_threeway(kappa, N, tol, shared_table()))
    return reports
