"""Named verification suites over the whole library.

Each suite name maps to one check; `run_suites` executes a list of them
against a parameter set at the run's tolerance, and is the one place
their inputs are built: the polynomial table, the conjugator (its
inverse checked at that tolerance), the expansion matrix X =
Sym^N(rhat) of `liemod.expansion_matrix` and its inverse Y =
Sym^N(rhat^-1) of `liemod.to_dual_coords`, both dense integer lines
from that one conjugator, both closed forms (`liemod.closed_forms`),
the unit-move table of `liemod.move_table`, from which every lattice
form of the run is read, and the 2d generators of `bispec.generators`,
each lazily and once per run, handed to each check that reads it.  The
three-way check reads the kernel sums from the table, the generating
route one column expansion at a time, and the pairing route from the
columns of X, transposed once.
"""

from __future__ import annotations

from typing import Sequence

from . import bispec, hyperg, liemod
from . import kappa as kappa_mod
from .kappa import ParameterSet
from .numeric import Scalar, enumerate_lattice, format_scalar, is_exact, misses, ratio, scalars_equal
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
    X: tuple,
) -> CheckReport:
    """All three evaluation routes on every index pair of the lattice;
    the kernel-sum route is read from the table, the generating route
    one column at a time, and the pairing route from each column X[.][n]
    of the expansion matrix, the lines of X transposed once, and the
    weight w = num/den of each n.  Each row
    of the table's integer view is compared with both other routes by
    `numeric.misses`, on ints in exact mode, and the values and the
    residuals are made only for a miss.  In approx mode the routes agree
    within tol times the larger of 1 and their largest magnitude."""
    points = tab.points
    columns = [hyperg.generating_column(kappa, N, nt[1:]) for nt in points]
    weights = [liemod.pairing_weight(kappa, N, n) for n in points]
    lines, D = X
    failures = []
    max_resid = 0
    by_column = zip(*lines)  # X transposed once: X[nt][n] over the nt, per n
    for n, (ints, S), w, coeffs in zip(points, tab.integer_view[0], weights, by_column):
        num, den = (w.numerator, w.denominator * D) if is_exact(w) else (w, D)
        generating = [column.get(n, 0) for column in columns]
        pairing = [x * num for x in coeffs]
        missed = {k for k, _, _ in misses(ints, S, generating, 1)}
        missed.update(k for k, _, _ in misses(ints, S, pairing, den))
        for c in sorted(missed):
            a, b, p = ratio(ints[c], S), generating[c], ratio(pairing[c], den)
            resid = max(abs(a - b), abs(a - p))
            max_resid = max(max_resid, resid)
            bound = tol * max(1, abs(a), abs(b), abs(p)) if tol else 0
            if not (scalars_equal(a, b, bound) and scalars_equal(a, p, bound)):
                failures.append(
                    {
                        "pair": [list(n), list(points[c])],
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
    given), the conjugator at `tol`, the expansion matrix X and its
    inverse Y, the closed forms, the move table and the generators with
    their lattice forms are each built on first need and handed to every
    suite that reads them."""
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
        "recurrence": (bispec.check_eigen, "tab", "gens"),
        "universal": (bispec.check_universal, "tab", "forms", "moves"),
        "commute": (bispec.check_commute, "gens"),
        "lemma21": (liemod.check_lemma21, "conj"),
        "lemma22": (liemod.check_generation, "conj", "forms"),
        "norms": (liemod.check_dual_norms, "X", "moves"),
        "adjacency": (liemod.check_adjacency, "X", "gens"),
        "transition": (liemod.check_transition, "tab", "X", "Y"),
        "threeway": (check_threeway, "tab", "X"),
    }
    build = {
        "tab": lambda: hyperg.table(kappa, N),
        "conj": lambda: liemod.conjugator(kappa, tol),
        "X": lambda: liemod.expansion_matrix(need("conj").rhat, enumerate_lattice(kappa.d, N)),
        "Y": lambda: liemod.to_dual_coords(need("conj"), enumerate_lattice(kappa.d, N)),
        "forms": lambda: liemod.closed_forms(kappa),
        "moves": lambda: liemod.move_table(kappa.d, N),
        "gens": lambda: bispec.generators(kappa, N, need("forms"), need("moves")),
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
