"""Acceptance gate.

Ten criteria, each one test, each printing a single pass/fail line to
the terminal (bypassing capture) so a full run reads as a checklist.
Everything runs in exact arithmetic at zero tolerance except the final
floating-point criterion.
"""

import itertools
import time
from fractions import Fraction as F
from math import comb

from mvkraw import bispec, hyperg, kappa, liemod, verify
from mvkraw.numeric import APPROX


def announce(capsys, n, ok, label):
    with capsys.disabled():
        print(f"\n[criterion {n:2d}] {'PASS' if ok else 'FAIL'} {label}")


# representatives: one parameter set per family and dimension
def reps_by_d():
    return {
        1: {
            "milch": kappa.family_milch([F(1, 3), F(2, 3)]),
            "ds": kappa.family_ds(F(2), 1),
            "griffiths": kappa.griffiths_from_p([F(2, 5), F(3, 5)]),
        },
        2: {
            "hoare-rahman": kappa.family_hoare_rahman(1, 2, 3, 4),
            "milch": kappa.family_milch([F(1, 2), F(1, 4), F(1, 4)]),
            "ds": kappa.family_ds(F(2), 2),
            "griffiths": kappa.griffiths_from_p([F(1, 4), F(1, 4), F(1, 2)]),
        },
        3: {
            "milch": kappa.family_milch([F(1, 2), F(1, 6), F(1, 6), F(1, 6)]),
            "ds": kappa.family_ds(F(2), 3),
            "griffiths": kappa.griffiths_from_p(
                [F(1, 3), F(1, 6), F(1, 4), F(1, 4)]
            ),
        },
    }


_TABLES: dict = {}


def table_for(k, N):
    key = (k, N)
    if key not in _TABLES:
        _TABLES[key] = hyperg.table(k, N)
    return _TABLES[key]


def eval_grid(max_n_low_d=5, max_n_d3=3):
    """(family, kappa, N) triples of the three-way evaluation grid."""
    grid = []
    for d, families in reps_by_d().items():
        top = max_n_d3 if d == 3 else max_n_low_d
        for name, k in families.items():
            for N in range(1, top + 1):
                grid.append((name, k, N))
    return grid


def test_criterion_01_parameter_set_validity(capsys):
    t0 = time.monotonic()
    count = 0

    hr_pool = [
        quad
        for quad in itertools.combinations(
            [F(1), F(2), F(3), F(4), F(5), F(1, 2), F(3, 2), F(5, 2)], 4
        )
    ]
    hr_sets = []
    for quad in hr_pool:
        try:
            hr_sets.append(kappa.family_hoare_rahman(*quad))
        except kappa.FamilyParameterError:
            continue
        if len(hr_sets) >= 20:
            break
    assert len(hr_sets) >= 20

    milch_ps = [
        [F(1, 2), F(1, 4), F(1, 4)],
        [F(1, 3), F(1, 3), F(1, 3)],
        [F(1, 6), F(1, 3), F(1, 2)],
        [F(2, 5), F(2, 5), F(1, 5)],
        [F(1, 10), F(3, 10), F(3, 5)],
        [F(1, 2), F(1, 6), F(1, 6), F(1, 6)],
        [F(1, 4), F(1, 4), F(1, 4), F(1, 4)],
        [F(1, 3), F(1, 6), F(1, 4), F(1, 4)],
        [F(2, 7), F(1, 7), F(2, 7), F(2, 7)],
        [F(1, 5), F(1, 5), F(2, 5), F(1, 5)],
    ]
    milch_sets = [kappa.family_milch(p) for p in milch_ps]

    ds_sets = [
        kappa.family_ds(q, d)
        for q in (F(2), F(3), F(1, 2), F(-1))
        for d in (1, 2, 3)
    ]

    griffiths_ps = [
        [F(1, 2), F(1, 2)],
        [F(1, 3), F(2, 3)],
        [F(2, 7), F(5, 7)],
        [F(3, 8), F(5, 8)],
        [F(1, 4), F(1, 4), F(1, 2)],
        [F(1, 3), F(1, 3), F(1, 3)],
        [F(1, 5), F(2, 5), F(2, 5)],
        [F(1, 2), F(1, 6), F(1, 6), F(1, 6)],
        [F(1, 4), F(1, 4), F(1, 4), F(1, 4)],
        [F(1, 6), F(1, 3), F(1, 4), F(1, 4)],
    ]
    griffiths_sets = [kappa.griffiths_from_p(p) for p in griffiths_ps]

    for k in hr_sets + milch_sets + ds_sets + griffiths_sets:
        assert kappa.diagnose(k.nu, k.p, k.pt, k.u) == []
        count += 1

    elapsed = time.monotonic() - t0
    ok = count >= 52 and elapsed < 1.0
    announce(
        capsys, 1, ok,
        f"family validity, {count} parameter sets ({elapsed:.2f}s < 1s)",
    )
    assert ok


def test_criterion_02_three_way_agreement(capsys):
    t0 = time.monotonic()
    ok = True
    runs = 0
    for name, k, N in eval_grid():
        rep = verify.run_suites(["threeway"], k, N, 0, table_for(k, N))[0]
        ok = ok and rep.passed
        runs += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    announce(
        capsys, 2, ok,
        f"three evaluation routes agree, {runs} grids ({elapsed:.1f}s < 60s)",
    )
    assert ok


def test_criterion_03_orthogonality(capsys):
    ok = True
    runs = 0
    for name, k, N in eval_grid(max_n_low_d=4, max_n_d3=3):
        rep = hyperg.check_orthogonality(k, N, tab=table_for(k, N))
        ok = ok and rep.passed
        runs += 1

    # classical cross-check: symmetric d = 1 weights give the standard
    # single-variable orthogonality sum_x C(N,x) 2^-N P(m,x) P(n,x)
    kc = kappa.griffiths_from_p([F(1, 2), F(1, 2)])
    for N in range(1, 6):
        tab = table_for(kc, N)
        at = {pt: r for r, pt in enumerate(tab.points)}

        def value(m, x):
            return tab.values[at[N - m, m]][at[N - x, x]]

        for m in range(N + 1):
            for n in range(N + 1):
                s = sum(
                    comb(N, x) * F(1, 2**N) * value(m, x) * value(n, x)
                    for x in range(N + 1)
                )
                want = F(1, comb(N, m)) if m == n else 0
                ok = ok and s == want

    announce(
        capsys, 3, ok,
        f"two-sided orthogonality with exact normalizations, {runs} grids "
        "+ classical cross-check",
    )
    assert ok


def test_criterion_04_bispectral_recurrences(capsys):
    ok = True
    attained = {}
    for name, k, N in eval_grid(max_n_low_d=4, max_n_d3=4):
        gens = bispec.generators(k, N, liemod.closed_forms(k), liemod.move_table(k.d, N))
        rep = bispec.check_eigen(k, N, tab=table_for(k, N), gens=gens)
        ok = ok and rep.passed
        counts = rep.details["term_counts"]
        attained[(name, k.d)] = (
            counts["second_index_family"],
            counts["first_index_family"],
            rep.details["term_bound"],
        )
    announce(
        capsys, 4, ok,
        "bispectral recurrences, both families, exact eigenvalues",
    )
    with capsys.disabled():
        for (name, d), (second, first, bound) in sorted(attained.items()):
            print(
                f"    terms attained {name} d={d}: "
                f"{second} and {first} of bound {bound}"
            )
    assert ok


def test_criterion_05_universal_equation(capsys):
    ok = True
    symbolic_d2 = False
    for name, k, N in eval_grid(max_n_low_d=4, max_n_d3=4):
        forms = liemod.closed_forms(k)
        moves = liemod.move_table(k.d, N)
        rep = bispec.check_universal(k, N, tab=table_for(k, N), forms=forms, moves=moves)
        ok = ok and rep.passed
        if k.d == 2:
            symbolic_d2 = symbolic_d2 or rep.details["symbolic_identity"]
    ok = ok and symbolic_d2
    announce(
        capsys, 5, ok,
        "universal operator eigenvalue -|m| + symbolic identity at d=2",
    )
    assert ok


def test_criterion_06_commutativity(capsys):
    ok = True
    runs = 0
    for d in (2, 3):
        for name, k in reps_by_d()[d].items():
            for N in range(1, 5):
                gens = bispec.generators(k, N, liemod.closed_forms(k), liemod.move_table(k.d, N))
                rep = bispec.check_commute(k, N, gens=gens)
                ok = ok and rep.passed
                runs += 1
    announce(
        capsys, 6, ok,
        f"generator families commute pairwise, {runs} runs at d in {{2,3}}",
    )
    assert ok


def test_criterion_07_lie_structure_suite(capsys):
    t0 = time.monotonic()
    ok = True
    for d in (1, 2):
        for name, k in reps_by_d()[d].items():
            reports = verify.run_suites(["lemma21", "lemma22"], k, None)
            for N in range(1, 4):
                reports += verify.run_suites(
                    ["norms", "transition", "adjacency"], k, N, 0, table_for(k, N)
                )
            ok = ok and all(r.passed for r in reports)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    announce(
        capsys, 7, ok,
        f"structure suite: antiautomorphism, closed forms, bracket "
        f"generation, adjointness, norms, transitions, adjacency "
        f"({elapsed:.1f}s < 30s)",
    )
    assert ok


def test_criterion_08_duality(capsys):
    ok = True
    runs = 0
    for d in (1, 2):
        for name, k in reps_by_d()[d].items():
            for N in range(1, 5):
                rep = hyperg.check_duality(k, N, tab=table_for(k, N))
                ok = ok and rep.passed
                runs += 1

    # parameter-level involution identity for the 4-parameter family:
    # swapping the middle two parameters is the involution
    for quad in [(1, 2, 3, 4), (F(1, 2), 2, 3, F(5, 2)), (1, 3, 5, 7)]:
        a, b, c, e = quad
        ok = ok and kappa.involute(
            kappa.family_hoare_rahman(a, b, c, e), 0
        ) == kappa.family_hoare_rahman(a, c, b, e)

    announce(
        capsys, 8, ok,
        f"involution transposes tables ({runs} grids) and swaps the "
        "middle parameters of the 4-parameter family",
    )
    assert ok


def test_criterion_09_d1_closed_form(capsys):
    ok = True
    weights = [
        [F(1, 3), F(2, 3)],
        [F(1, 5), F(4, 5)],
        [F(2, 7), F(5, 7)],
        [F(3, 8), F(5, 8)],
        [F(1, 2), F(1, 2)],
    ]
    for p in weights:
        k = kappa.family_milch(p)
        om = 1 - k.u[1][1]
        for N in range(1, 7):
            for mt in range(N + 1):
                val = hyperg.eval_hypergeometric(k, N, (1,), (mt,))
                ok = ok and val == 1 - F(mt) * om / N
    announce(
        capsys, 9, ok,
        "degree-one values reduce to the classical linear form 1 - mt*w/N",
    )
    assert ok


def test_criterion_10_approximate_mode(capsys):
    tol = 1e-10
    ok = True
    max_resid = 0.0

    def approx(k):
        return kappa.from_json_dict(kappa.to_json_dict(k), APPROX, tol)

    def track(rep):
        nonlocal ok, max_resid
        ok = ok and rep.passed
        if "max_residual" in rep.details:
            max_resid = max(max_resid, abs(float(rep.details["max_residual"])))

    for name, k, N in eval_grid():
        track(*verify.run_suites(["threeway"], approx(k), N, tol))
    for name, k, N in eval_grid(max_n_low_d=4, max_n_d3=3):
        track(*verify.run_suites(["orthogonality"], approx(k), N, tol))
    for name, k, N in eval_grid(max_n_low_d=4, max_n_d3=4):
        track(*verify.run_suites(["recurrence"], approx(k), N, tol))

    ok = ok and max_resid < tol
    announce(
        capsys, 10, ok,
        f"floating-point reruns of criteria 2-4, max residual "
        f"{max_resid:.2e} < 1e-10",
    )
    assert ok
