"""The three workloads: their inputs, their set-up and their operations.

Every workload uses fixed classical parameter sets plus two drawn from
the seed: a Hoare-Rahman quadruple and Griffiths weights, both with
3-digit denominators, so that the program's ``Fraction`` arithmetic
works on numbers of realistic size.  Set-up writes the parameter-set
files with ``mvkraw params-family`` / ``params-griffiths``, reads each
back with ``mvkraw params-validate``, and for ``check-table`` also
writes the input tables with ``mvkraw table``.  An operation is one
``mvkraw table`` or ``mvkraw check`` call; each carries the check that
is run on its output after it returns.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

FIXED_SETS = {
    "ds1": ["params-family", "--family", "ds", "--q", "3", "--d", "1"],
    "ds2": ["params-family", "--family", "ds", "--q", "2", "--d", "2"],
    "hr": ["params-family", "--family", "hoare-rahman", "--params", "1,2,3,4"],
    "milch": ["params-family", "--family", "milch", "--p", "1/2,1/4,1/8,1/8"],
}

# Why each workload is built as it is: see README.md.
TABLE_OPS = [("ds1", 20), ("ds2", 5), ("hr", 5), ("grif", 5), ("milch", 3)]
CHECK_FULL_OPS = [("ds2", 3), ("hr", 3), ("hrs", 3), ("grif", 3), ("milch", 2)]
CHECK_TABLE_OPS = [("ds1", 20), ("hr", 4), ("hrs", 4), ("milch", 3)]
CORRUPTED = ("hr", 4)  # the table of CHECK_TABLE_OPS that set-up copies with one wrong entry
CHECK_TABLE_SUITES = ["orthogonality", "recurrence", "universal"]
ALL_SUITES = [
    "def11", "orthogonality", "duality", "recurrence", "universal", "commute",
    "lemma21", "lemma22", "norms", "adjacency", "transition", "threeway",
]


class SetupError(RuntimeError):
    """mvkraw failed while the inputs were being written."""


@dataclass
class Op:
    name: str
    argv: list
    output: str  # the file the operation writes; removed before each call
    check: Callable[[int, object], list]  # (exit code, output JSON or None) -> problems


def call(cli, argv: list) -> tuple:
    """Run ``mvkraw <argv>`` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# Denominators are 3-digit primes from the upper half and numerators have
# 3 digits too, so every seed gives numbers of about the same size: the
# cost of a Fraction gcd, and so the run time, hardly depends on the seed.
PRIMES = [n for n in range(500, 1000) if all(n % k for k in range(2, 32))]


def draw_sets(rng: random.Random) -> dict:
    """The seeded parameter-set commands: a Hoare-Rahman quadruple and
    Griffiths weights p_1, p_2 in [1/8, 1/3]."""
    quad = ",".join(f"{rng.randint(100, 999)}/{rng.choice(PRIMES)}" for _ in range(4))
    dens = rng.sample(PRIMES, 2)
    p1, p2 = (Fraction(rng.randint(den // 8, den // 3), den) for den in dens)
    weights = ",".join(str(x) for x in (1 - p1 - p2, p1, p2))
    return {
        "hrs": ["params-family", "--family", "hoare-rahman", "--params", quad],
        "grif": ["params-griffiths", "--p", weights],
    }


class Env:
    """What a set-up needs: the imported CLI, a work directory and the
    seed.  ``kappas`` holds each written set as the oracle reads it."""

    def __init__(self, cli, work: str, seed: int):
        self.cli = cli
        self.work = work
        self.seed = seed
        self.check_rng = random.Random(f"check:{seed}")
        self.kappas: dict = {}
        self.tables: list = []  # (path, set name, N) of each input table written

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def write_sets(self, names: set) -> None:
        rng = random.Random(self.seed)
        seeded = draw_sets(rng)
        for name in sorted(names):
            path = self.path(f"{name}.json")
            while True:
                argv = FIXED_SETS.get(name) or seeded[name]
                rc, _ = call(self.cli, argv + ["--output", path])
                if rc != 3 or name in FIXED_SETS:
                    break
                seeded = draw_sets(rng)  # forbidden combination drawn: draw again
            if rc != 0:
                raise SetupError(f"{' '.join(argv)} exited {rc}")
            rc, out = call(self.cli, ["params-validate", "--input", path])
            with open(path, encoding="utf-8") as fh:
                written = json.load(fh)
            if rc != 0 or json.loads(out) != written:
                raise SetupError(f"params-validate does not reproduce {path}")
            self.kappas[name] = written

    def table_op(self, name: str, N: int) -> Op:
        out = self.path(f"table-{name}-{N}.json")

        def check(rc: int, obj) -> list:
            if rc != 0:
                return [f"exit code {rc}"]
            kappa = oracle.parse_kappa(self.kappas[name])
            return oracle.table_problems(obj, kappa, N, self.check_rng)

        argv = ["table", "--kappa", self.path(f"{name}.json"), "--N", str(N), "--output", out]
        return Op(f"table {name} N={N}", argv, out, check)

    def check_op(self, name: str, N: int, source: list, suites: list) -> Op:
        out = self.path(f"report-{name}-{N}.json")
        d = self.kappas[name]["d"]

        def check(rc: int, obj) -> list:
            return oracle.report_problems(rc, obj, suites, d, N)

        argv = ["check", *source, "--suite", ",".join(suites), "--output", out]
        return Op(f"check {name} N={N}", argv, out, check)


def setup_table(env: Env) -> list:
    env.write_sets({name for name, _ in TABLE_OPS})
    return [env.table_op(name, N) for name, N in TABLE_OPS]


def setup_check_full(env: Env) -> list:
    env.write_sets({name for name, _ in CHECK_FULL_OPS})
    return [
        env.check_op(name, N, ["--kappa", env.path(f"{name}.json"), "--N", str(N)], ALL_SUITES)
        for name, N in CHECK_FULL_OPS
    ]


def corrupt(table_path: str, out_path: str, rng: random.Random) -> tuple:
    """Copy a table with one entry moved away from zero by one; returns the
    (row point, column point) of that entry."""
    with open(table_path, encoding="utf-8") as fh:
        obj = json.load(fh)
    values = obj["values"]
    r, c = rng.randrange(1, len(values)), rng.randrange(1, len(values))
    x = Fraction(values[r][c])
    values[r][c] = str(x + 1 if x >= 0 else x - 1)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    points = oracle.lattice(obj["kappa"]["d"], obj["N"])
    return points[r], points[c]


def setup_check_table(env: Env) -> list:
    env.write_sets({name for name, _ in CHECK_TABLE_OPS})
    ops = []
    for name, N in CHECK_TABLE_OPS:
        table = env.path(f"input-{name}-{N}.json")
        argv = ["table", "--kappa", env.path(f"{name}.json"), "--N", str(N), "--output", table]
        rc, _ = call(env.cli, argv)
        if rc != 0:
            raise SetupError(f"mvkraw {' '.join(argv)} exited {rc}")
        env.tables.append((table, name, N))
        ops.append(env.check_op(name, N, ["--table", table], CHECK_TABLE_SUITES))

    name, N = CORRUPTED
    bad = env.path(f"corrupt-{name}-{N}.json")
    entry = corrupt(env.path(f"input-{name}-{N}.json"), bad, random.Random(f"corrupt:{env.seed}"))
    out = env.path(f"report-corrupt-{name}-{N}.json")

    def check(rc: int, obj) -> list:
        return oracle.located_problems(rc, obj, entry)

    argv = ["check", "--table", bad, "--suite", ",".join(CHECK_TABLE_SUITES), "--output", out]
    ops.append(Op(f"check corrupted {name} N={N}", argv, out, check))
    return ops


def inputs_problems(env: Env) -> list:
    """Independent checks of what set-up wrote: every parameter set
    satisfies nu P U Pt U^t = I, and every input table passes the table
    oracle."""
    problems = []
    for name, obj in env.kappas.items():
        problems += [f"{name}: {p}" for p in oracle.kappa_problems(oracle.parse_kappa(obj))]
    for path, name, N in env.tables:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        kappa = oracle.parse_kappa(env.kappas[name])
        problems += [f"{path}: {p}" for p in oracle.table_problems(obj, kappa, N, env.check_rng)]
    return problems


SETUPS = {
    "table": setup_table,
    "check-full": setup_check_full,
    "check-table": setup_check_table,
}
