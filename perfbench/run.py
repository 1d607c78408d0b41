"""Benchmark of mvkraw's `table` and `check` verbs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table --seed 1 --seconds 35 --trace 0

The workloads are ``table``, ``check-full`` and ``check-table`` (see
README.md).  Set-up imports mvkraw from ``src/`` and writes the inputs;
it is repeated SETUP_REPEATS times and its median is ``setup_s``.  The
run then repeats rounds, each one call of every operation of the
workload through ``mvkraw.cli.main`` in this process, until ``--seconds``
have passed; the first round is a warm-up and the last round is always
completed.  Every operation's output is checked after it returns,
outside the timed section.

The host's speed drifts by a third within minutes, so each operation's
time is divided by the time of a fixed reference loop of plain
``Fraction`` arithmetic run just before and just after it: the
operation's cost in ``ref`` units, which that drift leaves in place.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds
alternate and it carries the per-layer metrics of the traced rounds,
and every span is written to ``.perfbench_work/<workload>/trace-<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

import tracing
import workloads

HASH_SEED = "0"
REFERENCE_TERMS = 2000  # 15-25 ms on one core of a 2.1 GHz Xeon
SETUP_REPEATS = 9  # fixed, so that every run does the same work and peak memory repeats


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_cli(src: str):
    """A fresh import of mvkraw from ``src``: every mvkraw module is
    dropped first, so each set-up pays the import again."""
    for name in [n for n in sys.modules if n == "mvkraw" or n.startswith("mvkraw.")]:
        del sys.modules[name]
    from mvkraw import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"mvkraw was imported from {cli.__file__}, not from {src}")
    return cli


def setup(workload: str, src: str, work: str, seed: int) -> tuple:
    """Import mvkraw and write the inputs; returns (env, operations, seconds)."""
    t0 = time.perf_counter()
    env = workloads.Env(import_cli(src), work, seed)
    ops = workloads.SETUPS[workload](env)
    return env, ops, time.perf_counter() - t0


def file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def reference_seconds() -> float:
    """Time of one fixed loop of small-``Fraction`` arithmetic that uses no
    mvkraw code: a gauge of how fast the host runs Python at this moment."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REFERENCE_TERMS):
        a = Fraction(i % 97 + 1, i % 89 + 2)
        b = Fraction(i % 53 + 3, i % 41 + 5)
        total += (a * b - a / b + a).numerator % 7
    return time.perf_counter() - t0


class Runner:
    def __init__(self, env: workloads.Env, ops: list):
        self.env = env
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.op_seconds: list = []
        self.op_costs: list = []  # each operation's seconds over the reference's, in `ref`
        self.ref_seconds: list = []

    def round(self, record: bool = True) -> float:
        """One call of every operation; returns the summed timed sections.
        The reference loop runs before the first operation and after each
        one, outside the timed sections; an operation's cost is its time
        over the mean of the two reference times around it."""
        total = 0.0
        cli = self.env.cli
        before = reference_seconds()
        for op in self.ops:
            if os.path.exists(op.output):
                os.remove(op.output)
            gc.collect()
            rc = None
            t0 = time.perf_counter()
            try:
                rc, _ = workloads.call(cli, op.argv)
            except Exception:  # an internal error is a failed operation, not a crashed run
                problems = ["raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]]
            dt = time.perf_counter() - t0
            if rc is not None:
                obj = None
                if os.path.exists(op.output):
                    with open(op.output, encoding="utf-8") as fh:
                        obj = json.load(fh)
                problems = op.check(rc, obj)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{op.name}: {problems[0]}")
            after = reference_seconds()
            if record:
                self.op_seconds.append(dt)
                self.op_costs.append(dt / ((before + after) / 2))
                self.ref_seconds.append(after)
            before = after
            total += dt
        return total

    def cli_bytes(self) -> dict:
        """Bytes mvkraw reads and writes in one round, from file sizes."""
        inputs = [a for op in self.ops for f, a in zip(op.argv, op.argv[1:]) if f in ("--kappa", "--table", "--input")]
        return {"in": file_bytes(inputs), "out": file_bytes(op.output for op in self.ops)}


def run_untraced(runner: Runner, seconds: float, set_up=None, set_ups: int = 0) -> dict:
    """Timed rounds for ``seconds``.  ``set_up`` is called ``set_ups``
    times between rounds, spread evenly over the run, so that the set-up
    times sample the host's speed over the whole run, not one moment."""
    rounds = []
    done = 0
    start = time.perf_counter()
    runner.round(record=False)  # warm-up: first calls fill caches and lazy imports
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(runner.round())
        while done < set_ups and time.perf_counter() - start >= seconds * (done + 1) / (set_ups + 1):
            set_up()
            done += 1
    for _ in range(done, set_ups):
        set_up()
    n = len(runner.ops)
    round_costs = [sum(runner.op_costs[i : i + n]) for i in range(0, len(runner.op_costs), n)]
    for i, op in enumerate(runner.ops):
        times = runner.op_seconds[i::n]
        costs = runner.op_costs[i::n]
        print(f"{op.name}: median {statistics.median(times):.4f} s, {statistics.median(costs):.3f} ref over {len(times)}", file=sys.stderr)
    print(
        f"round: median {statistics.median(rounds):.4f} s; reference loop: median {statistics.median(runner.ref_seconds):.5f} s",
        file=sys.stderr,
    )
    return {
        "wall_ref": statistics.median(round_costs),
        "op_p50_ref": statistics.median(runner.op_costs),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(runner: Runner, seconds: float, trace_path: str) -> dict:
    """Alternate untraced and traced rounds; per-layer figures are the
    median over traced rounds (counts repeat exactly), and the overhead is
    the traced minus the untraced median round."""
    tracer = tracing.Tracer()
    plain, traced, per_round, span_rounds = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.round(record=False))
        tracer.install()
        try:
            traced.append(runner.round(record=False))
        finally:
            tracer.remove()
        spans = tracer.take()
        span_rounds.append(spans)
        per_round.append(tracing.metrics(tracer.names, spans, runner.cli_bytes()))
    out = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "span_fields": ["name", "parent", "start", "end", "count", "busy"],
                "names": tracer.names,
                "untraced_round_s": plain,
                "traced_round_s": traced,
                "overhead_s": out["trace.overhead_s"],
                "rounds": span_rounds,
            },
            fh,
            separators=(",", ":"),
        )
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mvkraw", "cli.py")):
        print(f"error: no mvkraw sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    work = os.path.join(root, ".perfbench_work", args.workload)
    os.makedirs(work, exist_ok=True)

    setups = []

    def set_up():
        gc.collect()
        env, ops, seconds = setup(args.workload, src, work, args.seed)
        setups.append(seconds)
        return env, ops

    env, ops = set_up()
    input_problems = workloads.inputs_problems(env)

    runner = Runner(env, ops)
    if args.trace:
        values = run_traced(runner, args.seconds, os.path.join(work, f"trace-{args.seed}.json"))
        units = {k: tracing.unit(k) for k in values}
    else:
        # the operations keep the first set-up's mvkraw; the later set-ups
        # import it again and rewrite the same inputs, only to be timed
        run = run_untraced(runner, args.seconds, set_up, SETUP_REPEATS - 1)
        values = {"setup_s": statistics.median(setups), **run}
        units = {"setup_s": "s", "wall_ref": "ref", "op_p50_ref": "ref", "peak_rss_mib": "MiB"}

    for line in (input_problems + runner.problems)[:20]:
        print(f"problem: {line}", file=sys.stderr)
    result = {
        # a wrong output fails its operation; `correct` covers the inputs
        "correct": not input_problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing, and so set and dict order, is fixed for every run
        os.execve(sys.executable, [sys.executable] + sys.argv, {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
