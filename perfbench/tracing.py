"""Spans around the calls into mvkraw's public functions.

``Tracer.install`` replaces each traced function by a wrapper in every
mvkraw module that holds it (``from .numeric import enumerate_kernels``
copies the binding, so hyperg's name is wrapped as well as numeric's);
``Tracer.remove`` puts the originals back.  A span is the list
``[name, parent, start, end, count, busy]``: ``parent`` is the index of
the enclosing span or -1, ``count`` an optional work count computed
from the call's arguments or result, and ``busy`` the time spent inside
the call.  For ordinary calls ``busy = end - start``.  The generator
``enumerate_kernels`` is not on the call stack between its yields, so
its span's ``busy`` is the time spent inside ``next`` and its ``count``
the number of matrices it yielded.

Spans are kept in memory; ``metrics`` reduces one round's spans to the
per-layer figures named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import types
from time import perf_counter

PACKAGE = "mvkraw"

SUITE_FUNCTIONS = {
    "def11": "verify.check_def11",
    "orthogonality": "hyperg.check_orthogonality",
    "duality": "hyperg.check_duality",
    "recurrence": "bispec.check_eigen",
    "universal": "bispec.check_universal",
    "commute": "bispec.check_commute",
    "lemma21": "liemod.check_lemma21",
    "lemma22": "liemod.check_generation",
    "norms": "liemod.check_dual_norms",
    "adjacency": "liemod.check_adjacency",
    "transition": "liemod.check_transition",
    "threeway": "verify.check_threeway",
}


def _table_values(args, result) -> int:
    return sum(len(row) for row in result.values)


def _stencil_terms(args, result) -> int:
    op = args[0]
    return len(op.stencil) * math.comb(op.N + op.d, op.d)


def _failures(args, result) -> int:
    return len(args[0].failures)


# span name -> work count taken from (args, result), or None
TRACED = {
    "kappa.validate": None,
    "kappa.involute": None,
    "hyperg.eval_hypergeometric": None,
    "hyperg.eval_generating": None,
    "hyperg.table": _table_values,
    "hyperg.check_orthogonality": None,
    "hyperg.check_duality": None,
    "hyperg.table_to_json_dict": None,
    "hyperg.table_from_json_dict": None,
    "liemod.pairing_eval": None,
    "liemod.xtilde_monomial": None,
    "liemod.to_dual_coords": None,
    "liemod.act": None,
    "liemod.check_dual_norms": None,
    "liemod.check_adjacency": None,
    "liemod.check_transition": None,
    "liemod.check_lemma21": None,
    "liemod.check_generation": None,
    "bispec.operator_mtilde": None,
    "bispec.operator_m": None,
    "bispec.operator_universal": None,
    "bispec.apply": _stencil_terms,
    "bispec.check_eigen": None,
    "bispec.check_universal": None,
    "bispec.check_commute": None,
    "verify.run_suites": None,
    "verify.check_threeway": None,
    "verify.check_def11": None,
    "report.CheckReport.to_json_dict": _failures,
    "cli.main": None,
}
GENERATOR = "numeric.enumerate_kernels"
WHOLE_MODULE = "linalg"  # every public function of it, as one layer


def _lookup(dotted: str):
    """(owner object, attribute) of a name relative to the package."""
    parts = dotted.split(".")
    owner = importlib.import_module(f"{PACKAGE}.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.names: list = []  # span name by id; an id stays fixed across installs
        self.spans: list = []
        self.stack: list = []
        self._saved: list = []  # (owner, attribute, original)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap_call(self, name: str, fn, count):
        nid = self._name_id(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, stack[-1] if stack else -1, perf_counter(), 0.0, 0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                rec[5] = rec[3] - rec[2]
                stack.pop()
            if count is not None:
                rec[4] = count(args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack = self.spans, self.stack

        def drive(inner, rec):
            busy, n = 0.0, 0
            try:
                while True:
                    t = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += perf_counter() - t
                        return
                    busy += perf_counter() - t
                    n += 1
                    yield item
            finally:
                rec[3], rec[4], rec[5] = perf_counter(), n, busy

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, stack[-1] if stack else -1, perf_counter(), 0.0, 0, 0.0]
            spans.append(rec)
            return drive(fn(*args, **kwargs), rec)

        return traced

    def _targets(self):
        for name, count in TRACED.items():
            yield name, False, count
        yield GENERATOR, True, None
        module = importlib.import_module(f"{PACKAGE}.{WHOLE_MODULE}")
        for attr, value in vars(module).items():
            if callable(value) and not attr.startswith("_") and getattr(value, "__module__", None) == module.__name__:
                yield f"{WHOLE_MODULE}.{attr}", False, None

    def install(self) -> None:
        """Wrap every traced function wherever mvkraw holds a binding to it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, is_gen, count in list(self._targets()):
            owner, attr = _lookup(name)
            original = getattr(owner, attr)
            wrapper = self._wrap_generator(name, original) if is_gen else self._wrap_call(name, original, count)
            holders = [(owner, attr)]
            if isinstance(owner, types.ModuleType):
                holders += [(m, a) for m in modules if m is not owner for a, v in vars(m).items() if v is original]
            for holder, a in holders:
                self._saved.append((holder, a, original))
                setattr(holder, a, wrapper)

    def remove(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    def take(self) -> list:
        """The spans recorded since the last call, which are then dropped."""
        if self.stack:
            raise RuntimeError("spans still open")
        out = list(self.spans)
        self.spans.clear()
        return out


def unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "B" if ".bytes_" in metric else "count"


def layer_sums(names: list, spans: list) -> tuple:
    """Per span name: calls, self time, busy times and work count; plus the
    inclusive time of each suite run by verify.run_suites."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[1] >= 0:
            child[rec[1]] += rec[5]
    run_suites = names.index("verify.run_suites") if "verify.run_suites" in names else None
    suite_of = {fn: suite for suite, fn in SUITE_FUNCTIONS.items()}
    out: dict = {}
    suites: dict = {}
    for i, rec in enumerate(spans):
        name = names[rec[0]]
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "busy": [], "count": 0})
        agg["calls"] += 1
        agg["self_s"] += rec[5] - child[i]
        agg["busy"].append(rec[5])
        agg["count"] += rec[4]
        if rec[1] >= 0 and spans[rec[1]][0] == run_suites and name in suite_of:
            suites[suite_of[name]] = suites.get(suite_of[name], 0.0) + rec[5]
    return out, suites


def metrics(names: list, spans: list, cli_bytes: dict) -> dict:
    """The per-layer figures of one traced round."""
    sums, suites = layer_sums(names, spans)
    zero = {"calls": 0, "self_s": 0.0, "busy": [], "count": 0}

    def get(*span_names, field):
        return sum(sums.get(n, zero)[field] for n in span_names)

    linalg = [n for n in sums if n.startswith("linalg.")]
    operators = ("bispec.operator_mtilde", "bispec.operator_m", "bispec.operator_universal")
    busy_hyper = sums.get("hyperg.eval_hypergeometric", zero)["busy"]
    out = {
        "numeric.enumerate_kernels.calls": get("numeric.enumerate_kernels", field="calls"),
        "numeric.kernels": get("numeric.enumerate_kernels", field="count"),
        "numeric.enumerate_kernels.self_s": get("numeric.enumerate_kernels", field="self_s"),
        "kappa.validate.calls": get("kappa.validate", field="calls"),
        "kappa.validate.self_s": get("kappa.validate", field="self_s"),
        "kappa.involute.calls": get("kappa.involute", field="calls"),
        "linalg.calls": get(*linalg, field="calls"),
        "linalg.self_s": get(*linalg, field="self_s"),
        "hyperg.eval_hypergeometric.calls": len(busy_hyper),
        "hyperg.eval_hypergeometric.self_s": get("hyperg.eval_hypergeometric", field="self_s"),
        "hyperg.eval_hypergeometric.p50_s": statistics.median(busy_hyper) if busy_hyper else 0.0,
        "hyperg.eval_generating.calls": get("hyperg.eval_generating", field="calls"),
        "hyperg.eval_generating.self_s": get("hyperg.eval_generating", field="self_s"),
        "hyperg.table.calls": get("hyperg.table", field="calls"),
        "hyperg.table.self_s": get("hyperg.table", field="self_s"),
        "hyperg.table.values": get("hyperg.table", field="count"),
        "hyperg.check_orthogonality.self_s": get("hyperg.check_orthogonality", field="self_s"),
        "hyperg.check_duality.self_s": get("hyperg.check_duality", field="self_s"),
        "hyperg.table_json.self_s": get("hyperg.table_to_json_dict", "hyperg.table_from_json_dict", field="self_s"),
    }
    for fn in ("pairing_eval", "xtilde_monomial", "to_dual_coords", "act"):
        out[f"liemod.{fn}.calls"] = get(f"liemod.{fn}", field="calls")
        out[f"liemod.{fn}.self_s"] = get(f"liemod.{fn}", field="self_s")
    for fn in ("check_dual_norms", "check_adjacency", "check_transition"):
        out[f"liemod.{fn}.self_s"] = get(f"liemod.{fn}", field="self_s")
    out["liemod.lemmas.self_s"] = get("liemod.check_lemma21", "liemod.check_generation", field="self_s")
    out["bispec.operators.calls"] = get(*operators, field="calls")
    out["bispec.operators.self_s"] = get(*operators, field="self_s")
    out["bispec.apply.calls"] = get("bispec.apply", field="calls")
    out["bispec.apply.self_s"] = get("bispec.apply", field="self_s")
    out["bispec.apply.terms"] = get("bispec.apply", field="count")
    for fn in ("check_eigen", "check_universal", "check_commute"):
        out[f"bispec.{fn}.self_s"] = get(f"bispec.{fn}", field="self_s")
    out["verify.run_suites.self_s"] = get("verify.run_suites", field="self_s")
    out["verify.check_threeway.self_s"] = get("verify.check_threeway", field="self_s")
    for suite in SUITE_FUNCTIONS:
        out[f"verify.suite.{suite}.s"] = suites.get(suite, 0.0)
    out["report.to_json_dict.self_s"] = get("report.CheckReport.to_json_dict", field="self_s")
    out["report.failures"] = get("report.CheckReport.to_json_dict", field="count")
    out["cli.main.self_s"] = get("cli.main", field="self_s")
    out["cli.bytes_out"] = cli_bytes["out"]
    out["cli.bytes_in"] = cli_bytes["in"]
    out["trace.spans"] = len(spans)
    return out
