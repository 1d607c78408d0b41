"""Every module-level function and class of the package has a caller in
the package itself: a helper that only tests reach is dead weight that
the tests keep alive."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mvkraw"


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _references(trees) -> set:
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
                if node.asname:
                    names.add(node.asname)
    return names


def test_every_top_level_definition_is_used_in_the_package():
    modules = _modules()
    used = _references(modules.values())
    unused = [
        f"{name}:{node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert unused == []


# (module, function, parameter) read by no statement of its function,
# each with the reason it stays
UNREAD_PARAMETERS: set = set()


def test_every_parameter_is_read():
    # a parameter that its function never reads is a dead knob: callers
    # pass it, and nothing changes
    unread = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            label = getattr(node, "name", "<lambda>")
            unread += [
                (name, label, a.arg)
                for a in params
                if a.arg not in read and (name, label, a.arg) not in UNREAD_PARAMETERS
            ]
    assert unread == []


def _tail(node):
    # the last name of `f`, `mod.f` or a call of either
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_no_memo_is_keyed_by_a_parameter_set():
    # a memo keyed by a set hashes its scalars at every call, and serves
    # an approx set its equal exact twin's entry; what depends on a set
    # is kept on the instance (`ParameterSet.integer_view`)
    keyed = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(_tail(dec) in ("lru_cache", "cache") for dec in node.decorator_list):
                continue
            args = node.args
            annotations = [
                a.annotation
                for a in args.posonlyargs + args.args + args.kwonlyargs
                if a.annotation is not None
            ]
            if any(
                _tail(n) == "ParameterSet"
                or (isinstance(n, ast.Constant) and "ParameterSet" in str(n.value))
                for ann in annotations
                for n in ast.walk(ann)
            ):
                keyed.append(f"{name}:{node.name}")
    assert keyed == []


def _function(tree, name):
    return next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


# the one home of a run's inputs: (module, function) allowed to build them
INPUT_BUILDERS = {("verify.py", "run_suites"), ("cli.py", "_dispatch")}


def test_run_inputs_are_built_in_one_place():
    # a check that builds its own table or conjugator builds it once
    # more per run, and a conjugator at a tolerance that is not the run's
    calls = []
    for name, tree in _modules().items():
        homes = [_function(tree, f) for m, f in INPUT_BUILDERS if m == name]
        inside = {id(n) for home in homes for n in ast.walk(home)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in inside:
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if callee in ("conjugator", "table"):
                calls.append(f"{name}:{node.lineno}:{callee}")
    assert calls == []


def test_table_lines_are_scaled_in_one_place():
    # a table check that scales its own lines scales each again per check
    # and per operator; the checks read `PolynomialTable.integer_view`
    modules = _modules()
    places = {
        "bispec.py": modules["bispec.py"],
        "hyperg.py:check_orthogonality": _function(modules["hyperg.py"], "check_orthogonality"),
        "numeric.py:gram_misses": _function(modules["numeric.py"], "gram_misses"),
    }
    calls = [
        f"{place}:{node.lineno}"
        for place, tree in places.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _tail(node) == "clear_denominators"
    ]
    assert calls == []


def test_checks_have_no_none_defaults():
    # a None default on a check is a build-it-yourself fallback
    modules = _modules()
    run_suites = _function(modules["verify.py"], "run_suites")
    checks = next(
        node.value
        for node in ast.walk(run_suites)
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["checks"]
    )
    fallbacks = []
    for entry in checks.values:
        ref = entry.elts[0]  # (check, input, ...)
        if isinstance(ref, ast.Attribute):
            module, fn = f"{ref.value.id}.py", ref.attr
        else:
            module, fn = "verify.py", ref.id
        args = _function(modules[module], fn).args
        params = args.posonlyargs + args.args
        defaults = list(zip(params[len(params) - len(args.defaults):], args.defaults))
        defaults += [(a, v) for a, v in zip(args.kwonlyargs, args.kw_defaults) if v]
        fallbacks += [
            f"{module}:{fn}:{a.arg}"
            for a, v in defaults
            if isinstance(v, ast.Constant) and v.value is None
        ]
    assert len(checks.values) == 12
    assert fallbacks == []


def test_no_module_imports_random():
    # a seeded random sample is a witness, not a proof: every identity
    # the checks make holds on a basis or on every point, not on draws
    importers = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "random" for a in node.names)
        )
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "random")
    ]
    assert importers == []


def test_expansion_matrix_is_scaled_in_one_place():
    # X and Y come on ints over one scale each from
    # `liemod.expansion_matrix`, made once per run; a module check that
    # scales them itself, or makes a Fraction per coefficient, does all
    # of it again on every run
    tree = _modules()["liemod.py"]
    calls = [
        f"{fn}:{node.lineno}"
        for fn in ("check_dual_norms", "check_adjacency", "check_transition", "_expands_to")
        for node in ast.walk(_function(tree, fn))
        if isinstance(node, ast.Call) and _tail(node) in ("clear_denominators", "Fraction")
    ]
    assert calls == []


def test_one_ratio_and_one_gram_comparison():
    # an int-or-float division spelled out again, or a Gram sum compared
    # by a loop of its own, is a second copy of `numeric.ratio` or of
    # `numeric.gram_misses`
    spelled, gram_callers = [], []
    for name, tree in _modules().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.IfExp)
                    and isinstance(node.body, ast.Call)
                    and _tail(node.body) == "Fraction"
                    and isinstance(node.orelse, ast.BinOp)
                    and isinstance(node.orelse.op, ast.Div)
                ):
                    spelled.append(f"{name}:{fn.name}")
                if isinstance(node, ast.Call) and _tail(node) == "gram_misses":
                    gram_callers.append(f"{name}:{fn.name}")
    assert spelled == ["numeric.py:ratio"]
    assert sorted(gram_callers) == [
        "hyperg.py:check_orthogonality",
        "liemod.py:check_dual_norms",
    ]


def test_one_exactness_decision():
    # whether a set is exact is decided once, by the flag of its integer
    # view (`ParameterSet.integer_view`); a module that tests the set's
    # own scalars again can disagree with it, and with the other sites
    deciders, fields = {"is_exact", "default_tol"}, {"nu", "p", "pt", "u"}
    calls = set()
    for name, tree in _modules().items():
        if name == "kappa.py":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            inner = list(ast.walk(node))
            if any(isinstance(n, ast.Name) and n.id in deciders for n in inner) and any(
                isinstance(n, ast.Attribute) and n.attr in fields for n in inner
            ):
                calls.add(f"{name}:{node.lineno}")
    assert sorted(calls) == []
