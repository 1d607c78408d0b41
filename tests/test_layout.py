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
UNREAD_PARAMETERS = {
    # a memoization key only: approx and exact sets compare equal
    ("hyperg.py", "_integer_view", "exact"),
}


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
