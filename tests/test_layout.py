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
