import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bptrades"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_in_library(path):
    # python -O strips assert statements; library checks must raise
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assertion_error_raised_in_library(path):
    # invariant checks raise RuntimeError, input checks ValueError;
    # AssertionError reads as a failed test, not as a library error
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and "AssertionError" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    ]
    assert lines == [], f"{path.name} raises AssertionError at lines {lines}"


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "core.py"}),
                         ids=lambda p: p.name)
def test_modulus_rule_lives_in_core(path):
    # core._modulus alone tests primality; a module that calls is_prime
    # decides the modulus rule a second time
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "is_prime"
        or isinstance(node, ast.Attribute) and node.attr == "is_prime"
        or isinstance(node, ast.alias) and node.name == "is_prime"
    ]
    assert lines == [], f"{path.name} references is_prime at lines {lines}"


def test_cli_verbs_leave_value_errors_to_run():
    # run() maps a ValueError to the verb's exit code, in one place
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    verbs = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert verbs
    caught = [
        f"{verb.name} at line {handler.lineno}"
        for verb in verbs
        for handler in ast.walk(verb)
        if isinstance(handler, ast.ExceptHandler)
        and (handler.type is None
             or {"ValueError", "Exception", "BaseException"}
             & {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)})
    ]
    assert caught == [], f"verbs catch ValueError: {caught}"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__.py only re-exports; elsewhere an import must be read, in
    # code or inside a quoted annotation
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    trees = [tree] + [
        ast.parse(node.value, mode="eval")
        for annotation in _annotations(tree)
        for node in ast.walk(annotation)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert unused == [], f"{path.name} imports names it never reads: {unused}"


def _exports(tree):
    # the names a module lists in __all__, or None
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return None


def _bound(tree):
    # the names a module binds at its top level
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}),
                         ids=lambda p: p.name)
def test_every_export_is_bound(path):
    # a deleted function must leave __all__ too
    tree = _tree(path)
    exports = _exports(tree)
    assert exports is not None, f"{path.name} has no __all__"
    missing = sorted(set(exports) - _bound(tree))
    assert missing == [], f"{path.name} exports unbound names {missing}"


def test_package_imports_only_exported_names():
    # bptrades re-exports each module's public names, and only those
    stale = [
        f"{node.module}.{alias.name}"
        for node in _tree(SRC / "__init__.py").body
        if isinstance(node, ast.ImportFrom) and node.module.startswith("bptrades.")
        for alias in node.names
        if alias.name not in _exports(_tree(SRC / f"{node.module.split('.')[1]}.py"))
    ]
    assert stale == [], f"bptrades/__init__.py imports unexported names {stale}"
