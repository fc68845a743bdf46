"""The package has one exception type, SelfReidError, and raises no other.

Both checks read the source with `ast`, so they also cover raise sites
that no other test reaches.
"""

import ast
import builtins
import importlib
from pathlib import Path

import selfreid

SRC = Path(selfreid.__file__).parent

# (module, enclosing function, exception) raised on purpose besides SelfReidError:
# `selfreid train` without training data, which `main` maps to exit code 2.
ALLOWED_RAISES = {("cli.py", "cmd_train", "FileNotFoundError")}


def parsed_modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def raise_sites(tree):
    """(enclosing function or None, raised name) for every `raise X` / `raise X(...)`."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            sites.append((function, ast.unparse(exc)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sites


def test_errors_module_defines_only_selfreid_error():
    tree = ast.parse((SRC / "errors.py").read_text())
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)] == [
        "SelfReidError"]


def test_no_other_module_defines_an_exception_or_warning():
    for name, tree in parsed_modules().items():
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        if name == "errors.py" or not classes:  # importing __main__ would run the CLI
            continue
        module = importlib.import_module(f"selfreid.{Path(name).stem}")
        for node in classes:
            for base in node.bases:
                base_name = ast.unparse(base).rpartition(".")[2]
                resolved = getattr(builtins, base_name, getattr(module, base_name, None))
                assert not (isinstance(resolved, type) and issubclass(resolved, BaseException)), \
                    f"{name}: class {node.name} derives from {base_name}"


def test_every_raise_is_selfreid_error():
    sites = 0
    for name, tree in parsed_modules().items():
        for function, raised in raise_sites(tree):
            sites += 1
            assert raised == "SelfReidError" or (name, function, raised) in ALLOWED_RAISES, \
                f"{name}: {function} raises {raised}"
    assert sites > 50  # the walk reached the package's raise sites
