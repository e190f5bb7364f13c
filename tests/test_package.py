"""The package surface: ``ddvar.__all__`` against what the package binds."""

import ast
import inspect
import re
from pathlib import Path

import ddvar


def test_all_lists_every_public_function_and_class_once():
    names = ddvar.__all__
    assert len(names) == len(set(names))
    # every listed name resolves, so the star import works
    namespace = {}
    exec("from ddvar import *", namespace)
    assert set(names) <= namespace.keys()
    public = {
        name for name, value in vars(ddvar).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert public <= set(names), sorted(public - set(names))


def test_every_public_library_name_is_exported_or_called():
    # public API that nothing calls is removed: a public function or class
    # of a library module (every module but cli, the entry point) is in
    # __all__ or named by another module of the package
    paths = sorted(Path(ddvar.__file__).parent.glob("*.py"))
    texts = {path.name: path.read_text() for path in paths}
    unused = []
    for name, text in texts.items():
        if name == "cli.py":
            continue
        for node in ast.parse(text).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in ddvar.__all__
                    and not any(re.search(rf"\b{node.name}\b", other)
                                for key, other in texts.items()
                                if key != name)):
                unused.append(f"{name[:-3]}.{node.name}")
    assert not unused, unused


def test_no_module_imports_a_name_it_never_uses():
    # a name imported into a library module must be read there; __init__
    # imports to re-export, and __future__ imports bind nothing
    unused = []
    for path in sorted(Path(ddvar.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used)]
    assert not unused, unused


def test_every_private_helper_keeps_a_caller_in_the_package():
    # a module-level _helper that only the tests call is dead code: some
    # Name, Attribute or import alias of the package names each one
    # outside its own definition
    helpers, named = set(), set()
    for path in sorted(Path(ddvar.__file__).parent.glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            own = None
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                own = statement.name
                if own.startswith("_") and not own.startswith("__"):
                    helpers.add((path.stem, own))
            for node in ast.walk(statement):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias)
                        else None)
                if name is not None and name != own:
                    named.add(name)
    orphans = sorted(f"{module}.{name}" for module, name in helpers
                     if name not in named)
    assert not orphans, orphans


def test_only_errors_converts_an_input_to_a_float_array():
    # the real-array rule is stated once, in errors._real_array: no other
    # module calls np.asarray(..., dtype=float), which reads text as a
    # bare ValueError, keeps the real part of a complex input and reads
    # bools as 0 and 1
    calls = []
    for path in sorted(Path(ddvar.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "asarray"
                    and any(isinstance(arg, ast.Name) and arg.id == "float"
                            for arg in [*node.args[1:],
                                        *(k.value for k in node.keywords
                                          if k.arg == "dtype")])):
                calls.append(f"{path.stem}:{node.lineno}")
    assert not calls, calls
