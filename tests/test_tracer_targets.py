"""The benchmark tracer's patch targets still resolve in `src/`.

`perfbench/tracing.py` wraps functions and methods at the place where the
program looks each name up.  This installs its patches on the same modules
the benchmark runner passes it and removes them again, so that moving or
renaming a traced name fails here and not only in a traced benchmark run.
"""

import ast
import importlib
import importlib.util
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _runner_modules():
    """The `MODULES` tuple of perfbench/run.py, read without running it."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["MODULES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no MODULES")


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces(modules):
    """Each module and each class it defines, with a copy of its namespace."""
    spaces = []
    for module in modules.values():
        spaces.append((module, dict(vars(module))))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                spaces.append((value, dict(vars(value))))
    return spaces


def test_patches_install_and_restore():
    tracing = _tracing()
    names = _runner_modules()
    assert len(names) == 9
    modules = {m: importlib.import_module(f"avfusion.{m}") for m in names}
    before = _namespaces(modules)
    patches = tracing.Patches(tracing.Tracer(), modules)
    try:
        patches.install()
        wrapped = [
            (owner, attr) for owner, saved in before for attr, value in saved.items()
            if vars(owner)[attr] is not value
        ]
        assert wrapped
        for owner, attr in wrapped:
            assert vars(owner)[attr].__wrapped__ is dict(before)[owner][attr]
    finally:
        patches.uninstall()
    for owner, saved in before:
        current = vars(owner)
        assert current.keys() == saved.keys()
        assert all(current[attr] is value for attr, value in saved.items())
