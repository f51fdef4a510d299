"""The benchmark tracer's patch targets still resolve in `src/`.

`perfbench/tracing.py` wraps functions and methods at the place where the
program looks each name up.  This installs its patches on the same modules
the benchmark runner passes it and removes them again, so that moving or
renaming a traced name fails here and not only in a traced benchmark run.
A tiny `evaluate` and `diagnose` under the patches must record the spans of
the report writer, the renderer and the boxplot statistics.
"""

import ast
import importlib
import importlib.util
import pathlib

import numpy as np

from avfusion.arcmargin import ArcMarginHead
from avfusion.persistence import save_checkpoint, write_embeddings

from conftest import make_head, small_dataset

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


def test_evaluate_and_diagnose_record_their_spans(tmp_path):
    # A call that reaches a traced function by a name the tracer does not
    # patch (an import by name, say) records no span.
    tracing = _tracing()
    modules = {m: importlib.import_module(f"avfusion.{m}") for m in _runner_modules()}
    write_embeddings(tmp_path / "test.emb", small_dataset(n_identities=4,
                                                          samples_per_identity=4))
    rng = np.random.default_rng(0)
    save_checkpoint(tmp_path / "mean.ckpt", make_head("mean", rng),
                    ArcMarginHead.create(rng, 8, 4))
    calls = {
        "evaluate": (["evaluate", "--test-embeddings", str(tmp_path / "test.emb"),
                      "--n-positive", "5", "--n-negative", "5"],
                     {"persistence.report", "evaluation.boxplot"}),
        "diagnose": (["diagnose", "--embeddings", str(tmp_path / "test.emb")],
                     {"svgplot.render", "evaluation.boxplot"}),
    }
    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer, modules)
    patches.install()
    try:
        for command, (argv, spans) in calls.items():
            tracer.reset()
            assert modules["cli"].main([*argv, "--checkpoint", str(tmp_path / "mean.ckpt"),
                                        "--out-dir", str(tmp_path / command)]) == 0
            assert spans <= {span[3] for span in tracer.spans}, command
    finally:
        patches.uninstall()
