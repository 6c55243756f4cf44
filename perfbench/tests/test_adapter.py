import ast
import importlib
import os
import re

from perfbench import adapter, catalogue


def test_every_pinned_name_imports():
    for dotted in adapter.PINNED:
        module, _, attr = dotted.rpartition(".")
        assert hasattr(importlib.import_module(module), attr), dotted


def test_adapter_is_the_only_module_importing_repro():
    pattern = re.compile(r"^\s*(from|import)\s+repro\b", re.M)
    offenders = []
    for base, _, files in os.walk(os.path.join(catalogue.ROOT, "perfbench")):
        if os.path.basename(base) == "tests":
            continue
        for fname in files:
            path = os.path.join(base, fname)
            if fname.endswith(".py") and pattern.search(open(path).read()):
                offenders.append(os.path.relpath(path, catalogue.ROOT))
    assert offenders == ["perfbench/adapter.py"]


def test_no_harness_perf_telemetry_or_deprecated_shims():
    tree = ast.parse(open(adapter.__file__).read())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            modules |= {a.name for a in node.names}
        elif isinstance(node, ast.keyword):
            names.add(f"{node.arg}=")
    assert not [m for m in modules if m.startswith(
        ("repro.harness", "repro.perf", "repro.telemetry", "repro.analysis"))]
    assert not names & {"telemetry", "save_dataset", "load_dataset", "record_tape",
                        "BatchLoader", "dataset="}
    assert {f"{m}.{n}" for m in ("repro",) for n in names} >= {
        p for p in adapter.PINNED if p.count(".") == 1}


def test_seed_changes_inputs_not_shapes():
    a, b = adapter.cu_inputs(0, 2), adapter.cu_inputs(1, 2)
    assert a.train.positions.shape == b.train.positions.shape
    assert not (a.train.positions == b.train.positions).all()
    again = adapter.cu_inputs(0, 2)
    assert (a.train.positions == again.train.positions).all()
    assert (a.rcut, a.nmax) == (again.rcut, again.nmax)
