import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import torscat


def test_no_assert_statements():
    # python -O strips asserts, so a check written as one would vanish
    found = []
    for path in sorted(Path(torscat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_exports_resolve():
    # every name in a module's __all__ exists, and the package re-exports
    # only such names, so deleting a function cannot leave a stale export
    pkg = Path(torscat.__file__).parent
    exported, missing = {}, []
    for path in sorted(pkg.glob("[!_]*.py")):
        module = importlib.import_module(f"torscat.{path.stem}")
        names = getattr(module, "__all__", None)
        if names is not None:
            exported[path.stem] = set(names)
            missing += [f"{path.stem}.{name}" for name in names if not hasattr(module, name)]
    tree = ast.parse((pkg / "__init__.py").read_text())
    stale = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name not in exported.get(node.module, ())
    ]
    assert {"algebra", "torsion", "poset", "catalan"} <= exported.keys()
    assert missing == [] and stale == []


LAYERS = ["_kernels", "linalg", "poset", "lattice", "catalan", "algebra", "torsion", "cli"]


def test_layer_order():
    # each module imports only modules below it in LAYERS, and only at its top
    # level, so the lattice side imports nothing from the module layer; the
    # package __init__ re-exports every layer but the CLI
    rank = {name: i for i, name in enumerate(LAYERS)}
    rank["__init__"] = rank["cli"]
    pkg = Path(torscat.__file__).parent
    assert sorted(rank) == sorted(path.stem for path in pkg.glob("*.py"))
    upward, nested = [], []
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = set(tree.body)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [alias.name for alias in node.names]
                upward += [f"{path.stem} -> {t}" for t in targets if rank[t] >= rank[path.stem]]
                if node not in top:
                    nested.append(f"{path.name}:{node.lineno}")
    assert upward == [] and nested == []


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve(monkeypatch):
    # the benchmark's tracer skips a target it cannot find or that is a
    # generator function, and the metrics that depend on it go missing
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    unresolved = []
    for t in tracer.TARGETS:
        owner = importlib.import_module(t.module)
        *parts, attr = t.attr.split(".")
        try:
            for part in parts:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            unresolved.append(f"{t.module}.{t.attr}")
            continue
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if not callable(func) or inspect.isgeneratorfunction(func):
            unresolved.append(f"{t.module}.{t.attr}")
    assert len(tracer.TARGETS) > 40 and unresolved == []


TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = tracer
spec.loader.exec_module(tracer)
from torscat.cli import main
t = tracer.Tracer()
t.install()
with contextlib.redirect_stdout(io.StringIO()):
    rc, total = t.run(main, ["tors", "int:2"])
print(json.dumps({"rc": rc, "absent": t.absent, "metrics": tracer.layer_metrics(t.snapshot(total))}))
"""


def test_traced_run_counts_the_kernel():
    # the tracer sizes each rref call by its first argument's shape; a kernel
    # argument without one makes every traced benchmark run fail.  The run is
    # in a fresh interpreter, as installing the tracer rewraps torscat for good
    src = str(Path(torscat.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACER)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["rc"] == 0 and report["absent"] == []
    assert report["metrics"]["linalg.rref.ops"] > 0
    assert report["metrics"]["linalg.matrix.constructions"] > 0


def test_oracles_import_no_private_name():
    # an oracle that borrowed the package's internals would check them against
    # themselves; a plain "import torscat" would hide torscat.x._y from this check
    path = Path(__file__).with_name("oracles.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "torscat":
            parts = node.module.split(".")[1:] + [alias.name for alias in node.names]
            found += [f"{node.module}:{name}" for name in parts if name.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "torscat"]
    assert found == []
