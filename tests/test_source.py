import ast
import importlib
import importlib.util
import inspect
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


def test_tracer_targets_resolve(monkeypatch):
    # the benchmark's tracer skips a target it cannot find or that is a
    # generator function, and the metrics that depend on it go missing
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
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
