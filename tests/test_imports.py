"""Import surface of the package: a cold start loads numpy and the standard
library only, no scipy module loads even after the loading-error fit, and
every name the benchmark harness looks up still exists."""

import ast
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import donorpair
from donorpair import experiments

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

PROBE = """
import json, sys
import numpy
before = set(sys.modules)
import donorpair, donorpair.cli, donorpair.experiments, donorpair.spam
added = {name.split(".")[0] for name in set(sys.modules) - before}
t = numpy.linspace(0, 100, 8)
donorpair.spam.fit_p_up(t, donorpair.spam.neutral_rabi_forward(0.14, t, 0.01), rabi_mhz=0.01)
print(json.dumps({
    "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
    "third_party": sorted(added - set(sys.stdlib_module_names) - {"donorpair"}),
}))
"""


def fresh_import_report() -> dict:
    src = str(Path(donorpair.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def test_cold_import_leaves_scipy_optimize_unloaded():
    report = fresh_import_report()
    assert report["scipy"] == []
    assert report["third_party"] == []


def benchmark_lookups() -> list[str]:
    """`pkgutil.resolve_name` targets of every package name the benchmark
    harness imports with `from donorpair... import`, and of each entry point
    its tracer wraps (`tracing.ENTRIES`, as (module, attribute path) pairs)."""
    names = []
    for source in sorted(BENCHMARKS.rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "donorpair":
                names += [f"{node.module}.{alias.name}" for alias in node.names]
    tracing = ast.parse((BENCHMARKS / "tracing.py").read_text()).body
    (entries,) = [
        n.value for n in tracing if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", "") == "ENTRIES"
    ]
    names += [f"donorpair.{module.id}:{path.value}" for module, path in (e.elts for e in entries.elts)]
    return names


def test_benchmark_names_resolve():
    names = benchmark_lookups()
    assert {"donorpair.pulses.MeasureStep", "donorpair.pulses:SequenceEngine.step_unitary"} <= set(names)
    missing = []
    for name in names:
        try:
            pkgutil.resolve_name(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == []
    assert "workers" in inspect.signature(experiments.run).parameters
