"""Import cost of the package: a cold start loads numpy and the standard
library only; scipy.optimize loads inside the one fit that needs it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import donorpair

PROBE = """
import json, sys
import numpy
before = set(sys.modules)
import donorpair, donorpair.cli, donorpair.experiments, donorpair.spam
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps({
    "scipy.optimize": "scipy.optimize" in sys.modules,
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
    assert report["scipy.optimize"] is False
    assert report["third_party"] == []
