"""Record the reference outputs the output check compares against.

    python3 benchmarks/record_reference.py

Runs every workload once at seed 0 and writes reference/<workload>.npz: the
config document and the numeric content of each output file. Re-record only
when a change to the program's results is intended and explained.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from donorpair import experiments  # noqa: E402
from donorpair.config import validate_config  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    scratch = ROOT / ".bench_out" / "reference"
    try:
        for name, workload in WORKLOADS.items():
            doc = workload.config_doc(0)
            out = scratch / name
            manifest = experiments.run(validate_config(doc), out, workers=1)
            arrays = {f: checks.read_output(out / f)[1] for f in manifest.outputs}
            np.savez_compressed(
                checks.REFERENCE_DIR / f"{name}.npz", config=json.dumps(doc, sort_keys=True), **arrays
            )
            print(f"{name}: {', '.join(sorted(arrays))}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
