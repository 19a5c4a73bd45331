"""Output check for one benchmark run, made outside the timed interval.

Two kinds of check:

* invariants, on any seed: flip probabilities and up-proportions in [0, 1],
  Bloch norms <= 1, a Hermitian, unit-trace, positive Bell density whose
  fidelity is near the exact shots=0 value;
* reference values written by `record_reference.py` (`reference/*.npz`),
  compared number by number. The tolerance is absolute 1e-9, widened to the
  12 significant digits the CSV files carry, because frequencies near 4e4 MHz
  are printed to 1e-7. A vectorized kernel that re-associates sums moves
  values by ~1e-13, so checksums are not compared.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ATOL = 1e-9
RTOL = 1e-11  # the last of the 12 significant digits written by experiments.fmt
BELL_FIDELITY_EXACT = 0.6519  # shots=0 fidelity of the p_up = 0.14 Bell state
BELL_FIDELITY_TOL = 0.05
# experiments whose outputs depend on config.seed; the others are compared
# with their reference on every seed
SEEDED_EXPERIMENTS = {"bell_tomography"}


def read_output(path: Path):
    """Numeric content of one output file: (column names, 2-D array) for a
    CSV, (field names, 1-D array) for the Bell density JSON."""
    text = path.read_text()
    if path.suffix == ".csv":
        lines = text.strip("\n").split("\n")
        header = lines[0].split(",")
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        values = np.array(rows, dtype=float).reshape(len(rows), len(header))
        return header, values
    doc = json.loads(text)
    names = [f"re{i}{j}" for i in range(4) for j in range(4)]
    names += [f"im{i}{j}" for i in range(4) for j in range(4)]
    names += ["fidelity", "concurrence", "ci_lo", "ci_hi", "ci_concurrence_lo", "ci_concurrence_hi"]
    values = np.concatenate(
        [
            np.ravel(doc["re"]),
            np.ravel(doc["im"]),
            [doc["fidelity"], doc["concurrence"]],
            [doc["ci"]["lo"], doc["ci"]["hi"]],
            [doc["ci_concurrence"]["lo"], doc["ci_concurrence"]["hi"]],
        ]
    ).astype(float)
    return names, values


def load_reference(workload_name: str):
    """(config document, {output name: array}) recorded for a workload, or
    None when no reference was recorded."""
    path = REFERENCE_DIR / f"{workload_name}.npz"
    if not path.exists():
        return None
    with np.load(path) as data:
        doc = json.loads(str(data["config"]))
        arrays = {k: data[k] for k in data.files if k != "config"}
    return doc, arrays


def _in_unit_interval(name, values, problems):
    if values.size and (values.min() < -ATOL or values.max() > 1 + ATOL):
        problems.append(f"{name}: outside [0, 1] ({values.min():.3g}..{values.max():.3g})")


def _check_invariants(outputs, problems):
    for fname, (header, values) in outputs.items():
        if not np.all(np.isfinite(values)):
            problems.append(f"{fname}: non-finite values")
            continue
        if fname == "bell_density.json":
            rho = values[:16].reshape(4, 4) + 1j * values[16:32].reshape(4, 4)
            herm = np.max(np.abs(rho - rho.conj().T))
            if herm > ATOL:
                problems.append(f"{fname}: not Hermitian ({herm:.3g})")
            if abs(np.trace(rho).real - 1.0) > ATOL:
                problems.append(f"{fname}: trace {np.trace(rho).real!r}")
            low = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
            if low < -ATOL:
                problems.append(f"{fname}: eigenvalue {low:.3g}")
            fid = values[header.index("fidelity")]
            if abs(fid - BELL_FIDELITY_EXACT) > BELL_FIDELITY_TOL:
                problems.append(f"{fname}: fidelity {fid:.4f} far from {BELL_FIDELITY_EXACT}")
            continue
        for col, name in enumerate(header):
            column = values[:, col]
            if name.startswith("p_flip") or name.endswith("_up") or name == "probability":
                _in_unit_interval(f"{fname}:{name}", column, problems)
            elif name.endswith("_bloch_norm"):
                if column.min() < -ATOL or column.max() > 1 + ATOL:
                    problems.append(f"{fname}:{name}: Bloch norm above 1 ({column.max():.12g})")
        if "probability" in header:
            total = values[:, header.index("probability")].sum()
            if abs(total - 1.0) > ATOL:
                problems.append(f"{fname}: probabilities sum to {total!r}")


def _expected_rows(config) -> dict:
    opts = config.options
    if config.experiment in ("phase_map", "full_phase_sim"):
        n = opts["freq_offset"].count * opts["duration"].count
        names = ["phase_map.csv"]
        if opts["observables"]:
            names.append("spin_observables.csv")
        return {name: n for name in names}
    if config.experiment == "pirs_cz":
        return {"pirs_cz.csv": opts["max_turns"] * opts["points_per_turn"] + 1}
    if config.experiment == "bell_tomography":
        return {"zz_probabilities.csv": 4, "bell_density.json": None}
    return {}


def check_run(config, doc: dict, out_dir, manifest, reference=None) -> list[str]:
    """Problems found in one run's outputs; an empty list means it passed.

    `doc` is the config document the run was validated from and `reference`
    the value of `load_reference` for its workload.
    """
    out = Path(out_dir)
    problems = []
    expected = _expected_rows(config)
    if set(manifest.outputs) != set(expected):
        problems.append(f"outputs {sorted(manifest.outputs)}, expected {sorted(expected)}")
    if not (out / "manifest.json").is_file():
        problems.append("manifest.json missing")

    outputs = {}
    for name, digest in manifest.outputs.items():
        path = out / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        if hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"{name}: checksum differs from the manifest")
        try:
            outputs[name] = read_output(path)
        except (ValueError, KeyError, TypeError) as err:
            problems.append(f"{name}: unreadable ({err})")
            continue
        rows = expected.get(name)
        if rows is not None and outputs[name][1].shape[0] != rows:
            problems.append(f"{name}: {outputs[name][1].shape[0]} rows, expected {rows}")
    if problems:
        return problems

    _check_invariants(outputs, problems)

    if reference is not None:
        ref_doc, ref_arrays = reference
        same_inputs = {k: v for k, v in ref_doc.items() if k != "seed"} == {
            k: v for k, v in doc.items() if k != "seed"
        }
        seed_matters = config.experiment in SEEDED_EXPERIMENTS
        if same_inputs and (not seed_matters or ref_doc.get("seed") == doc.get("seed")):
            for name, ref in ref_arrays.items():
                got = outputs.get(name, (None, np.empty(0)))[1]
                if got.shape != ref.shape:
                    problems.append(f"{name}: shape {got.shape}, reference {ref.shape}")
                    continue
                bad = ~np.isclose(got, ref, rtol=RTOL, atol=ATOL)
                if bad.any():
                    worst = np.max(np.abs(got - ref))
                    problems.append(
                        f"{name}: {int(bad.sum())} values differ from the reference "
                        f"(largest difference {worst:.3g})"
                    )
    return problems
