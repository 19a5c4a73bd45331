"""The run corpus: small documents of every experiment, each run through the
command line. Every number a run writes must be finite, obey the bound its
name calls for, and match the recorded copy `corpus/<entry>/<file>` at the
benchmark references' tolerance; keys, headers and text cells must match
exactly, and the recorded files must be those the run's manifest lists.

`PYTHONPATH=src python tests/test_corpus.py` rewrites the recorded copies,
printing for each file whether it is byte-identical, differs within the
tolerance (how many cells, the largest difference) or differs beyond it.
"""

import contextlib
import io
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import pytest

from conftest import TRACE_CSV
from donorpair import cli

CORPUS = Path(__file__).resolve().parent / "corpus"
ATOL, RTOL = 1e-9, 1e-11  # RTOL: the last of the 12 significant digits of a CSV cell
# names of probabilities and up proportions, and of interval bounds
UNIT_INTERVAL = re.compile(r"p_flip.*|.*_up|p_up.*|probability|concurrence|lo|hi")


def grid(start, stop, count):
    return {"start": start, "stop": stop, "count": count}


PIRS = {"experiment": "pirs_cz", "options": {"max_turns": 2, "points_per_turn": 4}}
DRIFT = {"enabled": True, "shift_khz": 120, "time_constant_us": 3}
BELL = {"experiment": "bell_tomography", "noise": {"p_up": 0.14}}
REVERSAL = {"experiment": "phase_reversal", "noise": {"p_up": 0.14}}
MAP = {"experiment": "phase_map", "noise": {"p_up": 0.14}}
RABI = {"experiment": "rabi_spam", "noise": {"p_up": 0.14}}
MAP_5X5 = {"freq_offset": grid(-10, 10, 5), "duration": grid(0, 10, 5)}
FULL = {"experiment": "full_phase_sim", "options": {"freq_offset": grid(-3, 3, 5), "duration": grid(0, 4, 5)}}

# A `data_csv` of "trace.csv" is TRACE_CSV, which the run writes beside its config.
ENTRIES = {
    # a drifting conditional-phase curve through the interpolated drift kernel
    "pirs_cz_full": {**PIRS, "mode": "FULL_DYNAMICS", "pirs": DRIFT},
    # the gate model's drift runs on the addressed 2x2 pair
    "pirs_cz_gate": {**PIRS, "mode": "GATE_MODEL", "pirs": DRIFT},
    # the 5000 kHz ceiling takes 14 interpolation nodes
    "pirs_cz_ceiling": {**PIRS, "mode": "FULL_DYNAMICS", "pirs": {**DRIFT, "shift_khz": 5000, "time_constant_us": 0.3}},
    # without drift both curves run the compiled CZ pulse over every duration
    "pirs_cz_off_gate": {**PIRS, "mode": "GATE_MODEL", "pirs": {"enabled": False}},
    "pirs_cz_off_full": {**PIRS, "mode": "FULL_DYNAMICS", "pirs": {"enabled": False}},
    # the factored flip readout's edge cases: p_up 0 drops the spectator-up
    # branch, and 0.5 is the loading bound
    "pirs_cz_p0": {**PIRS, "mode": "GATE_MODEL", "noise": {"p_up": 0}},
    "pirs_cz_half": {**PIRS, "mode": "FULL_DYNAMICS", "noise": {"p_up": 0.5}},
    # without a pirs section, pirs_cz runs the default 120 kHz / 3 us drift
    "pirs_cz_default": PIRS,
    # Bell tomography with loading error on the electrons only (a partial InitStep)
    "bell_electrons": {**BELL, "options": {"spam_spins": "electrons", "shots_per_axis": 200, "resamples": 100}},
    # sampled tables from the one-pass full-dynamics preparation
    "bell_full": {**BELL, "mode": "FULL_DYNAMICS", "options": {"shots_per_axis": 200, "groups": 4, "resamples": 100}},
    # a multi-word seed and two groups through the one-pass bootstrap draw
    "bell_seed": {**BELL, "seed": 2**64 + 5, "options": {"shots_per_axis": 200, "groups": 2, "resamples": 100}},
    # sixteen groups give about 300 distinct resamples, inverted in one call,
    # and a 128-bit seed fills both limbs of the PCG64 state
    "bell_many": {**BELL, "seed": 2**127 + 1, "options": {"shots_per_axis": 200, "groups": 16, "resamples": 300}},
    # every resample draws one count vector: one state, so each interval is a single value
    "bell_lone": {**BELL, "seed": 1, "options": {"shots_per_axis": 200, "groups": 2, "resamples": 3}},
    # exact tables only, no bootstrap: the pooled state's eigensystem gives its concurrence alone
    "bell_exact": {**BELL, "mode": "FULL_DYNAMICS"},
    # one resample: a one-row stack of eigensystems
    "bell_one_resample": {**BELL, "options": {"shots_per_axis": 200, "groups": 2, "resamples": 1}},
    # p_up 0: the bootstrap states are rank-deficient, and the concurrence
    # and both its bounds stay in [0, 1]
    "bell_pure": {**BELL, "noise": {"p_up": 0}, "options": {"shots_per_axis": 200, "resamples": 100}},
    # a measured trace through the fixed-period fit and the fit comparison
    "phase_reversal_data": {**REVERSAL, "options": {"data_csv": "trace.csv"}},
    # near the loading bound the simulated fit's amplitude is 1.3e-5, still comparable
    "phase_reversal_data_near_half": {**REVERSAL, "noise": {"p_up": 0.4999}, "options": {"data_csv": "trace.csv"}},
    "phase_reversal": {**REVERSAL, "options": {"points": 24}},
    # a configured T2* is written as given, not after a round trip through sigma
    "ramsey": {"experiment": "ramsey", "options": {"t2_star_us": 10, "n_shots": 200}},
    # Ramsey shots are one binomial draw per wait, so the int64 ceiling runs
    "ramsey_ceiling": {"experiment": "ramsey", "options": {"t2_star_us": 10, "n_shots": 2**63 - 1}},
    # the phase factors' split m, which minimises ceil(D / m) + 4 m for the
    # gate map's 4 values: 1 and 2 durations give m = 1 (no baby step), 17
    # give m = 2 with 9 giants, so the last giant row is cut, and 101 the
    # workload's m = 5
    **{
        f"phase_map_durations_{n}": {**MAP, "options": {"freq_offset": grid(-10, 10, 3), "duration": grid(0, 10, n)}}
        for n in (1, 2, 17, 101)
    },
    # the phase maps run the block kernel in both modes, at p_up 0 in both
    "full_phase_sim": {**FULL, "noise": {"p_up": 0.14}},
    "phase_map_full_observables": {**MAP, "mode": "FULL_DYNAMICS", "options": {"observables": True, **MAP_5X5}},
    "phase_map_gate_p0": {**MAP, "mode": "GATE_MODEL", "noise": {"p_up": 0}, "options": MAP_5X5},
    "phase_map_full_p0": {**MAP, "mode": "FULL_DYNAMICS", "noise": {"p_up": 0}, "options": MAP_5X5},
    # the full-dynamics map at one spectator (14 values in its one block)
    "full_phase_sim_p0": {**FULL, "noise": {"p_up": 0}},
    # the gate model's observables at p_up 0.14 fill its two n1 halves
    # unequally (2 values start in n1 = 0, 14 in n1 = 1): every block
    # contracts all 16 values and keeps those whose start it holds
    "phase_map_gate_observables": {**MAP, "mode": "GATE_MODEL", "options": {"observables": True, **MAP_5X5}},
    "rabi_spam": {**RABI, "options": {"duration": grid(0, 200, 41), "shots_per_point": 100}},
    # the loading-error fit that test_imports.py runs to show that no scipy module loads
    "rabi_spam_default": RABI,
    "donor_distance_fit": {"experiment": "donor_distance_fit", "options": {"points": [[10, 300], [14, 60], [18, 5]]}},
}


def run_entry(name: str, work: Path) -> dict:
    """Paths of the outputs the run of entry `name` lists in its manifest;
    the config, the trace and the outputs go under `work`."""
    doc = ENTRIES[name]
    if "data_csv" in doc.get("options", {}):
        (work / "trace.csv").write_text(TRACE_CSV)
        doc = {**doc, "options": {**doc["options"], "data_csv": str(work / "trace.csv")}}
    (work / "config.json").write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--config", str(work / "config.json"), "--out", str(work / "out")])
    if code != 0:
        raise RuntimeError(f"{name}: run exited {code}")
    return {f: work / "out" / f for f in json.loads((work / "out" / "manifest.json").read_text())["outputs"]}


def cells(path: Path) -> dict:
    """Every cell of an output by location: a CSV's header, and its cells by
    (row, column name); a JSON document's leaves by key path. Numbers are
    floats; text, booleans and nulls stay as read."""
    if path.suffix == ".csv":
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        found = {("header",): header}
        for i, row in enumerate(rows):
            for column, cell in zip(header, row, strict=True):
                with contextlib.suppress(ValueError):
                    cell = float(cell)
                found[i, column] = cell
        return found

    def leaves(node, at):
        if isinstance(node, (dict, list)):
            for key, val in node.items() if isinstance(node, dict) else enumerate(node):
                yield from leaves(val, (*at, key))
        else:
            yield at, float(node) if type(node) in (int, float) else node

    return dict(leaves(json.loads(path.read_text()), ()))


def invariant_breaks(found: dict) -> list:
    """Numbers that are not finite, probabilities and interval bounds outside
    [0, 1], Bloch norms above 1 and lower bounds above their upper bound,
    each by the last name in its location."""
    breaks = []
    for at, val in found.items():
        name = [k for k in at if isinstance(k, str)][-1]
        hi = found.get((*at[:-1], "hi")) if name == "lo" else None
        if isinstance(val, float) and not (
            math.isfinite(val)
            and (0 <= val <= 1 or not UNIT_INTERVAL.fullmatch(name))
            and (val <= 1 or not name.endswith("_bloch_norm"))
            and (hi is None or val <= hi)
        ):
            breaks.append((at, val))
    return breaks


def verdict(new: Path, old: Path) -> tuple:
    """(whether output `new` is within the tolerance of its recorded copy
    `old`, the one-line verdict that says so)."""
    if not (new.is_file() and old.is_file()):
        return False, "new, not recorded before" if new.is_file() else "no longer written"
    if new.read_bytes() == old.read_bytes():
        return True, "byte-identical"
    got, recorded = cells(new), cells(old)
    changed, worst, beyond = 0, 0.0, []
    for at in [*recorded, *(at for at in got if at not in recorded)]:
        a, b = got.get(at, "<missing>"), recorded.get(at, "<missing>")
        if a == b and type(a) is type(b):
            continue
        changed += 1
        if isinstance(a, float) and isinstance(b, float):
            worst = max(worst, abs(a - b))
            if abs(a - b) <= ATOL + RTOL * abs(b):
                continue
        beyond.append(at)
    counts = f"{changed} of {len(recorded)} cells changed, largest difference {worst:.3g}"
    if beyond:
        return False, f"differs BEYOND tolerance: {counts}; first at {beyond[0]}"
    return True, f"differs within tolerance: {counts}"


# the runs' own warnings: a full-dynamics drive past the selectivity bound, too
# few resamples for stable percentiles, a degenerate fitted phase
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", ENTRIES)
def test_entry_matches_its_recorded_outputs(name, tmp_path):
    outputs = run_entry(name, tmp_path)
    assert sorted(outputs) == sorted(p.name for p in (CORPUS / name).iterdir())
    for file, path in outputs.items():
        assert invariant_breaks(cells(path)) == [], file
        ok, text = verdict(path, CORPUS / name / file)
        assert ok, f"{file}: {text}"


def test_corpus_holds_only_the_entries():
    assert sorted(p.name for p in CORPUS.iterdir()) == sorted(ENTRIES)


if __name__ == "__main__":
    CORPUS.mkdir(exist_ok=True)
    for stale in sorted({p.name for p in CORPUS.iterdir()} - set(ENTRIES)):
        print(f"{stale}: no longer an entry, removed")
        shutil.rmtree(CORPUS / stale)
    for name in ENTRIES:
        with tempfile.TemporaryDirectory() as work:
            outputs = run_entry(name, Path(work))
            recorded = CORPUS / name
            recorded.mkdir(exist_ok=True)
            for file in sorted({*outputs, *(p.name for p in recorded.iterdir())}):
                new = outputs.get(file, Path(work) / "out" / file)
                print(f"{name}/{file}: {verdict(new, recorded / file)[1]}")
                if file in outputs:
                    shutil.copyfile(new, recorded / file)
                else:
                    (recorded / file).unlink()
