"""JSON experiment configuration: schema validation with path-tagged errors.

One experiment per file. Unknown keys are rejected at every level; grids are
{start, stop, count} with inclusive linear spacing. `READS` is the one
statement of what each experiment reads: which of the sections `mode`,
`system`, `noise` and `pirs`, and which option keys. Any other section is
rejected at `$.<section>`. `seed` is accepted everywhere, because the run
manifest records it. The `system`, `noise` and `pirs` sections are
`SystemParams`, `NoiseModel` and `PIRSModel`: a section's keys are its
dataclass's fields, and the dataclass checks their ranges.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .linalg import ContractError
from .pulses import (
    FULL_DYNAMICS,
    GATE_MODEL,
    MODES,
    NoiseModel,
    PIRSModel,
    engine_for,
    phase_map_center_frequency,
    phase_map_eig,
    t2_star_from_sigma,
)
from .spam import DETUNING_WHEN_UP_MHZ, donor_distance_fit, phase_reversal_curve, require_amplitude, sine_fit
from .spinmodel import SystemParams


class Reads(NamedTuple):
    """One experiment's sections and option keys, and sections it reads only in FULL_DYNAMICS."""

    sections: tuple
    options: tuple
    full_dynamics: tuple = ()

    def sections_in(self, mode: str) -> tuple:
        return self.sections + (self.full_dynamics if mode == FULL_DYNAMICS else ())


SECTIONS = ("mode", "system", "noise", "pirs")
READS = {
    "phase_map": Reads(
        ("mode", "system", "noise"), ("center_mhz", "freq_offset", "duration", "observables")
    ),
    # the gate model's rotations read no system parameter
    "bell_tomography": Reads(
        ("mode", "noise"), ("shots_per_axis", "groups", "resamples", "spam_spins"), ("system",)
    ),
    "pirs_cz": Reads(SECTIONS, ("max_turns", "points_per_turn")),
    "full_phase_sim": Reads(("mode", "system", "noise"), ("center_mhz", "freq_offset", "duration")),
    "rabi_spam": Reads(
        ("noise",), ("rabi_mhz", "detuning_when_up_mhz", "duration", "shots_per_point")
    ),
    "phase_reversal": Reads(("noise",), ("points", "data_csv")),
    "ramsey": Reads((), ("sigma_f_mhz", "t2_star_us", "wait", "n_shots")),
    "donor_distance_fit": Reads((), ("points", "points_csv", "target_j_mhz")),
}
EXPERIMENTS = tuple(READS)


class ConfigError(ValueError):
    """Itemized validation failures with JSON paths."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "\n".join(f"  {path}: {msg}" for path, msg in self.errors)
        super().__init__(f"invalid configuration:\n{lines}")


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    count: int

    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass
class ExperimentConfig:
    experiment: str
    system: SystemParams
    noise: NoiseModel
    pirs: PIRSModel
    mode: str
    seed: int
    options: dict


# the largest swept phase (rad) whose rounding, eps per radian, stays within 1e-6 rad
MAX_PHASE_RAD = 1e-6 / np.finfo(float).eps
# the most shots a sampled run takes: numpy's samplers take them as int64
MAX_SHOTS = int(np.iinfo(np.int64).max)


def _finite(val) -> bool:
    """A JSON number (not a boolean) that is finite."""
    return isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)


def _broken(default, values):
    """The `ContractError` message of `default` with `values` in place, or None."""
    try:
        replace(default, **values)
    except ContractError as err:
        return str(err)
    return None


class _Checker:
    def __init__(self):
        self.errors = []

    def fail(self, path, msg):
        self.errors.append((path, msg))

    def section(self, doc, path, key, known):
        sub = doc.get(key, {})
        if not isinstance(sub, dict):
            self.fail(f"{path}.{key}", "expected an object")
            return {}
        for k in sub:
            if k not in known:
                self.fail(f"{path}.{key}.{k}", "unknown key")
        return sub

    def model(self, doc, key, default):
        """Section `key` as the dataclass `default` with the document's values
        in place: a JSON boolean for a bool field, a finite number otherwise.
        If the values break the dataclass's checks, each is tried alone on
        the defaults; the error lands at each field that breaks one by
        itself, or else at the section."""
        path, names = f"$.{key}", [f.name for f in fields(default)]
        sub = self.section(doc, "$", key, names)
        values = {}
        for name in [k for k in sub if k in names]:
            if not isinstance(getattr(default, name), bool):
                values[name] = self.number(sub, path, name)
            elif isinstance(sub[name], bool):
                values[name] = sub[name]
            else:
                self.fail(f"{path}.{name}", "expected a boolean")
        values = {k: v for k, v in values.items() if v is not None}
        try:
            return replace(default, **values)
        except ContractError as err:
            alone = [(f"{path}.{k}", _broken(default, {k: v})) for k, v in values.items()]
            self.errors.extend([e for e in alone if e[1] is not None] or [(path, str(err))])
        return default

    def number(self, sub, path, key, default=None, lo=None):
        if key not in sub:
            return default
        val = sub[key]
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            self.fail(f"{path}.{key}", "expected a number")
            return default
        if not math.isfinite(val):
            self.fail(f"{path}.{key}", "must be finite")
            return default
        if lo is not None and val < lo:
            self.fail(f"{path}.{key}", f"must be >= {lo}")
        return float(val)

    def integer(self, sub, path, key, default=None, lo=None, hi=None):
        if key not in sub:
            return default
        val = sub[key]
        if not isinstance(val, int) or isinstance(val, bool):
            self.fail(f"{path}.{key}", "expected an integer")
            return default
        if lo is not None and val < lo:
            self.fail(f"{path}.{key}", f"must be >= {lo}")
        if hi is not None and val > hi:
            self.fail(f"{path}.{key}", f"must be <= {hi}")
        return val

    def phase(self, path, what, phase):
        """Fail at `path` unless the largest swept phase `what` is at most
        MAX_PHASE_RAD (an infinite or NaN phase fails too)."""
        if not phase <= MAX_PHASE_RAD:
            self.fail(path, f"the largest phase {what} must be at most {MAX_PHASE_RAD:.6g} rad, "
                      f"so that it rounds by at most 1e-6 rad, not {phase:.6g} rad")

    def existing_file(self, sub, path, key):
        """An optional path string that must name an existing file."""
        val = sub.get(key)
        if val is None:
            return None
        if not isinstance(val, str):
            self.fail(f"{path}.{key}", "expected a path string")
            return None
        if not Path(val).is_file():
            self.fail(f"{path}.{key}", f"no such file: {val}")
            return None
        return val

    def csv_rows(self, sub, path, key, columns):
        """Rows of the CSV file that option `key` names (see `existing_file`)
        after its header, as lists of finite floats from the `columns` (header
        names, or positions); blank lines are skipped. None when the option
        is absent, or after an error at its path."""
        file = self.existing_file(sub, path, key)
        if file is None:
            return None
        try:
            with open(file, newline="") as fh:
                header, *rows = [row for row in csv.reader(fh) if row] or [[]]
            cols = [c if isinstance(c, int) else header.index(c) for c in columns]
            out = [[float(row[c]) for c in cols] for row in rows]
        except (OSError, UnicodeError, csv.Error, IndexError, ValueError) as err:
            self.fail(f"{path}.{key}", f"expected a header and rows of numbers in columns {columns}: {err}")
            return None
        if not all(map(math.isfinite, sum(out, []))):
            self.fail(f"{path}.{key}", "every number must be finite")
            return None
        return out

    def grid(self, sub, path, key, default, lo=None, min_count=1):
        if key not in sub:
            return default
        g = self.section(sub, path, key, ("start", "stop", "count"))
        start = self.number(g, f"{path}.{key}", "start", 0.0, lo=lo)
        stop = self.number(g, f"{path}.{key}", "stop", 1.0, lo=lo)
        count = self.integer(g, f"{path}.{key}", "count", 2, lo=min_count)
        return GridSpec(start, stop, count)


_TOP_KEYS = {"experiment", "seed", "options", *SECTIONS}


def validate_config(doc_or_path, seed=None) -> ExperimentConfig:
    """Parse and invariant-check a configuration document or file path.

    `seed`, when given, replaces the document's seed (the command line's
    --seed) and is checked the same way. A `system` the experiment reads
    must build its spin engine, which the run then reuses from the cache.
    """
    if isinstance(doc_or_path, (str, Path)):
        path = Path(doc_or_path)
        if not path.exists():
            raise ConfigError([("$", f"no such file: {path}")])
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ConfigError([("$", f"invalid JSON: {err}")]) from err
    else:
        doc = doc_or_path
    if not isinstance(doc, dict):
        raise ConfigError([("$", "top level must be an object")])

    chk = _Checker()
    for key in doc:
        if key not in _TOP_KEYS:
            chk.fail(f"$.{key}", "unknown key")

    experiment = doc.get("experiment")
    if experiment not in EXPERIMENTS:
        chk.fail("$.experiment", f"must be one of {EXPERIMENTS}")
        experiment = "phase_map"

    reads = READS[experiment]
    mode = doc.get("mode", GATE_MODEL) if "mode" in reads.sections else GATE_MODEL
    if mode not in MODES:
        chk.fail("$.mode", f"must be one of {MODES}")
        mode = GATE_MODEL
    sections = reads.sections_in(mode)
    for key in SECTIONS:
        if key in doc and key not in sections:
            where = f" in {mode}" if key in reads.full_dynamics else ""
            readers = ", ".join(e for e, r in READS.items() if key in r.sections_in(FULL_DYNAMICS))
            chk.fail(f"$.{key}", f"{experiment} does not read it{where}; read by {readers}")

    if seed is None:
        seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        chk.fail("$.seed", "expected a non-negative integer")
        seed = 0

    # a section the experiment does not read keeps its defaults
    models = {"system": SystemParams(), "noise": NoiseModel(), "pirs": PIRSModel()}
    system, noise, pirs = (chk.model(doc, k, m) if k in sections else m for k, m in models.items())
    engine = None
    if "system" in sections:
        try:
            engine = engine_for(system)  # cached, so the run reuses this engine
        except (ContractError, np.linalg.LinAlgError) as err:
            chk.fail("$.system", f"no spin engine for these parameters: {err}")
    if not pirs.enabled:  # no drift: nothing else in the section is read
        for key in [f.name for f in fields(pirs) if f.name != "enabled" and f.name in doc["pirs"]]:
            chk.fail(f"$.pirs.{key}", "not read when enabled is false")

    options = _validate_options(chk, doc, experiment, engine, mode, noise)

    if chk.errors:
        raise ConfigError(chk.errors)
    return ExperimentConfig(experiment, system, noise, pirs, mode, seed, options)


def phase_map_axes(options: dict, engine) -> tuple:
    """(frequencies, durations) of a phase map's validated options: the
    offsets around `center_mhz`, or around the engine's
    `phase_map_center_frequency` for "auto"."""
    center = options["center_mhz"]
    if center == "auto":
        center = phase_map_center_frequency(engine)
    return center + options["freq_offset"].points(), options["duration"].points()


def _check_phase_map_grid(chk: _Checker, path, options, engine, mode):
    """Fail where the phase map's grid overflows its run: at `freq_offset`
    when the drive Hamiltonian does not decompose, at `duration` when the
    largest phase 2 pi max|w| max t exceeds MAX_PHASE_RAD. The largest
    |eigenvalue| of free + f drive is convex in f, so it sits at an end of
    the grid, and only the two end frequencies are decomposed."""
    with np.errstate(all="ignore"):  # an overflowing grid is reported below
        freqs, durs = phase_map_axes(options, engine)
        try:
            w, _ = phase_map_eig(engine, mode, freqs[[0, -1]])
        except (ContractError, np.linalg.LinAlgError) as err:
            chk.fail(f"{path}.freq_offset", f"the drive Hamiltonian does not decompose at these frequencies: {err}")
            return
        chk.phase(f"{path}.duration", "2 pi max|w| max t", 2 * np.pi * np.abs(w).max() * durs.max())


def _validate_options(chk: _Checker, doc, experiment, engine, mode, noise) -> dict:
    sub = chk.section(doc, "$", "options", READS[experiment].options)
    path = "$.options"
    out = {}

    if experiment in ("phase_map", "full_phase_sim"):
        center = sub.get("center_mhz", "auto")
        if center != "auto":  # otherwise a number, checked like any other
            center = chk.number(sub, path, "center_mhz", "auto")
        out["center_mhz"] = center
        out["freq_offset"] = chk.grid(sub, path, "freq_offset", GridSpec(-10.0, 10.0, 101))
        out["duration"] = chk.grid(sub, path, "duration", GridSpec(0.0, 10.0, 101), lo=0.0)
        obs = sub.get("observables", experiment == "full_phase_sim")
        if not isinstance(obs, bool):
            chk.fail(f"{path}.observables", "expected a boolean")
            obs = False
        out["observables"] = obs or experiment == "full_phase_sim"
        if engine is not None and min(out["freq_offset"].count, out["duration"].count) >= 1:
            _check_phase_map_grid(chk, path, out, engine, mode)
    elif experiment == "bell_tomography":
        out["shots_per_axis"] = chk.integer(sub, path, "shots_per_axis", 0, lo=0, hi=MAX_SHOTS)
        out["groups"] = chk.integer(sub, path, "groups", 5, lo=2)
        out["resamples"] = chk.integer(sub, path, "resamples", 1000, lo=1)
        if out["shots_per_axis"] == 0:  # exact tables: no bootstrap runs
            for key in [k for k in ("groups", "resamples") if k in sub]:
                chk.fail(f"{path}.{key}", "not read when shots_per_axis is 0")
        spins = sub.get("spam_spins", "all")
        if spins not in ("all", "electrons"):
            chk.fail(f"{path}.spam_spins", "must be 'all' or 'electrons'")
            spins = "all"
        out["spam_spins"] = spins
    elif experiment == "pirs_cz":
        out["max_turns"] = chk.integer(sub, path, "max_turns", 6, lo=1)
        out["points_per_turn"] = chk.integer(sub, path, "points_per_turn", 8, lo=2)
    elif experiment == "rabi_spam":
        before = len(chk.errors)
        out["rabi_mhz"] = chk.number(sub, path, "rabi_mhz", 0.01, lo=1e-6)
        detuning = chk.number(sub, path, "detuning_when_up_mhz", DETUNING_WHEN_UP_MHZ)
        out["detuning_when_up_mhz"] = detuning
        # the loading-error fit needs eight points
        out["duration"] = chk.grid(
            sub, path, "duration", GridSpec(0.0, 100.0, 64), lo=0.0, min_count=8
        )
        if len(chk.errors) == before:  # the detuned branch turns fastest
            t_max = max(out["duration"].start, out["duration"].stop)
            phase = math.pi * math.hypot(out["rabi_mhz"], detuning) * t_max
            chk.phase(f"{path}.duration", "pi hypot(rabi_mhz, detuning_when_up_mhz) max t", phase)
        out["shots_per_point"] = chk.integer(sub, path, "shots_per_point", 0, lo=0, hi=MAX_SHOTS)
    elif experiment == "phase_reversal":
        before = len(chk.errors)
        out["points"] = chk.integer(sub, path, "points", 96, lo=12)
        # the file's rows, which the runner reads in place of the file
        out["data_csv"] = chk.csv_rows(sub, path, "data_csv", ("x_value", "p_up_proportion", "n_shots"))
        if out["data_csv"] is not None and len(out["data_csv"]) < 12:  # the sine fit's minimum
            chk.fail(f"{path}.data_csv", "need at least twelve rows to fit")
        for i, (_, p_up, shots) in enumerate(out["data_csv"] or []):
            if not (0 <= p_up <= 1 and shots >= 1 and shots == int(shots)):
                chk.fail(
                    f"{path}.data_csv",
                    f"row {i + 1}: p_up_proportion must lie in [0, 1] and n_shots be a "
                    f"positive whole number, not {p_up!r} and {shots!r}",
                )
                break
        if out["data_csv"] is not None and len(chk.errors) == before:  # the fits the run compares
            phis = np.linspace(0.0, 2 * np.pi, out["points"], endpoint=False)
            x, y, _ = np.transpose(out["data_csv"])
            with warnings.catch_warnings():  # a degenerate fit fails here instead
                warnings.simplefilter("ignore")
                fits = [
                    ("$.noise.p_up", "simulated", sine_fit(phis, phase_reversal_curve(noise.p_up, phis))),
                    (f"{path}.data_csv", "data", sine_fit(x, y)),
                ]
            for where, name, fit in fits:  # as `compare_fits` checks them
                try:
                    require_amplitude(fit, name)
                except ContractError as err:
                    chk.fail(where, f"the fits cannot be compared: {err}")
    elif experiment == "ramsey":
        sigma = chk.number(sub, path, "sigma_f_mhz", None, lo=1e-9)
        t2 = chk.number(sub, path, "t2_star_us", None, lo=1e-9)
        if sigma is None and t2 is None:
            chk.fail(f"{path}", "one of sigma_f_mhz or t2_star_us is required")
        if sigma is not None and t2 is not None:
            chk.fail(f"{path}", "give sigma_f_mhz or t2_star_us, not both")
        # each maps to the other through t2_star_from_sigma, whose 2 pi sigma
        # overflows near the top of the float range, giving 0
        for key, val, image in (("sigma_f_mhz", sigma, "T2*"), ("t2_star_us", t2, "sigma_f")):
            if val is not None and val > 0 and not 0 < t2_star_from_sigma(val) < math.inf:
                msg = f"{image} = sqrt(2) / (2 pi {key}) = {t2_star_from_sigma(val)} is not positive and finite"
                chk.fail(f"{path}.{key}", msg)
        out["sigma_f_mhz"], out["t2_star_us"] = sigma, t2
        out["wait"] = chk.grid(sub, path, "wait", GridSpec(0.0, 60.0, 21), lo=0.0)
        out["n_shots"] = chk.integer(sub, path, "n_shots", 10_000, lo=1, hi=MAX_SHOTS)
    elif experiment == "donor_distance_fit":
        pts = sub.get("points")
        if pts is None and sub.get("points_csv") is None:
            chk.fail(f"{path}", "one of points or points_csv is required")
        if pts is not None and sub.get("points_csv") is not None:
            chk.fail(f"{path}", "give points or points_csv, not both")
        rows = chk.csv_rows(sub, path, "points_csv", (0, 1))
        # the pairs the runner reads, inline or the file's rows, checked alike
        where, pts = (f"{path}.points", pts) if rows is None else (f"{path}.points_csv", rows)
        before = len(chk.errors)
        if pts is not None:
            good = isinstance(pts, list) and len(pts) >= 3 and all(
                isinstance(p, list) and len(p) == 2 for p in pts
            )
            if not good:
                chk.fail(where, "expected at least three [distance_nm, j_mhz] pairs")
            else:
                for i, (d, j) in enumerate(pts):
                    at = f"{where}[{i}]" if rows is None else where
                    if not _finite(d):
                        chk.fail(at, f"distance must be a finite number, not {d!r}")
                    if not _finite(j) or j <= 0:
                        chk.fail(at, f"exchange strength must be positive, not {j!r}")
                # a line through one distance, or one strength, has no crossing
                distances, strengths = zip(*pts)
                if all(map(_finite, distances + strengths)):
                    if len(set(distances)) == 1:
                        chk.fail(where, "distances must not all be equal")
                    if len(set(strengths)) == 1:
                        chk.fail(where, "exchange strengths must not all be equal")
        out["points"] = pts
        out["points_csv"] = sub.get("points_csv")
        out["target_j_mhz"] = chk.number(sub, path, "target_j_mhz", 12.0, lo=1e-9)
        if pts is not None and len(chk.errors) == before:  # the fit the run writes
            with warnings.catch_warnings(), np.errstate(all="ignore"):  # reported below
                warnings.simplefilter("ignore")
                fit = donor_distance_fit(pts, out["target_j_mhz"])
            if not all(map(math.isfinite, fit)):
                chk.fail(where, f"the fit (distance, slope, intercept) = {fit} is not finite")
    return out
