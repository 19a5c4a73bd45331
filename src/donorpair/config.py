"""JSON experiment configuration: schema validation with path-tagged errors.

One experiment per file. Unknown keys are rejected at every level; grids are
{start, stop, count} with inclusive linear spacing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .pulses import NoiseModel, PIRSModel
from .spinmodel import SystemParams

EXPERIMENTS = (
    "phase_map",
    "bell_tomography",
    "pirs_cz",
    "full_phase_sim",
    "rabi_spam",
    "phase_reversal",
    "ramsey",
    "donor_distance_fit",
)

MODES = ("GATE_MODEL", "FULL_DYNAMICS")


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
    mode: str = "GATE_MODEL"
    seed: int = 0
    output_format: str = "csv"
    options: dict = field(default_factory=dict)


class _Checker:
    def __init__(self):
        self.errors = []

    def fail(self, path, msg):
        self.errors.append((path, msg))

    def section(self, doc, path, key, known, required=()):
        sub = doc.get(key, {})
        if not isinstance(sub, dict):
            self.fail(f"{path}.{key}", "expected an object")
            return {}
        for k in sub:
            if k not in known:
                self.fail(f"{path}.{key}.{k}", "unknown key")
        for k in required:
            if k not in sub:
                self.fail(f"{path}.{key}.{k}", "missing required key")
        return sub

    def number(self, sub, path, key, default=None, lo=None, hi=None):
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
        if hi is not None and val > hi:
            self.fail(f"{path}.{key}", f"must be <= {hi}")
        return float(val)

    def integer(self, sub, path, key, default=None, lo=None):
        if key not in sub:
            return default
        val = sub[key]
        if not isinstance(val, int) or isinstance(val, bool):
            self.fail(f"{path}.{key}", "expected an integer")
            return default
        if lo is not None and val < lo:
            self.fail(f"{path}.{key}", f"must be >= {lo}")
        return val

    def grid(self, sub, path, key, default, lo=None):
        if key not in sub:
            return default
        g = sub[key]
        if not isinstance(g, dict):
            self.fail(f"{path}.{key}", "expected {start, stop, count}")
            return default
        for k in g:
            if k not in ("start", "stop", "count"):
                self.fail(f"{path}.{key}.{k}", "unknown key")
        start = self.number(g, f"{path}.{key}", "start", 0.0, lo=lo)
        stop = self.number(g, f"{path}.{key}", "stop", 1.0, lo=lo)
        count = self.integer(g, f"{path}.{key}", "count", 2, lo=1)
        return GridSpec(start, stop, count)


_TOP_KEYS = {"experiment", "system", "noise", "pirs", "mode", "seed", "output", "options"}
_SYSTEM_KEYS = {"b0", "g1", "g2", "mu_b_over_h", "gamma_n", "a1", "a2", "j"}
_NOISE_KEYS = {"p_up", "sigma_f_mhz"}
_PIRS_KEYS = {"shift_khz", "time_constant_us", "enabled", "accumulated_khz"}

_OPTION_KEYS = {
    "phase_map": {"center_mhz", "freq_offset", "duration", "observables"},
    "full_phase_sim": {"center_mhz", "freq_offset", "duration"},
    "bell_tomography": {"shots_per_axis", "groups", "resamples", "spam_spins"},
    "pirs_cz": {"max_turns", "points_per_turn"},
    "rabi_spam": {"rabi_mhz", "detuning_when_up_mhz", "duration", "shots_per_point"},
    "phase_reversal": {"points", "data_csv"},
    "ramsey": {"spin", "sigma_f_mhz", "t2_star_us", "wait", "n_shots"},
    "donor_distance_fit": {"points", "points_csv", "target_j_mhz"},
}


def validate_config(doc_or_path) -> ExperimentConfig:
    """Parse and invariant-check a configuration document or file path."""
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

    mode = doc.get("mode", "GATE_MODEL")
    if mode not in MODES:
        chk.fail("$.mode", f"must be one of {MODES}")
        mode = "GATE_MODEL"

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        chk.fail("$.seed", "expected a non-negative integer")
        seed = 0

    sys_doc = chk.section(doc, "$", "system", _SYSTEM_KEYS)
    defaults = SystemParams()
    kwargs = {}
    for key in _SYSTEM_KEYS:
        kwargs[key] = chk.number(sys_doc, "$.system", key, getattr(defaults, key))
    system = defaults
    if not chk.errors:
        try:
            system = SystemParams(**kwargs)
        except ValueError as err:
            chk.fail("$.system", str(err))

    noise_doc = chk.section(doc, "$", "noise", _NOISE_KEYS)
    p_up = chk.number(noise_doc, "$.noise", "p_up", 0.0, lo=0.0, hi=0.5)
    sigma = chk.number(noise_doc, "$.noise", "sigma_f_mhz", 0.0, lo=0.0)
    noise = NoiseModel()
    if not chk.errors:
        noise = NoiseModel(sigma_f_mhz=sigma, p_up=p_up)

    pirs_doc = chk.section(doc, "$", "pirs", _PIRS_KEYS)
    pirs = PIRSModel()
    shift = chk.number(pirs_doc, "$.pirs", "shift_khz", 0.0, lo=0.0)
    tau = chk.number(pirs_doc, "$.pirs", "time_constant_us", 100.0)
    acc = chk.number(pirs_doc, "$.pirs", "accumulated_khz", 0.0)
    enabled = pirs_doc.get("enabled", False)
    if not isinstance(enabled, bool):
        chk.fail("$.pirs.enabled", "expected a boolean")
        enabled = False
    if tau is not None and tau <= 0:
        chk.fail("$.pirs.time_constant_us", "must be positive")
    elif not chk.errors:
        pirs = PIRSModel(shift_khz=shift, time_constant_us=tau, enabled=enabled, accumulated_khz=acc)

    out_doc = chk.section(doc, "$", "output", {"format"})
    fmt = out_doc.get("format", "csv")
    if fmt not in ("csv", "json"):
        chk.fail("$.output.format", "must be 'csv' or 'json'")
        fmt = "csv"

    options = _validate_options(chk, doc, experiment)

    if chk.errors:
        raise ConfigError(chk.errors)
    return ExperimentConfig(
        experiment=experiment,
        system=system,
        noise=noise,
        pirs=pirs,
        mode=mode,
        seed=seed,
        output_format=fmt,
        options=options,
    )


def _validate_options(chk: _Checker, doc, experiment) -> dict:
    known = _OPTION_KEYS[experiment]
    sub = chk.section(doc, "$", "options", known)
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
    elif experiment == "bell_tomography":
        out["shots_per_axis"] = chk.integer(sub, path, "shots_per_axis", 0, lo=0)
        out["groups"] = chk.integer(sub, path, "groups", 5, lo=2)
        out["resamples"] = chk.integer(sub, path, "resamples", 1000, lo=1)
        spins = sub.get("spam_spins", "all")
        if spins not in ("all", "electrons"):
            chk.fail(f"{path}.spam_spins", "must be 'all' or 'electrons'")
            spins = "all"
        out["spam_spins"] = spins
    elif experiment == "pirs_cz":
        out["max_turns"] = chk.integer(sub, path, "max_turns", 6, lo=1)
        out["points_per_turn"] = chk.integer(sub, path, "points_per_turn", 8, lo=2)
    elif experiment == "rabi_spam":
        out["rabi_mhz"] = chk.number(sub, path, "rabi_mhz", 0.01, lo=1e-6)
        out["detuning_when_up_mhz"] = chk.number(sub, path, "detuning_when_up_mhz", None)
        out["duration"] = chk.grid(sub, path, "duration", GridSpec(0.0, 100.0, 64), lo=0.0)
        out["shots_per_point"] = chk.integer(sub, path, "shots_per_point", 0, lo=0)
    elif experiment == "phase_reversal":
        out["points"] = chk.integer(sub, path, "points", 96, lo=12)
        data_csv = sub.get("data_csv")
        if data_csv is not None and not isinstance(data_csv, str):
            chk.fail(f"{path}.data_csv", "expected a path string")
            data_csv = None
        out["data_csv"] = data_csv
    elif experiment == "ramsey":
        spin = sub.get("spin", "n1")
        if spin not in ("n1", "n2", "e1", "e2"):
            chk.fail(f"{path}.spin", "must be one of n1, n2, e1, e2")
            spin = "n1"
        out["spin"] = spin
        sigma = chk.number(sub, path, "sigma_f_mhz", None, lo=0.0)
        t2 = chk.number(sub, path, "t2_star_us", None, lo=1e-9)
        if sigma is None and t2 is None:
            chk.fail(f"{path}", "one of sigma_f_mhz or t2_star_us is required")
        if sigma is not None and t2 is not None:
            chk.fail(f"{path}", "give sigma_f_mhz or t2_star_us, not both")
        out["sigma_f_mhz"], out["t2_star_us"] = sigma, t2
        out["wait"] = chk.grid(sub, path, "wait", GridSpec(0.0, 60.0, 21), lo=0.0)
        out["n_shots"] = chk.integer(sub, path, "n_shots", 10_000, lo=1)
    elif experiment == "donor_distance_fit":
        pts = sub.get("points")
        csv_path = sub.get("points_csv")
        if pts is None and csv_path is None:
            chk.fail(f"{path}", "one of points or points_csv is required")
        if pts is not None:
            good = isinstance(pts, list) and len(pts) >= 3 and all(
                isinstance(p, list) and len(p) == 2 for p in pts
            )
            if not good:
                chk.fail(f"{path}.points", "expected a list of [distance_nm, j_mhz] pairs")
            else:
                for i, (_, j) in enumerate(pts):
                    if not isinstance(j, (int, float)) or j <= 0:
                        chk.fail(f"{path}.points[{i}]", "exchange strength must be positive")
        out["points"] = pts
        out["points_csv"] = csv_path if isinstance(csv_path, (str, type(None))) else None
        out["target_j_mhz"] = chk.number(sub, path, "target_j_mhz", 12.0, lo=1e-9)
    return out
