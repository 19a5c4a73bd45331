import json
import math
from dataclasses import fields

import numpy as np
import pytest

from conftest import TRACE_CSV
from donorpair.cli import main
from donorpair.config import MAX_PHASE_RAD, ConfigError, EXPERIMENTS, GridSpec, validate_config
from donorpair.experiments import _config_hash, run
from donorpair.pulses import (
    MODES,
    NoiseModel,
    PIRSModel,
    engine_for,
    phase_map_center_frequency,
    t2_star_from_sigma,
)
from donorpair.spam import DETUNING_WHEN_UP_MHZ
from donorpair.spinmodel import SystemParams


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# the fewest options that make each experiment's config valid
VALID_OPTIONS = {
    "ramsey": {"t2_star_us": 10.0},
    "donor_distance_fit": {"points": [[5.0, 100.0], [10.0, 10.0], [15.0, 1.0]]},
}
DONOR_POINTS = VALID_OPTIONS["donor_distance_fit"]
RABI_FOUR_POINTS = {"experiment": "rabi_spam", "options": {"duration": {"start": 0, "stop": 50, "count": 4}}}
# the experiments that read a data file; a test fills in the file's path as
# the option DATA_KEY names
DONOR = {"experiment": "donor_distance_fit"}
REVERSAL = {"experiment": "phase_reversal"}
DATA_KEY = {"donor_distance_fit": "points_csv", "phase_reversal": "data_csv"}
# TRACE_CSV's rows with every proportion 0.5: its fit's amplitude is 3.6e-17
FLAT_TRACE_CSV = "x_value,p_up_proportion,n_shots\n" + "".join(f"{i}.5,0.5,200\n" for i in range(1, 13))
# twelve rows whose proportions alternate 1e308 and -1e308, and twelve whose
# proportions alternate 3 and -2 with n_shots -5
OVERFLOWING_TRACE_CSV = "x_value,p_up_proportion,n_shots\n" + "".join(
    f"{i}.5,{(-1) ** i * 1e308},200\n" for i in range(1, 13)
)
OUT_OF_RANGE_TRACE_CSV = "x_value,p_up_proportion,n_shots\n" + "".join(
    f"{i}.5,{3 if i % 2 else -2},-5\n" for i in range(1, 13)
)


def grid(start, stop, count):
    return {"start": start, "stop": stop, "count": count}


# finite inputs whose run overflows: the grid's end frequencies overflow the
# drive Hamiltonian into NaN entries (exit 3 in the run); 2 pi max|w| max t
# overflows, so the phases go NaN and read as p_flip 0; and the fitted
# distance is infinite, written as Infinity
FREQ_OVERFLOW = {"experiment": "phase_map", "options": {"freq_offset": grid(-1e308, 1e308, 5)}}
PHASE_OVERFLOW = {"experiment": "phase_map", "options": {"duration": grid(0, 1e306, 3)}}
FIT_OVERFLOW = {**DONOR, "options": {"points": [[-1e155, 300], [0, 60], [1e155, 5]]}}
# finite phases too large to keep a digit (the map writes p_flip 1 at every
# duration), a Rabi rate whose phase overflows (exit 3 in the fit), and a
# Ramsey width whose T2* underflows to 0 (a NaN envelope cell)
PHASE_ROUNDED_AWAY = {"experiment": "phase_map", "options": {"freq_offset": grid(1e300, 1e300, 1)}}
RABI_OVERFLOW = {"experiment": "rabi_spam", "options": {"rabi_mhz": 1e308}}
RAMSEY_OVERFLOW = {"experiment": "ramsey", "options": {"sigma_f_mhz": 1e308}}
# shot counts past int64, which numpy's samplers reject in the run (exit 3)
SHOTS_PAST_INT64 = [
    ({"experiment": "bell_tomography", "options": {"shots_per_axis": 2**63}}, "shots_per_axis"),
    ({"experiment": "rabi_spam", "options": {"shots_per_point": 2**63}}, "shots_per_point"),
    ({"experiment": "ramsey", "options": {"t2_star_us": 10, "n_shots": 2**63}}, "n_shots"),
]

# (experiment, mode, the sections it reads), written out here and not taken
# from config.py; a mode of None is the default GATE_MODEL, left unwritten
SECTIONS_READ = [
    ("phase_map", None, {"mode", "system", "noise"}),
    ("bell_tomography", None, {"mode", "noise"}),  # gate-model rotations read no parameter
    ("bell_tomography", "FULL_DYNAMICS", {"mode", "system", "noise"}),
    ("pirs_cz", None, {"mode", "system", "noise", "pirs"}),
    ("full_phase_sim", None, {"mode", "system", "noise"}),
    ("rabi_spam", None, {"noise"}),
    ("phase_reversal", None, {"noise"}),
    ("ramsey", None, set()),
    ("donor_distance_fit", None, set()),
]
# one value per section that differs from its default
SECTION_VALUES = {
    "mode": "FULL_DYNAMICS",
    "system": {"j": 14.0},
    "noise": {"p_up": 0.1},
    "pirs": {"shift_khz": 200.0},
}


class TestValidateConfig:
    def test_minimal_phase_map(self):
        cfg = validate_config({"experiment": "phase_map"})
        assert cfg.experiment == "phase_map"
        assert cfg.options["freq_offset"] == GridSpec(-10.0, 10.0, 101)

    def test_reference_couplings_config(self):
        cfg = validate_config(
            {
                "experiment": "bell_tomography",
                "mode": "FULL_DYNAMICS",
                "system": {"a1": 111.0, "a2": 113.0, "j": 12.0},
            }
        )
        assert cfg.system.a1 == 111.0
        assert cfg.system.j == 12.0

    def test_bad_p_up_rejected_with_path(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "phase_map", "noise": {"p_up": 1.2}})
        assert any(path == "$.noise.p_up" for path, _ in err.value.errors)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "phase_map", "extra": 1})
        assert any(path == "$.extra" for path, _ in err.value.errors)

    def test_unknown_option_key(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "ramsey", "options": {"bogus": 1, "t2_star_us": 10}})
        assert any("bogus" in path for path, _ in err.value.errors)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            validate_config({"experiment": "nope"})

    def test_ramsey_spin_option_rejected(self):
        # `spin` reached no code; it is an unknown key like any other
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "ramsey", "options": {"spin": "n1", "t2_star_us": 10}})
        assert [path for path, _ in err.value.errors] == ["$.options.spin"]

    @pytest.mark.parametrize("shift", [5000.1, 6000])
    def test_pirs_shift_above_ceiling_rejected(self, shift):
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "pirs_cz", "pirs": {"enabled": True, "shift_khz": shift}})
        assert [path for path, _ in err.value.errors] == ["$.pirs.shift_khz"]
        cfg = validate_config({"experiment": "pirs_cz", "pirs": {"enabled": True, "shift_khz": 5000}})
        assert cfg.pirs.shift_khz == 5000.0

    @pytest.mark.parametrize(
        "section, model", [("system", SystemParams), ("noise", NoiseModel), ("pirs", PIRSModel)]
    )
    def test_section_keys_are_model_fields(self, section, model):
        for f in fields(model):
            doc = {"experiment": "pirs_cz", section: {f.name: f.default}}
            assert getattr(getattr(validate_config(doc), section), f.name) == f.default
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "pirs_cz", section: {"bogus": 1}})
        assert [path for path, _ in err.value.errors] == [f"$.{section}.bogus"]

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"experiment": "phase_map", "output": {"format": "csv"}}, "$.output"),
            ({"experiment": "pirs_cz", "pirs": {"accumulated_khz": 100.0}}, "$.pirs.accumulated_khz"),
        ],
    )
    def test_ignored_inputs_are_unknown_keys(self, doc, path):
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert err.value.errors == [(path, "unknown key")]

    def test_model_error_lands_at_its_field(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "phase_map", "system": {"g1": 0}})
        assert err.value.errors == [("$.system.g1", "electron g-factors g1, g2 must be positive")]
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "pirs_cz", "pirs": {"time_constant_us": 0, "enabled": 1}})
        assert [path for path, _ in err.value.errors] == ["$.pirs.enabled", "$.pirs.time_constant_us"]

    def test_joint_rule_lands_at_the_section(self):
        # each g-factor is within 1% of the default, but not of the other
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "phase_map", "system": {"g1": 1.985, "g2": 2.012}})
        assert err.value.errors == [("$.system", "electron g-factors differ by more than 1%")]
        cfg = validate_config({"experiment": "phase_map", "system": {"g1": 2.5, "g2": 2.5}})
        assert (cfg.system.g1, cfg.system.g2) == (2.5, 2.5)

    def test_pirs_default_is_the_drift(self):
        cfg = validate_config({"experiment": "pirs_cz"})
        assert cfg.pirs == PIRSModel(shift_khz=120.0, time_constant_us=3.0, enabled=True)
        assert not validate_config({"experiment": "pirs_cz", "pirs": {"enabled": False}}).pirs.enabled

    @pytest.mark.parametrize("section", SECTION_VALUES)
    @pytest.mark.parametrize(
        "experiment, mode, read", SECTIONS_READ, ids=[e + ("-" + m if m else "") for e, m, _ in SECTIONS_READ]
    )
    def test_section_only_where_read(self, experiment, mode, read, section):
        value = SECTION_VALUES[section]
        doc = {"experiment": experiment, "options": VALID_OPTIONS.get(experiment, {}), section: value}
        if mode:
            doc["mode"] = mode
        if section in read:
            got = getattr(validate_config(doc), section)
            assert got == value if section == "mode" else {k: getattr(got, k) for k in value} == value
            return
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert [path for path, _ in err.value.errors] == [f"$.{section}"]

    def test_section_table_covers_every_experiment(self):
        assert [e for e, m, _ in SECTIONS_READ if not m] == list(EXPERIMENTS)

    @pytest.mark.parametrize(
        "experiment, section, value, path",
        [
            ("pirs_cz", "pirs", {"enabled": False, "shift_khz": 500}, "$.pirs.shift_khz"),
            ("pirs_cz", "pirs", {"time_constant_us": 2, "enabled": False}, "$.pirs.time_constant_us"),
            ("bell_tomography", "options", {"groups": 3}, "$.options.groups"),
            ("bell_tomography", "options", {"shots_per_axis": 0, "resamples": 9}, "$.options.resamples"),
        ],
    )
    def test_field_not_read_in_context_rejected(self, experiment, section, value, path):
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": experiment, section: value})
        assert [p for p, _ in err.value.errors] == [path]

    def test_field_read_in_context_accepted(self):
        pirs = validate_config({"experiment": "pirs_cz", "pirs": {"enabled": True, "shift_khz": 500}}).pirs
        assert (pirs.enabled, pirs.shift_khz) == (True, 500.0)
        options = {"shots_per_axis": 10, "groups": 3, "resamples": 9}
        got = validate_config({"experiment": "bell_tomography", "options": options}).options
        assert {k: got[k] for k in options} == options

    def test_donor_points_and_csv_rejected(self, tmp_path):
        csv = tmp_path / "points.csv"
        csv.write_text("distance_nm,j_mhz\n10,300\n14,60\n18,5\n")
        options = {**DONOR_POINTS, "points_csv": str(csv)}
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "donor_distance_fit", "options": options})
        assert err.value.errors == [("$.options", "give points or points_csv, not both")]

    @pytest.mark.parametrize("doc, key", SHOTS_PAST_INT64, ids=[doc["experiment"] for doc, _ in SHOTS_PAST_INT64])
    def test_shot_counts_bounded_by_int64(self, doc, key):
        largest = {**doc, "options": {**doc["options"], key: 2**63 - 1}}
        assert validate_config(largest).options[key] == 2**63 - 1
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert err.value.errors == [(f"$.options.{key}", "must be <= 9223372036854775807")]

    @pytest.mark.parametrize("count, ok", [(7, False), (8, True)])
    def test_rabi_spam_needs_eight_durations(self, count, ok):
        doc = {"experiment": "rabi_spam", "options": {"duration": {"start": 0, "stop": 50, "count": count}}}
        if ok:
            assert validate_config(doc).options["duration"].count == count
            return
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert [path for path, _ in err.value.errors] == ["$.options.duration.count"]

    @pytest.mark.parametrize(
        "points, path",
        [
            ([["a", 1.0], [2.0, 2.0], [3.0, 3.0]], "$.options.points[0]"),
            ([[1.0, 1.0], [None, 2.0], [3.0, 3.0]], "$.options.points[1]"),
            ([[1.0, 1.0], [2.0, float("nan")], [3.0, 3.0]], "$.options.points[1]"),
            ([[1.0, 1.0], [2.0, 0.0], [3.0, 1.0]], "$.options.points[1]"),
            ([[1.0, 1.0], [2.0, 0.5]], "$.options.points"),
            # one distance fits a meaningless line; one strength divides by a zero slope
            ([[1, 1], [1, 2], [1, 3]], "$.options.points"),
            ([[1, 2], [2, 2], [3, 2]], "$.options.points"),
            (FIT_OVERFLOW["options"]["points"], "$.options.points"),
        ],
    )
    def test_donor_points_rejected(self, points, path):
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "donor_distance_fit", "options": {"points": points}})
        assert [p for p, _ in err.value.errors] == [path]

    @pytest.mark.parametrize(
        "doc, path",
        [
            (FREQ_OVERFLOW, "$.options.freq_offset"),
            ({**FREQ_OVERFLOW, "mode": "FULL_DYNAMICS"}, "$.options.freq_offset"),
            # either end alone
            ({"experiment": "phase_map", "options": {"freq_offset": grid(-1e308, 0, 3)}}, "$.options.freq_offset"),
            ({"experiment": "phase_map", "options": {"freq_offset": grid(0, 1e308, 3)}}, "$.options.freq_offset"),
            (PHASE_OVERFLOW, "$.options.duration"),
            ({"experiment": "full_phase_sim", "options": {"duration": grid(1e306, 0, 3)}}, "$.options.duration"),
        ],
        ids=[
            "freq-offset",
            "freq-offset-full",
            "freq-offset-lower-end",
            "freq-offset-upper-end",
            "duration",
            "duration-full-descending",
        ],
    )
    def test_overflowing_phase_map_grid_rejected(self, doc, path):
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert [p for p, _ in err.value.errors] == [path]

    def test_phase_bound_is_a_micro_radian_of_rounding(self):
        assert MAX_PHASE_RAD == 1e-6 / np.finfo(float).eps

    @pytest.mark.parametrize("mode", MODES)
    def test_phase_map_durations_up_to_the_phase_bound(self, tmp_path, capsys, mode):
        # the largest phase 2 pi max|w| max t, with w the eigenvalues of the
        # drive Hamiltonian at the grid's end frequencies
        engine = engine_for(SystemParams())
        drive = engine.drive_hamiltonian(mode, "ESR", engine.rabi["ESR"])
        center = phase_map_center_frequency(engine)
        ends = [engine.free_hamiltonian(center + f) + drive for f in (-10, 10)]
        stop = MAX_PHASE_RAD / (2 * math.pi * max(np.abs(np.linalg.eigvalsh(h)).max() for h in ends))
        doc = {"experiment": "phase_map", "mode": mode, "options": {"freq_offset": grid(-10, 10, 3)}}
        under = {**doc, "options": {**doc["options"], "duration": grid(0, stop * (1 - 1e-9), 3)}}
        assert validate_config(under).options["duration"].stop == stop * (1 - 1e-9)
        over = {**doc, "options": {**doc["options"], "duration": grid(0, stop * (1 + 1e-9), 3)}}
        assert main(["validate", "--config", str(write_config(tmp_path, over))]) == 2
        assert "  $.options.duration: the largest phase 2 pi max|w| max t" in capsys.readouterr().err

    def test_rabi_durations_up_to_the_phase_bound(self, tmp_path, capsys):
        # the detuned branch turns at hypot(rabi, detuning): phase pi hypot t
        stop = MAX_PHASE_RAD / (math.pi * math.hypot(0.01, DETUNING_WHEN_UP_MHZ))
        under = {"experiment": "rabi_spam", "options": {"duration": grid(0, stop * (1 - 1e-9), 8)}}
        assert validate_config(under).options["duration"].stop == stop * (1 - 1e-9)
        over = {"experiment": "rabi_spam", "options": {"duration": grid(stop * (1 + 1e-9), 0, 8)}}
        assert main(["validate", "--config", str(write_config(tmp_path, over))]) == 2
        err = capsys.readouterr().err
        assert "  $.options.duration: the largest phase pi hypot(rabi_mhz, detuning_when_up_mhz)" in err

    @pytest.mark.parametrize(
        "options",
        [
            {"rabi_mhz": 1e308},
            {"detuning_when_up_mhz": 1e308},
            {"detuning_when_up_mhz": -1e308},
            {"duration": grid(0, 1e308, 8)},
            # pi hypot overflows and meets t = 0: a NaN phase
            {"rabi_mhz": 1e308, "duration": grid(0, 0, 8)},
        ],
        ids=["rabi", "detuning", "negative-detuning", "duration", "nan-phase"],
    )
    def test_rabi_phase_overflow_rejected(self, options):
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "rabi_spam", "options": options})
        assert [p for p, _ in err.value.errors] == ["$.options.duration"]
        assert "rabi_mhz" in err.value.errors[0][1] and "detuning_when_up_mhz" in err.value.errors[0][1]

    def test_invalid_rabi_rate_is_reported_alone(self):
        # a rate that fails its own check is not also read into the phase
        options = {"rabi_mhz": 0, "duration": grid(0, 1e308, 8)}
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "rabi_spam", "options": options})
        assert [p for p, _ in err.value.errors] == ["$.options.rabi_mhz"]

    @pytest.mark.parametrize("key", ["sigma_f_mhz", "t2_star_us"])
    @pytest.mark.parametrize("value", [2.9e307, 1e308])
    def test_ramsey_width_whose_image_underflows_rejected(self, key, value):
        # 2 pi value overflows, so T2* (or sigma) = sqrt(2) / (2 pi value) is 0
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "ramsey", "options": {key: value}})
        assert [p for p, _ in err.value.errors] == [f"$.options.{key}"]
        assert "not positive and finite" in err.value.errors[0][1]

    @pytest.mark.parametrize("key", ["t2_star_us"])
    def test_widest_ramsey_width_accepted(self, key):
        # its image sigma is subnormal, but positive
        assert validate_config({"experiment": "ramsey", "options": {key: 2.8e307}}).options[key] == 2.8e307

    def test_ramsey_width_must_be_positive(self):
        # a zero width would write an infinite T2* into ramsey_fit.json
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "ramsey", "options": {"sigma_f_mhz": 0}})
        assert [path for path, _ in err.value.errors] == ["$.options.sigma_f_mhz"]

    def test_noise_sigma_f_rejected(self):
        # no runner reads it: ramsey takes its spread as an option of its own
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "phase_map", "noise": {"sigma_f_mhz": 0.1}})
        assert [path for path, _ in err.value.errors] == ["$.noise.sigma_f_mhz"]
        assert "ramsey option sigma_f_mhz" in str(err.value)
        # zero or absent is accepted and hashes alike
        zero = validate_config({"experiment": "phase_map", "noise": {"sigma_f_mhz": 0}})
        absent = validate_config({"experiment": "phase_map"})
        assert zero.noise.sigma_f_mhz == 0.0
        assert _config_hash(zero) == _config_hash(absent)

    def test_ramsey_requires_one_width(self):
        with pytest.raises(ConfigError):
            validate_config({"experiment": "ramsey"})
        with pytest.raises(ConfigError):
            validate_config(
                {"experiment": "ramsey", "options": {"sigma_f_mhz": 0.1, "t2_star_us": 1.0}}
            )

    def test_donor_distance_needs_points(self):
        with pytest.raises(ConfigError):
            validate_config({"experiment": "donor_distance_fit"})
        with pytest.raises(ConfigError):
            validate_config(
                {
                    "experiment": "donor_distance_fit",
                    "options": {"points": [[1.0, 10.0], [2.0, -1.0], [3.0, 1.0]]},
                }
            )

    @pytest.mark.parametrize(
        "experiment, key",
        [("phase_map", "duration"), ("full_phase_sim", "duration"), ("rabi_spam", "duration")],
    )
    def test_negative_duration_grid_rejected(self, experiment, key):
        # eight points: the fewest that rabi_spam's loading-error fit takes
        doc = {"experiment": experiment, "options": {key: {"start": -1.0, "stop": 2.0, "count": 8}}}
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert [path for path, _ in err.value.errors] == [f"$.options.{key}.start"]

    def test_negative_wait_grid_rejected(self):
        doc = {
            "experiment": "ramsey",
            "options": {"t2_star_us": 10.0, "wait": {"start": 0.0, "stop": -5.0, "count": 3}},
        }
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert [path for path, _ in err.value.errors] == ["$.options.wait.stop"]

    @pytest.mark.parametrize("bound", ["start", "stop"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_grid_bound_rejected(self, bound, value):
        grid = {"start": -1.0, "stop": 1.0, "count": 3, bound: value}
        doc = {"experiment": "phase_map", "options": {"freq_offset": grid}}
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert [path for path, _ in err.value.errors] == [f"$.options.freq_offset.{bound}"]

    def test_non_finite_number_rejected(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "phase_map", "noise": {"p_up": float("nan")}})
        assert [path for path, _ in err.value.errors] == ["$.noise.p_up"]

    @pytest.mark.parametrize("center", [True, float("nan"), "middle"])
    def test_bad_center_rejected(self, center):
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "phase_map", "options": {"center_mhz": center}})
        assert [path for path, _ in err.value.errors] == ["$.options.center_mhz"]

    @pytest.mark.parametrize(
        "experiment, key", [("donor_distance_fit", "points_csv"), ("phase_reversal", "data_csv")]
    )
    @pytest.mark.parametrize("value", [5, ["a.csv"], "no-such-dir/points.csv"])
    def test_bad_csv_path_rejected(self, tmp_path, monkeypatch, experiment, key, value):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": experiment, "options": {key: value}})
        assert [path for path, _ in err.value.errors] == [f"$.options.{key}"]

    def test_existing_csv_path_accepted(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("distance_nm,j_mhz\n10,300\n\n14,60\n18,5\n")
        cfg = validate_config({"experiment": "donor_distance_fit", "options": {"points_csv": str(path)}})
        assert cfg.options["points_csv"] == str(path)
        # the runner reads these rows, not the file; blank lines are skipped
        assert cfg.options["points"] == [[10.0, 300.0], [14.0, 60.0], [18.0, 5.0]]

    def test_data_csv_rows_read_at_validation(self, tmp_path):
        # the columns are found by name, in any order
        rows = "".join(f"{200 + k},{k / 2},0.{k}\n" for k in range(12))
        (tmp_path / "trace.csv").write_text("n_shots,x_value,p_up_proportion\n" + rows)
        doc = {"experiment": "phase_reversal", "options": {"data_csv": str(tmp_path / "trace.csv")}}
        config = validate_config(doc)
        assert config.options["data_csv"] == [[k / 2, float(f"0.{k}"), 200.0 + k] for k in range(12)]
        # the run fits those rows, with the file gone
        (tmp_path / "trace.csv").unlink()
        run(config, tmp_path / "o")
        report = json.loads((tmp_path / "o" / "phase_reversal_fits.json").read_text())
        assert set(report["data_vs_simulation"]) == {"phase_offset_rad", "amplitude_ratio"}

    @pytest.mark.parametrize("seed", [-3, 1.5, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "phase_map", "seed": seed})
        assert [path for path, _ in err.value.errors] == ["$.seed"]
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "phase_map", "seed": 1}, seed=seed)
        assert [path for path, _ in err.value.errors] == ["$.seed"]

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            validate_config("/nonexistent/config.json")

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            validate_config(path)


class TestCli:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(EXPERIMENTS)

    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "phase_map"})
        assert main(["validate", "--config", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_failure_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "phase_map", "noise": {"p_up": 2}})
        assert main(["validate", "--config", str(path)]) == 2
        assert "$.noise.p_up" in capsys.readouterr().err

    def test_pirs_shift_above_ceiling_exit_code(self, tmp_path, capsys):
        doc = {"experiment": "pirs_cz", "pirs": {"enabled": True, "shift_khz": 6000}}
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "$.pirs.shift_khz: shift amplitude must be at most 5000.0 kHz" in err

    def test_zero_g_factor_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "phase_map", "system": {"g1": 0}})
        assert main(["validate", "--config", str(path)]) == 2
        assert "$.system.g1: electron g-factors g1, g2 must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, mode",
        [("phase_map", "GATE_MODEL"), ("pirs_cz", "GATE_MODEL"), ("bell_tomography", "FULL_DYNAMICS")],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_degenerate_exchange_exit_code(self, tmp_path, capsys, experiment, mode, command):
        # at j = 1e20 MHz the engine cannot tell two levels apart; this used
        # to pass validation and fail only in the run (exit 3)
        doc = {"experiment": experiment, "mode": mode, "system": {"j": 1e20}}
        args = [command, "--config", str(write_config(tmp_path, doc))]
        if command == "run":
            args += ["--out", str(tmp_path / "o")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "$.system: no spin engine for these parameters: exchange j = 1e+20 MHz" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value encountered")
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_overflowing_hamiltonian_exit_code(self, tmp_path, capsys, command):
        # b0 = 1e305 overflows the Hamiltonian into NaN entries;
        # this used to pass validation and fail in the run's eigh (exit 3)
        doc = {"experiment": "phase_map", "system": {"b0": 1e305}}
        args = [command, "--config", str(write_config(tmp_path, doc))]
        if command == "run":
            args += ["--out", str(tmp_path / "o")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "$.system: no spin engine for these parameters: matrix is not Hermitian" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [("mu_b_over_h", 13996.245), ("gamma_n", 17.23)])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_zeeman_constants_are_not_inputs(self, tmp_path, capsys, command, key, value):
        # mu_B / h and gamma_n are constants: b0, g1 and g2 reach every
        # Hamiltonian they could, so a document that sets one names an unknown key
        doc = {"experiment": "phase_map", "system": {key: value}}
        args = [command, "--config", str(write_config(tmp_path, doc))]
        if command == "run":
            args += ["--out", str(tmp_path / "o")]
        assert main(args) == 2
        assert f"  $.system.{key}: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "doc, data, path",
        [
            (RABI_FOUR_POINTS, None, "$.options"),
            ({**DONOR, "options": {"points": [["a", 1], [2, 2], [3, 3]]}}, None, "$.options"),
            ({**DONOR, "options": {"points": [[1, 1], [1, 2], [1, 3]]}}, None, "$.options"),
            # data files: each passed validation and failed only in the run
            (DONOR, "distance_nm,j_mhz\n10,300\n14,60\n", "$.options.points_csv"),
            (DONOR, "distance_nm,j_mhz\n10,300\n", "$.options.points_csv"),
            (DONOR, "distance_nm,j_mhz\n10,300\n14,sixty\n18,5\n", "$.options.points_csv"),
            (DONOR, "distance_nm,j_mhz\n10,300\n14,-60\n18,5\n", "$.options.points_csv"),
            (REVERSAL, "x_value,p_up_proportion,n_shots\n0.0,0.5,200\n", "$.options.data_csv"),
            (REVERSAL, "phi,p_up_proportion,n_shots\n" + "0.5,0.5,200\n" * 12, "$.options.data_csv"),
            (REVERSAL, "x_value,p_up_proportion,n_shots\n" + "0.5,nan,200\n" * 12, "$.options.data_csv"),
            (REVERSAL, "x_value,p_up_proportion\n" + "0.5,0.5\n" * 12, "$.options.data_csv"),
            (REVERSAL, "x_value,p_up_proportion,n_shots\n" + "0.5,0.5,200\n" * 11, "$.options.data_csv"),
            (REVERSAL, "x_value,p_up_proportion,n_shots\n" + "0.5,0.5\n" * 12, "$.options.data_csv"),
            (REVERSAL, "", "$.options.data_csv"),
            # values no measured trace holds: the fits overflowed to Infinity,
            # or ran to exit 0 on proportions outside [0, 1]
            (REVERSAL, OVERFLOWING_TRACE_CSV, "$.options.data_csv: row 1"),
            (REVERSAL, OUT_OF_RANGE_TRACE_CSV, "$.options.data_csv: row 1"),
            # a simulated fit too flat to compare the data with
            ({**REVERSAL, "noise": {"p_up": 0.5}}, TRACE_CSV, "$.noise.p_up"),
            ({**REVERSAL, "noise": {"p_up": 0.499999}}, TRACE_CSV, "$.noise.p_up"),
            # a data trace too flat to fit a phase to
            ({**REVERSAL, "noise": {"p_up": 0.14}}, FLAT_TRACE_CSV, "$.options.data_csv"),
            # runs that overflowed: exit 3, or NaN and Infinity written as numbers
            (FREQ_OVERFLOW, None, "$.options.freq_offset"),
            (PHASE_OVERFLOW, None, "$.options.duration"),
            (FIT_OVERFLOW, None, "$.options.points"),
            (DONOR, "distance_nm,j_mhz\n-1e155,300\n0,60\n1e155,5\n", "$.options.points_csv"),
            (PHASE_ROUNDED_AWAY, None, "$.options.duration"),
            (RABI_OVERFLOW, None, "$.options.duration"),
            (RAMSEY_OVERFLOW, None, "$.options.sigma_f_mhz"),
            *[(doc, None, f"$.options.{key}") for doc, key in SHOTS_PAST_INT64],
        ],
        ids=[
            "rabi-four-points",
            "donor-text-distance",
            "donor-one-distance",
            "points-two-rows",
            "points-one-row",
            "points-text-cell",
            "points-negative-j",
            "data-one-row",
            "data-no-x-value",
            "data-non-finite",
            "data-no-n-shots",
            "data-eleven-rows",
            "data-short-rows",
            "data-empty",
            "data-overflowing-proportions",
            "data-out-of-range-proportions",
            "data-vs-flat-simulation",
            "data-vs-near-flat-simulation",
            "flat-data-vs-simulation",
            "phase-map-frequency-overflow",
            "phase-map-phase-overflow",
            "donor-fit-overflow",
            "points-fit-overflow",
            "phase-map-phase-rounded-away",
            "rabi-phase-overflow",
            "ramsey-width-overflow",
            "bell-shots-past-int64",
            "rabi-shots-past-int64",
            "ramsey-shots-past-int64",
        ],
    )
    def test_runtime_failures_are_config_errors(self, tmp_path, capsys, doc, data, path):
        # each used to fail only in the run (exit 3) or fit a meaningless line
        if data is not None:
            (tmp_path / "data.csv").write_text(data)
            doc = {**doc, "options": {DATA_KEY[doc["experiment"]]: str(tmp_path / "data.csv")}}
        config = write_config(tmp_path, doc)
        assert main(["validate", "--config", str(config)]) == 2
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"  {path}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "experiment, extra, path",
        [
            ("phase_reversal", {"system": {"a2": 100}}, "$.system"),
            ("ramsey", {"system": {"j": 20}}, "$.system"),
            ("ramsey", {"noise": {"p_up": 0.3}}, "$.noise"),
            ("donor_distance_fit", {"system": {"j": 20}}, "$.system"),
            ("donor_distance_fit", {"noise": {"p_up": 0.3}}, "$.noise"),
            ("rabi_spam", {"system": {"a2": 90}}, "$.system"),
            ("bell_tomography", {"system": {"j": 20}}, "$.system"),
            ("pirs_cz", {"pirs": {"enabled": False, "shift_khz": 500}}, "$.pirs.shift_khz"),
            ("bell_tomography", {"options": {"resamples": 100}}, "$.options.resamples"),
            ("donor_distance_fit", {"options": {**DONOR_POINTS, "points_csv": "p.csv"}}, "$.options"),
        ],
    )
    def test_unread_input_exit_code(self, tmp_path, monkeypatch, capsys, experiment, extra, path):
        # each of these was accepted and left every output unchanged
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.csv").write_text("distance_nm,j_mhz\n10,300\n14,60\n18,5\n")
        doc = {"experiment": experiment, "options": VALID_OPTIONS.get(experiment, {}), **extra}
        assert main(["validate", "--config", str(write_config(tmp_path, doc))]) == 2
        assert f"  {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("t_max", [60.0, 3.0])
    @pytest.mark.parametrize("key", ["sigma_f_mhz", "t2_star_us"])
    @pytest.mark.parametrize("scale", [1 - 1e-9, 1 + 1e-9])
    def test_ramsey_runs_at_widths_past_the_old_phase_bound(self, tmp_path, key, t_max, scale):
        # a width on either side of the bound pi 40 sigma max t <= MAX_PHASE_RAD
        # that the per-shot detuning draws needed
        sigma = MAX_PHASE_RAD / (math.pi * 40 * t_max) * scale
        value = sigma if key == "sigma_f_mhz" else t2_star_from_sigma(sigma)
        self.check_ramsey_runs(tmp_path, {key: value, "wait": grid(0.0, t_max, 3)})

    @pytest.mark.parametrize(
        "options",
        [
            {"sigma_f_mhz": 1e6},
            {"sigma_f_mhz": 1e307},
            {"sigma_f_mhz": 1e307, "wait": grid(0, 0, 1)},
            {"sigma_f_mhz": 1e307, "wait": grid(5, 0, 3)},
            {"t2_star_us": 10, "n_shots": 2**63 - 1},
        ],
        ids=["1e6", "1e307", "1e307-zero-wait", "1e307-descending", "int64-shots"],
    )
    def test_ramsey_runs_where_shots_were_drawn_one_by_one(self, tmp_path, options):
        # the spreads used to fail validation, their per-shot phase pi delta t
        # beyond the bound or overflowing; the shot count was an array size
        self.check_ramsey_runs(tmp_path, options)

    @staticmethod
    def check_ramsey_runs(tmp_path, options):
        config = write_config(tmp_path, {"experiment": "ramsey", "options": options})
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        rows = np.loadtxt(tmp_path / "o" / "ramsey.csv", delimiter=",", skiprows=1, ndmin=2)
        p_up, envelope = rows[:, 1], rows[:, 2]
        assert np.all((0 <= p_up) & (p_up <= 1))
        assert np.all(np.isfinite(envelope))

    def test_noise_sigma_f_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "phase_map", "noise": {"sigma_f_mhz": 0.1}})
        assert main(["validate", "--config", str(path)]) == 2
        assert "$.noise.sigma_f_mhz" in capsys.readouterr().err

    def test_run_produces_manifest(self, tmp_path, capsys):
        doc = {
            "experiment": "donor_distance_fit",
            "options": {
                "points": [[10.0, 300.0], [14.0, 60.0], [18.0, 5.0]],
                "target_j_mhz": 12.0,
            },
        }
        path = write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert "donor_distance.json" in manifest["outputs"]
        assert manifest["seed"] == 0

    @pytest.mark.filterwarnings("ignore:rabi")
    @pytest.mark.parametrize(
        "mode, system, turns",
        [("GATE_MODEL", {}, 1000), ("FULL_DYNAMICS", {}, 1000), ("FULL_DYNAMICS", {"j": 3e4}, 1)],
        ids=["gate-1000-turns", "full-1000-turns", "full-one-turn-at-j-3e4"],
    )
    def test_long_drifting_curves_run(self, tmp_path, mode, system, turns):
        # slicing the drift to each pulse's end added rounding until
        # `require_unitary` stopped full dynamics (exit 3): after 42,317
        # slices at 1,000 turns, and after 15,152 at one turn at j = 3e4
        doc = {
            "experiment": "pirs_cz",
            "mode": mode,
            "system": system,
            "options": {"max_turns": turns, "points_per_turn": 2},
        }
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out_dir)]) == 0
        assert json.loads((out_dir / "manifest.json").read_text())["wall_time_s"] < 1.0
        rows = np.loadtxt(out_dir / "pirs_cz.csv", delimiter=",", skiprows=1)
        assert rows.shape == (2 * turns + 1, 3) and np.all((0 <= rows[:, 1:]) & (rows[:, 1:] <= 1))

    def test_run_seed_override(self, tmp_path):
        doc = {
            "experiment": "ramsey",
            "options": {
                "t2_star_us": 10.0,
                "wait": {"start": 0.0, "stop": 10.0, "count": 3},
                "n_shots": 50,
            },
        }
        path = write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir), "--seed", "9"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_negative_seed_override_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "phase_map"})
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir), "--seed", "-3"]) == 2
        assert "$.seed" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("points_csv", [5, "/nonexistent.csv"])
    def test_bad_points_csv_is_config_error(self, tmp_path, capsys, points_csv):
        doc = {"experiment": "donor_distance_fit", "options": {"points_csv": points_csv}}
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "$.options.points_csv" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # a valid config whose output directory cannot be made: a file is in the way
        path = write_config(tmp_path, {"experiment": "donor_distance_fit", "options": DONOR_POINTS})
        (tmp_path / "o").write_text("")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "runtime error" in capsys.readouterr().err
