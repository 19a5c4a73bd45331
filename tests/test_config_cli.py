import json
from dataclasses import fields

import pytest

from donorpair.cli import main
from donorpair.config import ConfigError, EXPERIMENTS, GridSpec, validate_config
from donorpair.experiments import _config_hash
from donorpair.pulses import NoiseModel, PIRSModel
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
            ([[1, 1], [1, 2], [1, 3]], "$.options.points"),
            ([[1, 2], [2, 2], [3, 2]], "$.options.points"),
        ],
    )
    def test_donor_points_rejected(self, points, path):
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "donor_distance_fit", "options": {"points": points}})
        assert [p for p, _ in err.value.errors] == [path]

    def test_ramsey_width_must_be_positive(self):
        # a zero width would write an infinite T2* into ramsey_fit.json
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "ramsey", "options": {"sigma_f_mhz": 0}})
        assert [path for path, _ in err.value.errors] == ["$.options.sigma_f_mhz"]

    def test_noise_sigma_f_rejected(self):
        # every runner but ramsey works at probability level and never reads it
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
        path.write_text("distance_nm,j_mhz\n10,300\n14,60\n18,5\n")
        cfg = validate_config({"experiment": "donor_distance_fit", "options": {"points_csv": str(path)}})
        assert cfg.options["points_csv"] == str(path)

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
        # mu_b_over_h = 1.7e308 overflows the Hamiltonian into NaN entries;
        # this used to pass validation and fail in the run's eigh (exit 3)
        doc = {"experiment": "phase_map", "system": {"mu_b_over_h": 1.7e308}}
        args = [command, "--config", str(write_config(tmp_path, doc))]
        if command == "run":
            args += ["--out", str(tmp_path / "o")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "$.system: no spin engine for these parameters: matrix is not Hermitian" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "doc",
        [
            {"experiment": "rabi_spam", "options": {"duration": {"start": 0, "stop": 50, "count": 4}}},
            {"experiment": "donor_distance_fit", "options": {"points": [["a", 1], [2, 2], [3, 3]]}},
            {"experiment": "donor_distance_fit", "options": {"points": [[1, 1], [1, 2], [1, 3]]}},
        ],
        ids=["rabi-four-points", "donor-text-distance", "donor-one-distance"],
    )
    def test_runtime_failures_are_config_errors(self, tmp_path, capsys, doc):
        # each used to fail only in the run (exit 3) or fit a meaningless line
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "$.options" in capsys.readouterr().err
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
        # the file exists and parses, but two points are too few to fit
        csv = tmp_path / "points.csv"
        csv.write_text("distance_nm,j_mhz\n10,300\n14,60\n")
        doc = {
            "experiment": "donor_distance_fit",
            "options": {"points_csv": str(csv), "target_j_mhz": 12.0},
        }
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "runtime error" in capsys.readouterr().err
