import json

import pytest

from donorpair.cli import main
from donorpair.config import ConfigError, EXPERIMENTS, GridSpec, validate_config


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestValidateConfig:
    def test_minimal_phase_map(self):
        cfg = validate_config({"experiment": "phase_map"})
        assert cfg.experiment == "phase_map"
        assert cfg.options["freq_offset"] == GridSpec(-10.0, 10.0, 101)

    def test_reference_couplings_config(self):
        cfg = validate_config(
            {
                "experiment": "bell_tomography",
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
        doc = {"experiment": experiment, "options": {key: {"start": -1.0, "stop": 2.0, "count": 3}}}
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

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        doc = {
            "experiment": "donor_distance_fit",
            "options": {"points_csv": "/nonexistent.csv", "target_j_mhz": 12.0},
        }
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "runtime error" in capsys.readouterr().err
