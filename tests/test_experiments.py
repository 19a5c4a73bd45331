import json
import math

import numpy as np
import pytest

from donorpair.config import validate_config
from donorpair.experiments import csv_bytes, donor_distance_fit, fmt, run


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestEmission:
    def test_small_grid_row_count_and_round_trip(self, tmp_path):
        cfg = validate_config(
            {
                "experiment": "phase_map",
                "options": {
                    "freq_offset": {"start": -1.0, "stop": 1.0, "count": 2},
                    "duration": {"start": 0.0, "stop": 2.0, "count": 2},
                },
            }
        )
        run(cfg, tmp_path)
        header, rows = read_csv(tmp_path / "phase_map.csv")
        assert header == ["freq_mhz", "duration_us", "p_flip"]
        assert len(rows) == 4
        # reparsed values match a fresh in-memory computation
        from donorpair.pulses import engine_for, phase_map, phase_map_center_frequency

        center = phase_map_center_frequency(engine_for(cfg.system))
        res = phase_map(cfg.system, center + np.array([-1.0, 1.0]), [0.0, 2.0])
        for row in rows:
            i = 0 if float(row[0]) < center else 1
            j = 0 if float(row[1]) == 0.0 else 1
            assert float(row[2]) == pytest.approx(res.p_flip[i, j], abs=1e-12)

    def test_files_use_lf_endings(self, tmp_path):
        cfg = validate_config(
            {
                "experiment": "ramsey",
                "options": {
                    "t2_star_us": 10.0,
                    "wait": {"start": 0.0, "stop": 5.0, "count": 3},
                    "n_shots": 20,
                },
            }
        )
        run(cfg, tmp_path)
        blob = (tmp_path / "ramsey.csv").read_bytes()
        assert b"\r" not in blob

    def test_stable_float_format(self):
        assert fmt(0.1 + 0.2) == fmt(0.30000000000000004)
        assert fmt(1.0) == "1"

    def test_csv_matches_builtin_float_formatting(self):
        def old_csv(header, rows):
            cells = (
                ",".join(
                    format(float(v), ".12g") if isinstance(v, (int, float, np.floating)) else str(v)
                    for v in row
                )
                for row in rows
            )
            return ("\n".join([",".join(header), *cells]) + "\n").encode()

        rng = np.random.default_rng(7)
        values = [
            *rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500),
            0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf, math.nan,
            1e16, 123456789012345678, 7, -3, True, np.float32(0.1), np.float64(1 / 3),
        ]
        rows = [(v, "00", np.int64(5), np.float64(v)) for v in values]
        assert csv_bytes(("a", "b", "c", "d"), rows) == old_csv(("a", "b", "c", "d"), rows)


class TestDeterminism:
    def make_cfg(self, shots=60):
        return validate_config(
            {
                "experiment": "bell_tomography",
                "seed": 5,
                "noise": {"p_up": 0.14},
                "options": {"shots_per_axis": shots, "groups": 3, "resamples": 120},
            }
        )

    def test_rerun_checksums_identical(self, tmp_path):
        m1 = run(self.make_cfg(), tmp_path / "a")
        m2 = run(self.make_cfg(), tmp_path / "b")
        assert m1.outputs == m2.outputs
        assert m1.config_sha256 == m2.config_sha256

    def test_different_seed_changes_outputs(self, tmp_path):
        cfg1 = self.make_cfg()
        cfg2 = self.make_cfg()
        cfg2.seed = 6
        m1 = run(cfg1, tmp_path / "a")
        m2 = run(cfg2, tmp_path / "b")
        assert m1.outputs != m2.outputs

    def test_phase_map_rerun_checksums_identical(self, tmp_path):
        doc = {
            "experiment": "phase_map",
            "noise": {"p_up": 0.14},
            "options": {
                "freq_offset": {"start": -5.0, "stop": 5.0, "count": 8},
                "duration": {"start": 0.0, "stop": 3.0, "count": 5},
                "observables": True,
            },
        }
        m1 = run(validate_config(doc), tmp_path / "a")
        m2 = run(validate_config(doc), tmp_path / "b")
        assert set(m1.outputs) == {"phase_map.csv", "spin_observables.csv"}
        assert m1.outputs == m2.outputs

    def test_manifest_covers_every_output(self, tmp_path):
        cfg = self.make_cfg(shots=0)
        manifest = run(cfg, tmp_path)
        files = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
        assert files == set(manifest.outputs)


class TestBellReport:
    def test_ideal_fidelity_is_unity(self, tmp_path):
        cfg = validate_config({"experiment": "bell_tomography"})
        run(cfg, tmp_path)
        doc = json.loads((tmp_path / "bell_density.json").read_text())
        assert doc["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert doc["concurrence"] == pytest.approx(1.0, abs=1e-9)

    def test_small_loading_error_fidelity(self, tmp_path):
        cfg = validate_config(
            {"experiment": "bell_tomography", "noise": {"p_up": 0.001}}
        )
        run(cfg, tmp_path)
        doc = json.loads((tmp_path / "bell_density.json").read_text())
        assert doc["fidelity"] == pytest.approx(0.997, abs=0.002)


class TestDonorDistance:
    def test_exact_exponential(self):
        d = np.array([5.0, 10.0, 15.0, 20.0])
        pts = np.stack([d, np.exp(-d)], axis=1)
        target = math.exp(-12.5)
        distance, slope, _ = donor_distance_fit(pts, target)
        assert distance == pytest.approx(12.5, abs=1e-9)
        assert slope == pytest.approx(-1.0, abs=1e-12)

    def test_noisy_fit_stable(self):
        rng = np.random.default_rng(3)
        d = np.linspace(8, 24, 12)
        j = 1e4 * np.exp(-0.75 * d) * np.exp(rng.normal(0, 0.05, size=d.size))
        distance, slope, _ = donor_distance_fit(np.stack([d, j], axis=1), 12.0)
        clean, _, _ = donor_distance_fit(
            np.stack([d, 1e4 * np.exp(-0.75 * d)], axis=1), 12.0
        )
        assert distance == pytest.approx(clean, abs=0.5)

    def test_rejects_nonpositive_exchange(self):
        with pytest.raises(ValueError):
            donor_distance_fit([[1.0, 1.0], [2.0, 0.0], [3.0, 1.0]], 1.0)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            donor_distance_fit([[1.0, 1.0], [2.0, 0.5]], 1.0)


class TestPirsExperiment:
    def test_curves_emitted_and_drift_deviates(self, tmp_path):
        cfg = validate_config(
            {
                "experiment": "pirs_cz",
                "pirs": {"shift_khz": 120.0, "time_constant_us": 3.0, "enabled": True},
                "options": {"max_turns": 6, "points_per_turn": 4},
            }
        )
        run(cfg, tmp_path)
        header, rows = read_csv(tmp_path / "pirs_cz.csv")
        assert header == ["duration_us", "p_flip_ideal", "p_flip_drift"]
        ideal_end = float(rows[-1][1])
        drift_end = float(rows[-1][2])
        assert abs(ideal_end - drift_end) > 0.1
