import json
import math
import warnings

import numpy as np
import pytest

from donorpair import experiments
from donorpair.config import EXPERIMENTS, validate_config
from donorpair.experiments import csv_bytes, donor_distance_fit, fmt, run
from donorpair.pulses import PhaseMapResult


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


def reference_grid_csv(name, res, columns):
    """The float-table grid writer: meshgrid, one row list, csv_bytes."""
    freqs, durs = np.meshgrid(res.freqs_mhz, res.durations_us, indexing="ij")
    table = np.stack([freqs, durs, *columns.values()], axis=-1)
    header = ["freq_mhz", "duration_us", *columns]
    return (name, csv_bytes(header, table.reshape(-1, len(header)).tolist()))


SPECIAL_VALUES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308, 1e16, -1e16,
]


class TestGridCsv:
    @pytest.mark.parametrize("n_freq, n_dur", [(3, 5), (5, 3), (1, 7), (7, 1), (1, 1)])
    def test_matches_float_table_writer(self, n_freq, n_dur):
        rng = np.random.default_rng(n_freq * 10 + n_dur)
        freqs = 27900.0 + rng.standard_normal(n_freq)
        freqs[0] = -0.0
        durs = np.linspace(0.0, 1e16, n_dur)

        def column():
            v = rng.standard_normal(n_freq * n_dur) * 10.0 ** rng.integers(-300, 300, n_freq * n_dur)
            k = min(v.size, len(SPECIAL_VALUES))
            v[rng.permutation(v.size)[:k]] = rng.permutation(SPECIAL_VALUES)[:k]
            return v.reshape(n_freq, n_dur)

        res = PhaseMapResult(freqs, durs, column(), {})
        for columns in ({"p_flip": res.p_flip}, {"a": column(), "b": column(), "c": column()}):
            got = experiments._grid_csv("g.csv", res, columns)
            assert got == reference_grid_csv("g.csv", res, columns)

    def test_special_values_on_axes_and_cells(self):
        values = np.array(SPECIAL_VALUES).reshape(3, 3)
        res = PhaseMapResult(np.array(SPECIAL_VALUES[:3]), np.array(SPECIAL_VALUES[3:6]), values, {})
        got = experiments._grid_csv("g.csv", res, {"v": values, "w": values.T})
        assert got == reference_grid_csv("g.csv", res, {"v": values, "w": values.T})

    def test_every_number_goes_through_fmt(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "fmt", lambda x: "NUM")
        cfg = validate_config(
            {
                "experiment": "full_phase_sim",
                "options": {
                    "freq_offset": {"start": -1.0, "stop": 1.0, "count": 3},
                    "duration": {"start": 0.0, "stop": 2.0, "count": 2},
                },
            }
        )
        run(cfg, tmp_path)
        for name, n_cols in (("phase_map.csv", 3), ("spin_observables.csv", 14)):
            header, rows = read_csv(tmp_path / name)
            assert header[:2] == ["freq_mhz", "duration_us"] and len(header) == n_cols
            assert rows == [["NUM"] * n_cols] * 6


def _raise_on_constant(name):
    raise ValueError(f"non-JSON constant {name}")


SMALL_CONFIGS = {
    "phase_map": {
        "freq_offset": {"start": -1.0, "stop": 1.0, "count": 3},
        "duration": {"start": 0.0, "stop": 2.0, "count": 2},
    },
    "full_phase_sim": {
        "freq_offset": {"start": -1.0, "stop": 1.0, "count": 2},
        "duration": {"start": 0.0, "stop": 2.0, "count": 2},
    },
    "bell_tomography": {},
    "pirs_cz": {"max_turns": 1, "points_per_turn": 2},
    "rabi_spam": {"duration": {"start": 0.0, "stop": 100.0, "count": 24}},
    "phase_reversal": {"points": 12},
    "ramsey": {"t2_star_us": 10.0, "wait": {"start": 0.0, "stop": 5.0, "count": 3}, "n_shots": 20},
    "donor_distance_fit": {"points": [[5.0, 100.0], [10.0, 10.0], [15.0, 1.0]]},
}


class TestJsonOutputs:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_every_json_output_is_strict_json(self, experiment, tmp_path):
        doc = {"experiment": experiment, "options": SMALL_CONFIGS[experiment]}
        if experiment not in ("ramsey", "donor_distance_fit"):  # the two that read no noise
            doc["noise"] = {"p_up": 0.14}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # pirs_cz's selectivity warning
            manifest = run(validate_config(doc), tmp_path)
        names = [n for n in manifest.outputs if n.endswith(".json")] + ["manifest.json"]
        for name in names:
            json.loads((tmp_path / name).read_text(), parse_constant=_raise_on_constant)

    def test_uncomputed_bell_interval_is_null(self, tmp_path):
        run(validate_config({"experiment": "bell_tomography", "noise": {"p_up": 0.14}}), tmp_path)
        doc = json.loads((tmp_path / "bell_density.json").read_text())
        assert doc["ci"] == doc["ci_concurrence"] == {"lo": None, "hi": None}


class TestDeterminism:
    def make_cfg(self, shots=60):
        # an exact table (no shots) runs no bootstrap and takes no bootstrap sizes
        sizes = {"groups": 3, "resamples": 120} if shots else {}
        return validate_config(
            {
                "experiment": "bell_tomography",
                "seed": 5,
                "noise": {"p_up": 0.14},
                "options": {"shots_per_axis": shots, **sizes},
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

    def test_rerun_writes_new_files(self, tmp_path):
        # a rerun into the same directory replaces each output with a new
        # file instead of truncating the old one in place
        cfg2 = self.make_cfg()
        cfg2.seed = 6
        m1 = run(self.make_cfg(), tmp_path / "out")
        names = [*m1.outputs, "manifest.json"]
        old = {name: (tmp_path / "out" / name).read_bytes() for name in names}
        for name in names:
            (tmp_path / f"old-{name}").hardlink_to(tmp_path / "out" / name)
        m2 = run(cfg2, tmp_path / "out")
        assert m2.outputs != m1.outputs
        for name in names:
            assert (tmp_path / f"old-{name}").read_bytes() == old[name]
            assert (tmp_path / "out" / name).stat().st_nlink == 1

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

    def bell_report(self, tmp_path, mode, spam_spins):
        cfg = validate_config(
            {
                "experiment": "bell_tomography",
                "mode": mode,
                "noise": {"p_up": 0.14},
                "options": {"spam_spins": spam_spins},
            }
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # full dynamics' selectivity warning
            run(cfg, tmp_path / spam_spins)
        return json.loads((tmp_path / spam_spins / "bell_density.json").read_text())

    @pytest.mark.parametrize(
        "mode, fid, conc",
        [("GATE_MODEL", 0.856293, 0.744196), ("FULL_DYNAMICS", 0.684845, 0.532840)],
    )
    def test_electron_only_loading(self, tmp_path, mode, fid, conc):
        # loading error on the electrons alone: the nuclei start down, so
        # the Bell state is better than with all four spins loaded
        doc = self.bell_report(tmp_path, mode, "electrons")
        assert doc["fidelity"] == pytest.approx(fid, abs=1e-6)
        assert doc["concurrence"] == pytest.approx(conc, abs=1e-6)
        assert doc["fidelity"] > self.bell_report(tmp_path, mode, "all")["fidelity"]


class TestRabiSpam:
    def test_noiseless_trace_recovers_p_up(self, tmp_path):
        cfg = validate_config({"experiment": "rabi_spam", "noise": {"p_up": 0.14}})
        manifest = run(cfg, tmp_path)
        assert set(manifest.outputs) == {"rabi_trace.csv", "rabi_fit.json"}
        doc = json.loads((tmp_path / "rabi_fit.json").read_text())
        assert doc["p_up_fit"] == pytest.approx(0.14, abs=1e-6)
        assert doc["residual_rms"] < 1e-8


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

    @pytest.mark.parametrize(
        "points", [[[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]], [[1.0, 2.0], [2.0, 2.0], [3.0, 2.0]]]
    )
    def test_rejects_points_without_a_slope(self, points):
        # one distance fits a meaningless line; one strength divides by a zero slope
        with pytest.raises(ValueError, match="must not all be equal"):
            donor_distance_fit(points, 1.0)


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

    def run_pirs(self, tmp_path, name, pirs=None):
        doc = {"experiment": "pirs_cz", "options": {"max_turns": 2, "points_per_turn": 4}}
        if pirs is not None:
            doc["pirs"] = pirs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            run(validate_config(doc), tmp_path / name)
        return read_csv(tmp_path / name / "pirs_cz.csv")[1]

    def test_default_section_is_the_stated_drift(self, tmp_path):
        stated = {"shift_khz": 120.0, "time_constant_us": 3.0, "enabled": True}
        assert self.run_pirs(tmp_path, "default") == self.run_pirs(tmp_path, "stated", stated)

    def test_disabled_drift_is_no_drift(self, tmp_path):
        rows = self.run_pirs(tmp_path, "off", {"enabled": False})
        assert all(ideal == drift for _, ideal, drift in rows)
        assert rows != self.run_pirs(tmp_path, "default")
