"""Tests for dataset generation, synthetic scaling and database loading."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    Dataset,
    dataset_table_name,
    generate_classroom_dataset,
    generate_dataset_for,
    generate_hp0_dataset,
    generate_hp1_dataset,
    load_dataset,
    scale_dataset,
    synthetic_family,
)
from repro.data.nist import _thermostat_profile
from repro.data.synthetic import deltas_of
from repro.errors import ReproError
from repro.estimation.metrics import relative_l2_dissimilarity
from repro.sqldb import Database


class TestDatasetContainer:
    def test_validation(self):
        with pytest.raises(ReproError):
            Dataset(name="bad", time=[0.0], series={})
        with pytest.raises(ReproError):
            Dataset(name="bad", time=[0.0, 1.0], series={"x": [1.0]})

    def test_rows_and_dicts(self):
        ds = Dataset(name="d", time=[0.0, 1.0], series={"x": [1.0, 2.0], "u": [0.1, 0.2]})
        rows = list(ds.rows())
        assert rows[0] == [0.0, 1.0, 0.1]
        assert ds.to_dicts()[1] == {"time": 1.0, "x": 2.0, "u": 0.2}

    def test_window_and_with_series(self):
        ds = Dataset(name="d", time=np.arange(10.0), series={"x": np.arange(10.0)})
        windowed = ds.window(2.0, 6.0)
        assert len(windowed) == 5
        extended = ds.with_series({"y": np.ones(10)})
        assert "y" in extended.columns and "y" not in ds.columns

    def test_measurement_set_conversion(self):
        ds = Dataset(name="d", time=[0.0, 1.0], series={"x": [1.0, 2.0]})
        ms = ds.to_measurement_set()
        assert list(ms.series["x"]) == [1.0, 2.0]


class TestGenerators:
    def test_hp1_dataset_shape_and_columns(self):
        ds = generate_hp1_dataset(hours=48, seed=1)
        assert len(ds) == 48
        assert set(ds.columns) == {"x", "y", "u"}
        assert np.all((ds["u"] >= 0) & (ds["u"] <= 1))
        assert np.all(ds["y"] == pytest.approx(7.8 * ds["u"]))

    @pytest.mark.parametrize("hours", [1, 2, 3, 4, 5])
    def test_short_hp1_datasets_have_one_row_per_hour(self, hours):
        if hours == 1:  # one sample spans no simulation window: a typed error
            with pytest.raises(ReproError, match="simulation window"):
                generate_hp1_dataset(hours=hours, seed=3)
            return
        ds = generate_hp1_dataset(hours=hours, seed=3)
        assert len(ds) == hours
        for name in ds.columns:
            assert ds[name].shape == (hours,) and np.isfinite(ds[name]).all()

    @pytest.mark.parametrize("n", [5, 6, 17, 96, 672])
    def test_rating_profile_is_unchanged_from_five_samples_up(self, n):
        """The per-sample moving average equals numpy's "same" mode wherever
        that mode has one value per sample, so longer datasets keep their
        bytes."""
        time = np.arange(0.0, float(n), 1.0)
        profile = _thermostat_profile(time, np.random.default_rng(n))
        rng = np.random.default_rng(n)
        hours_of_day = np.mod(time, 24.0)
        diurnal = 0.45 + 0.25 * np.cos(2.0 * np.pi * (hours_of_day - 3.0) / 24.0)
        weekly = 0.05 * np.sin(2.0 * np.pi * time / (24.0 * 7.0))
        dither = rng.normal(0.0, 0.04, size=time.shape)
        same = np.convolve(dither, np.ones(5) / 5.0, mode="same")
        assert profile.tobytes() == np.clip(diurnal + weekly + same, 0.0, 1.0).tobytes()

    def test_hp0_dataset_has_constant_rating(self):
        ds = generate_hp0_dataset(hours=48, seed=1)
        assert set(ds.columns) == {"x", "y"}
        assert np.allclose(ds["y"], ds["y"][0])

    def test_datasets_are_deterministic_per_seed(self):
        a = generate_hp1_dataset(hours=24, seed=9)
        b = generate_hp1_dataset(hours=24, seed=9)
        c = generate_hp1_dataset(hours=24, seed=10)
        assert np.allclose(a["x"], b["x"])
        assert not np.allclose(a["x"], c["x"])

    def test_temperatures_track_true_model_within_noise(self):
        ds = generate_hp1_dataset(hours=72, seed=2, noise_std=0.0)
        # Without measurement noise the trajectory is smooth and bounded by
        # the physical equilibrium temperatures.
        assert ds["x"].min() > -10.0
        assert ds["x"].max() < -10.0 + 1.49 * 7.8 * 2.65 + 1.0

    def test_classroom_dataset_columns_match_table6(self):
        ds = generate_classroom_dataset(hours=48, seed=3)
        assert set(ds.columns) == {"t", "solrad", "tout", "occ", "dpos", "vpos"}
        assert np.all(ds["solrad"] >= 0)
        assert np.all((ds["dpos"] >= 0) & (ds["dpos"] <= 100))
        assert np.all(ds["occ"] >= 0)

    def test_classroom_occupancy_only_during_lectures(self):
        ds = generate_classroom_dataset(hours=48, seed=3)
        hours_of_day = np.mod(ds.time, 24.0)
        night = ds["occ"][(hours_of_day < 7) | (hours_of_day > 17)]
        assert np.all(night == 0)

    def test_generate_dataset_for_dispatch(self):
        assert generate_dataset_for("HP0", hours=24).meta["model"] == "HP0"
        assert generate_dataset_for("hp1", hours=24).meta["model"] == "HP1"
        assert generate_dataset_for("Classroom", hours=24).meta["model"] == "Classroom"
        with pytest.raises(ReproError):
            generate_dataset_for("unknown")


class TestSyntheticScaling:
    def test_scale_dataset_applies_delta(self):
        ds = generate_hp1_dataset(hours=24, seed=4)
        scaled = scale_dataset(ds, 1.1, columns=["x"])
        assert np.allclose(scaled["x"], ds["x"] * 1.1)
        assert np.allclose(scaled["u"], ds["u"])  # untouched column

    def test_physical_bounds_respected(self):
        ds = generate_hp1_dataset(hours=24, seed=4)
        scaled = scale_dataset(ds, 1.2)
        assert scaled["u"].max() <= 1.0

    def test_invalid_delta_rejected(self):
        ds = generate_hp1_dataset(hours=24, seed=4)
        with pytest.raises(ReproError):
            scale_dataset(ds, 0.0)

    def test_family_matches_paper_construction(self):
        ds = generate_hp1_dataset(hours=24, seed=4)
        family = synthetic_family(ds, 10, seed=5)
        deltas = deltas_of(family)
        assert len(family) == 10
        assert deltas[0] == pytest.approx(1.0)
        assert all(0.8 <= d <= 1.2 for d in deltas)
        # Scaling by delta produces a relative L2 dissimilarity of |delta - 1|.
        dissimilarity = relative_l2_dissimilarity(ds["x"], family[3]["x"])
        assert dissimilarity == pytest.approx(abs(deltas[3] - 1.0), rel=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(delta=st.floats(min_value=0.8, max_value=1.2))
    def test_scaling_preserves_length_and_time(self, delta):
        ds = generate_hp0_dataset(hours=24, seed=6)
        scaled = scale_dataset(ds, delta)
        assert len(scaled) == len(ds)
        assert np.allclose(scaled.time, ds.time)


class TestLoaders:
    def test_load_dataset_creates_table(self):
        db = Database()
        ds = generate_hp1_dataset(hours=24, seed=7)
        table = load_dataset(db, ds, table_name="measurements")
        assert table == "measurements"
        assert db.execute("SELECT count(*) FROM measurements").scalar() == 24
        row = db.execute("SELECT * FROM measurements ORDER BY time LIMIT 1").first()
        assert set(row) == {"time", "x", "y", "u"}

    def test_load_dataset_replace_semantics(self):
        db = Database()
        ds = generate_hp1_dataset(hours=24, seed=7)
        load_dataset(db, ds, table_name="m")
        load_dataset(db, ds.window(0, 10), table_name="m", replace=True)
        assert db.execute("SELECT count(*) FROM m").scalar() == 11
        load_dataset(db, ds, table_name="m", replace=False)
        assert db.execute("SELECT count(*) FROM m").scalar() == 11

    def test_table_name_sanitization(self):
        ds = generate_hp1_dataset(hours=24, seed=7).rename("weird name-1.5")
        assert dataset_table_name(ds) == "weird_name_1_5"
