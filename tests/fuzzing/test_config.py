"""Unit tests for fuzz/carve configuration validation."""

import pytest

from repro.errors import FuzzConfigError
from repro.fuzzing import (
    PAPER_CARVE_CONFIG,
    PAPER_FUZZ_CONFIG,
    CarveConfig,
    FuzzConfig,
)


class TestPaperDefaults:
    def test_section_vb_values(self):
        c = PAPER_FUZZ_CONFIG
        assert c.u_reps == 8
        assert c.n_reps == 5
        assert c.max_iter == 2000
        assert c.stop_iter == 500
        assert c.u_dist == (5.0, 15.0)
        assert c.n_dist == (30.0, 50.0)
        assert c.eps == 1.0
        assert c.decay == 0.97
        assert c.decay_iter == 200

    def test_carve_defaults(self):
        c = PAPER_CARVE_CONFIG
        assert c.center_d_thresh == 20.0
        assert c.bound_d_thresh == 10.0
        assert c.close_mode == "or"


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("max_iter", 0),
        ("stop_iter", -1),
        ("n_initial", 0),
        ("u_reps", -1),
        ("diameter", 0),
        ("restart", 0),
        ("decay_iter", 0),
        ("decay", 0.0),
        ("decay", 1.5),
        ("eps", -0.1),
        ("eps", 1.1),
        ("u_dist", (5, 2)),
        ("n_dist", (-1, 2)),
        ("u_dist", (0, float("inf"))),
    ])
    def test_bad_fuzz_values(self, field, value):
        with pytest.raises(FuzzConfigError):
            FuzzConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("cell_size", 0),
        ("center_d_thresh", -1),
        ("bound_d_thresh", -1),
        ("close_mode", "xor"),
        ("raster_tol", -0.5),
    ])
    def test_bad_carve_values(self, field, value):
        with pytest.raises(FuzzConfigError):
            CarveConfig(**{field: value})

    def test_frozen(self):
        with pytest.raises(Exception):
            FuzzConfig().max_iter = 5


class TestScaling:
    def test_fuzz_scaled_to_doubles(self):
        c = FuzzConfig().scaled_to(256.0)
        assert c.u_dist == (10.0, 30.0)
        assert c.n_dist == (60.0, 100.0)
        assert c.diameter == 40.0
        # Iteration counts and decay are not distance-like; unchanged.
        assert c.max_iter == 2000

    def test_carve_scaled_to(self):
        c = CarveConfig().scaled_to(64.0)
        assert c.cell_size == 8.0
        assert c.center_d_thresh == 10.0
        assert c.bound_d_thresh == 5.0
        assert c.raster_tol == 0.5  # lattice unit, not distance-scaled

    def test_scale_identity(self):
        assert FuzzConfig().scaled_to(128.0) == FuzzConfig()

    def test_bad_extent(self):
        with pytest.raises(FuzzConfigError):
            FuzzConfig().scaled_to(0.0)
