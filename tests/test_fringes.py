import math

import numpy as np
import pytest
from scipy import integrate, optimize

from mzsim.errors import DomainError, GeometryError
from mzsim.fringes import (
    MAX_FRINGE_POINTS,
    FringeGeometry,
    FringeProfile,
    calibration_patterns,
    coherent_intensity,
    coherent_pattern,
    incoherent_pattern,
)


def geometry(s=1e-3, wavelength=5e-7, distance=1.0, x_half=0.002, n_points=2001, x_min=None):
    return FringeGeometry(
        source_separation=s,
        wavelength=wavelength,
        screen_distance=distance,
        x_min=-x_half if x_min is None else x_min,
        x_max=x_half,
        n_points=n_points,
    )


def refined_maxima(geo, n_periods=6):
    """Locate successive coherent maxima by golden-section refinement."""
    period = geo.fringe_period
    maxima = []
    for k in range(n_periods):
        lo, hi = (k - 0.3) * period, (k + 0.3) * period
        res = optimize.minimize_scalar(
            lambda x: -float(coherent_intensity(geo, x)),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": period * 1e-13},
        )
        maxima.append(res.x)
    return maxima


class TestGeometry:
    def test_far_field_gate(self):
        with pytest.raises(GeometryError):
            geometry(s=0.02, distance=1.0)
        geometry(s=0.01, distance=1.0)  # exactly 100x is allowed

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(s=0.0),
            dict(wavelength=-1e-7),
            dict(distance=0.0),
            dict(n_points=1),
            dict(n_points=2.5),
            dict(x_half=-1.0),  # makes x_min > x_max
            dict(n_points=MAX_FRINGE_POINTS + 1),  # refused before any allocation
            dict(wavelength=math.inf),  # would give a flat profile
            dict(x_min=-math.inf),
            dict(x_min="-1"),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(DomainError):
            geometry(**kwargs)

    def test_fringe_period(self):
        geo = geometry()
        assert geo.fringe_period == pytest.approx(5e-7 * 1.0 / 1e-3, rel=1e-15)


class TestProfiles:
    def test_coherent_center_is_fully_constructive(self):
        geo = geometry()
        assert float(coherent_intensity(geo, 0.0)) == 4.0

    def test_first_null_and_first_revival(self):
        geo = geometry()
        period = geo.fringe_period
        assert float(coherent_intensity(geo, period / 2)) == pytest.approx(0.0, abs=1e-12)
        assert float(coherent_intensity(geo, period)) == pytest.approx(4.0, rel=1e-12)

    def test_coherent_pattern_bounds(self):
        profile = coherent_pattern(geometry())
        assert np.all(profile.intensity >= 0.0)
        assert np.all(profile.intensity <= 4.0 + 1e-12)
        assert profile.positions.shape == (2001,)

    def test_incoherent_pattern_is_flat_two(self):
        profile = incoherent_pattern(geometry())
        assert np.all(profile.intensity == 2.0)

    def test_incoherent_level_ignores_source_separation(self):
        a = incoherent_pattern(geometry(s=1e-3))
        b = incoherent_pattern(geometry(s=2e-3))
        assert np.array_equal(a.intensity, b.intensity)

    def test_doubling_separation_halves_the_period(self):
        geo1, geo2 = geometry(s=1e-3), geometry(s=2e-3)
        assert geo2.fringe_period == pytest.approx(geo1.fringe_period / 2, rel=1e-15)
        m1 = refined_maxima(geo1, 3)
        m2 = refined_maxima(geo2, 3)
        assert (m1[1] - m1[0]) == pytest.approx(2 * (m2[1] - m2[0]), rel=1e-9)

    def test_period_located_by_successive_maxima(self):
        geo = geometry()
        maxima = refined_maxima(geo)
        spacings = np.diff(maxima)
        assert spacings == pytest.approx(geo.fringe_period, rel=1e-9)

    def test_mean_over_whole_periods_matches_incoherent_level(self):
        geo = geometry()
        period = geo.fringe_period
        for k in (1, 3, 5):
            mean, _ = integrate.quad(
                lambda x: float(coherent_intensity(geo, x)), 0.0, k * period,
                limit=200,
            )
            assert mean / (k * period) == pytest.approx(2.0, rel=1e-9)


class TestCalibration:
    def test_four_unit_exposures(self):
        profiles = calibration_patterns(geometry())
        assert len(profiles) == 4
        for profile in profiles:
            assert np.all(profile.intensity == 1.0)

    def test_summed_plate_is_twice_the_incoherent_pattern(self):
        geo = geometry()
        total = sum(p.intensity for p in calibration_patterns(geo))
        assert np.all(total == 4.0)
        assert np.array_equal(total / 2.0, incoherent_pattern(geo).intensity)


class TestProfileValidation:
    def test_rejects_shape_mismatch(self):
        from mzsim.errors import StructureError

        with pytest.raises(StructureError):
            FringeProfile(np.arange(3.0), np.arange(4.0))

    def test_rejects_negative_intensity(self):
        with pytest.raises(DomainError):
            FringeProfile(np.arange(3.0), np.array([1.0, -0.1, 1.0]))
