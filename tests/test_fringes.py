import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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

    @pytest.mark.parametrize("positions", [np.zeros((2, 2)), ["a", "b"], [[0.0], [1.0]]])
    def test_rejects_samples_that_are_not_one_dimensional_numbers(self, positions):
        from mzsim.errors import StructureError

        with pytest.raises(StructureError, match="matching 1-d arrays"):
            FringeProfile(positions, [1.0, 1.0])

    def test_rejects_negative_intensity(self):
        with pytest.raises(DomainError):
            FringeProfile(np.arange(3.0), np.array([1.0, -0.1, 1.0]))

    @pytest.mark.parametrize(
        "positions", [[math.nan, 1.0], [1.0, math.inf], [-math.inf, 0.0]]
    )
    def test_rejects_non_finite_positions(self, positions):
        with pytest.raises(DomainError, match="positions"):
            FringeProfile(positions, [1.0, 1.0])

    @pytest.mark.parametrize("pattern", [coherent_pattern, incoherent_pattern])
    def test_rejects_a_window_wider_than_the_largest_float(self, pattern):
        # x_max - x_min overflows, so linspace's step is infinite
        with pytest.raises(DomainError, match="positions"):
            pattern(geometry(x_half=1e308))


class TestSameNumbersAsNumpy:
    """numpy is the reference: ``np.linspace`` and ``4 * np.cos(phase) ** 2``."""

    @settings(max_examples=150, deadline=None)
    @given(
        s=st.floats(1e-4, 5e-3),
        wavelength=st.floats(3e-7, 1e-6),
        distance=st.floats(0.5, 2.0),
        # the window in fringe periods: where it starts and how many it spans
        start=st.floats(-300.0, 300.0),
        periods=st.floats(1e-3, 600.0),
        n_points=st.integers(2, 10**4),
    )
    @example(s=1e-3, wavelength=5e-7, distance=1.0, start=-4.0, periods=8.0, n_points=2001)
    def test_patterns_match_numpy_bit_for_bit(
        self, s, wavelength, distance, start, periods, n_points
    ):
        period = wavelength * distance / s
        x_min = start * period
        geo = geometry(s, wavelength, distance, x_half=x_min + periods * period,
                       n_points=n_points, x_min=x_min)
        want_x = np.linspace(geo.x_min, geo.x_max, geo.n_points)
        phase = np.pi * geo.source_separation * want_x / (geo.wavelength * geo.screen_distance)
        want_y = 4.0 * np.cos(phase) ** 2
        coherent = coherent_pattern(geo)
        for profile, y in ((coherent, want_y), (incoherent_pattern(geo), 2.0)):
            for array in (profile.positions, profile.intensity):
                assert array.dtype == np.float64 and not array.flags.writeable
            assert np.array_equal(profile.positions, want_x)
            assert np.all(profile.intensity == y)
        assert np.array_equal(coherent.intensity, want_y)
        assert np.array_equal(coherent_intensity(geo, coherent.positions), want_y)

    @pytest.mark.parametrize(
        "x_min, x_max, n_points",
        [(0.0, 5e-324, 4), (0.0, 1e-320, 10**4), (-1e-310, 1e-310, 7)],
    )
    def test_positions_match_linspace_for_tiny_steps(self, x_min, x_max, n_points):
        # where the step rounds to 0, linspace scales by the width instead
        geo = FringeGeometry(1e-3, 5e-7, 1.0, x_min, x_max, n_points)
        want = np.linspace(x_min, x_max, n_points)
        assert np.array_equal(incoherent_pattern(geo).positions, want)

    def test_a_number_gives_a_float_and_an_infinite_phase_gives_nan(self):
        geo = geometry()
        assert type(coherent_intensity(geo, 2.5e-4)) is float
        with np.errstate(all="ignore"):
            want = 4.0 * np.cos(np.pi * 1e-3 * np.array([1e308, 1e-4]) / 5e-7) ** 2
        got = coherent_intensity(geo, [1e308, 1e-4])
        assert math.isnan(coherent_intensity(geo, 1e308)) and math.isnan(want[0])
        assert np.array_equal(got, want, equal_nan=True)


class TestProfileRecord:
    def test_replace_keeps_the_other_samples_and_checks_anew(self):
        profile = coherent_pattern(geometry(n_points=11))
        flat = profile.replace(intensity=np.full(11, 2.0))
        assert np.array_equal(flat.positions, profile.positions)
        assert np.all(flat.intensity == 2.0)
        with pytest.raises(DomainError, match="positions"):
            profile.replace(positions=[math.nan] * 11)

    def test_copies_keep_the_samples(self):
        profile = coherent_pattern(geometry(n_points=11))
        assert profile.intensity[0] >= 0.0  # builds the cached array first
        for copied in (pickle.loads(pickle.dumps(profile)), copy.deepcopy(profile)):
            assert copied != profile
            assert np.array_equal(copied.positions, profile.positions)
            assert np.array_equal(copied.intensity, profile.intensity)
            assert not copied.intensity.flags.writeable
