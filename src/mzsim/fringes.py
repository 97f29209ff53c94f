"""Far-field screen patterns for the two-point annihilation-photon setup.

Intensities are expressed in single-source units: one point source
alone illuminates every screen position at intensity 1, two incoherent
sources give a flat 2, and two mutually coherent sources oscillate
between 0 and 4 with period ``wavelength * screen_distance /
source_separation``.  The model is the textbook small-angle two-source
interference pattern with equal amplitudes; polarization, pair
correlations and source kinematics are out of scope.
:class:`FringeGeometry` lives in :mod:`mzsim.core` so that parsing a
configuration never loads numpy; it is re-exported here.
"""

import numpy as np

from .core import FAR_FIELD_RATIO, MAX_FRINGE_POINTS, FringeGeometry, _Record
from .errors import DomainError, StructureError

__all__ = [
    "FAR_FIELD_RATIO",
    "MAX_FRINGE_POINTS",
    "FringeGeometry",
    "FringeProfile",
    "coherent_intensity",
    "coherent_pattern",
    "incoherent_pattern",
    "calibration_patterns",
]

def _positions(g: FringeGeometry) -> np.ndarray:
    return np.linspace(g.x_min, g.x_max, g.n_points)


class FringeProfile(_Record):
    """Sampled screen intensity in single-source units."""

    positions: np.ndarray
    intensity: np.ndarray

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        inten = np.asarray(self.intensity, dtype=float)
        if pos.ndim != 1 or pos.shape != inten.shape:
            raise StructureError("positions and intensity must be matching 1-d arrays")
        if not np.all(np.isfinite(inten)) or np.any(inten < 0):
            raise DomainError("intensity must be finite and >= 0 everywhere")
        pos.flags.writeable = False
        inten.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "intensity", inten)


def coherent_intensity(g: FringeGeometry, x) -> np.ndarray:
    """Coherent two-source intensity at screen coordinate ``x``.

    ``4 * cos^2(pi * s * x / (wavelength * L))``: maxima of 4 at integer
    multiples of the fringe period, zeros halfway between.
    """
    phase = np.pi * g.source_separation * np.asarray(x, dtype=float) / (
        g.wavelength * g.screen_distance
    )
    return 4.0 * np.cos(phase) ** 2


def coherent_pattern(g: FringeGeometry) -> FringeProfile:
    """Pattern left when the two sources emit in superposition (fringes)."""
    x = _positions(g)
    return FringeProfile(x, coherent_intensity(g, x))


def incoherent_pattern(g: FringeGeometry) -> FringeProfile:
    """Pattern left when each photon comes from one definite source.

    Probabilities add instead of amplitudes, so two unit point sources
    give a flat intensity of 2 regardless of their separation.
    """
    x = _positions(g)
    return FringeProfile(x, np.full(g.n_points, 2.0))


def calibration_patterns(g: FringeGeometry) -> list[FringeProfile]:
    """The four single-source exposures used to calibrate the plate.

    Replacing each beam splitter by a mirror or removing it forces a
    classical trajectory, so each configuration lights up exactly one
    annihilation point; over the four configurations each source is hit
    twice.  Each profile is a flat 1, their sum on one plate is a flat
    4, and half of that sum reproduces :func:`incoherent_pattern`.
    """
    x = _positions(g)
    return [FringeProfile(x, np.ones(g.n_points)) for _ in range(4)]
