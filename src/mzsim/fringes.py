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

The module is pure Python and imports no numpy.  A profile keeps its
samples as floats; its ``positions`` and ``intensity`` arrays, and
:func:`coherent_intensity` given an array, load numpy.  The positions
are ``numpy.linspace``'s and the intensities ``4 * numpy.cos(phase) **
2``, bit for bit: the same operations in the same order on the same
floats.
"""

import math
import numbers
from array import array

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


def _positions(g: FringeGeometry) -> array:
    """``numpy.linspace(g.x_min, g.x_max, g.n_points)``, in numpy's arithmetic."""
    lo, div = g.x_min, g.n_points - 1
    delta = g.x_max - lo
    step = delta / div
    if step == 0:  # delta / div underflowed: numpy scales by delta instead
        x = array("d", (i / div * delta + lo for i in range(g.n_points)))
    else:
        x = array("d", (i * step + lo for i in range(g.n_points)))
    x[-1] = g.x_max
    return x


def _floats(values) -> array | None:
    """``values`` as an ``array('d')``, or None unless they form one dimension."""
    if getattr(values, "ndim", 1) != 1:
        return None
    try:
        return array("d", values)
    except TypeError:
        return None


class FringeProfile(_Record):
    """Sampled screen intensity in single-source units, kept as floats."""

    _positions: array
    _intensity: array
    _views = {"positions": ("_positions", float), "intensity": ("_intensity", float)}

    def __post_init__(self):
        x, y = _floats(self._positions), _floats(self._intensity)
        if x is None or y is None or len(x) != len(y):
            raise StructureError("positions and intensity must be matching 1-d arrays")
        if not all(map(math.isfinite, x)):
            raise DomainError("positions must be finite everywhere")
        if not all(0.0 <= v < math.inf for v in y):
            raise DomainError("intensity must be finite and >= 0 everywhere")
        object.__setattr__(self, "_positions", x)
        object.__setattr__(self, "_intensity", y)


def _coherent(a: float, b: float, x: float) -> float:
    """``4 * cos(a * x / b) ** 2``, as numpy evaluates it."""
    try:
        c = math.cos(a * x / b)
    except ValueError:  # an infinite phase, where numpy's cos gives nan
        c = math.nan
    return 4.0 * c * c


def coherent_intensity(g: FringeGeometry, x):
    """Coherent two-source intensity at screen coordinate ``x``.

    ``4 * cos^2(pi * s * x / (wavelength * L))``: maxima of 4 at integer
    multiples of the fringe period, zeros halfway between.  A float for
    a number ``x``, else a float64 array of ``x``'s shape.
    """
    a, b = math.pi * g.source_separation, g.wavelength * g.screen_distance
    if isinstance(x, numbers.Real):
        return _coherent(a, b, x)
    import numpy as np

    x = np.asarray(x, dtype=float)
    return np.array([_coherent(a, b, v) for v in x.ravel().tolist()]).reshape(x.shape)


def coherent_pattern(g: FringeGeometry) -> FringeProfile:
    """Pattern left when the two sources emit in superposition (fringes)."""
    x = _positions(g)
    a, b = math.pi * g.source_separation, g.wavelength * g.screen_distance
    return FringeProfile(x, array("d", (_coherent(a, b, v) for v in x)))


def incoherent_pattern(g: FringeGeometry) -> FringeProfile:
    """Pattern left when each photon comes from one definite source.

    Probabilities add instead of amplitudes, so two unit point sources
    give a flat intensity of 2 regardless of their separation.
    """
    return FringeProfile(_positions(g), array("d", [2.0]) * g.n_points)


def calibration_patterns(g: FringeGeometry) -> list[FringeProfile]:
    """The four single-source exposures used to calibrate the plate.

    Replacing each beam splitter by a mirror or removing it forces a
    classical trajectory, so each configuration lights up exactly one
    annihilation point; over the four configurations each source is hit
    twice.  Each profile is a flat 1, their sum on one plate is a flat
    4, and half of that sum reproduces :func:`incoherent_pattern`.
    """
    x, ones = _positions(g), array("d", [1.0]) * g.n_points
    return [FringeProfile(x, ones) for _ in range(4)]
