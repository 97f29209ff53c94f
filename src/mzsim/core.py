"""Parameter records, count tables, and the exponential survival law.

Everything downstream (closed-form predictions, the count-level Monte
Carlo, and the discrimination statistics) consumes the types defined
here.  Rates and times are plain dimensionless floats; the caller is
responsible for using consistent units.  All types are immutable and
all functions are pure.
"""

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, StructureError, UnsupportedHypothesisError

__all__ = [
    "Hypothesis",
    "ExcitationParams",
    "DecayParams",
    "PhotonParams",
    "CountTable",
    "ATOM_LABELS",
    "PHOTON_LABELS",
    "Experiment",
    "EXPERIMENTS",
    "survival_fraction",
    "purity_time_offset",
]


class Hypothesis(enum.Enum):
    """Routing hypotheses for the interferometer experiments.

    POS
        Superposition survives photon emission and absorption, so a tuned
        interferometer routes every particle toward counter a.
    CCQI
        Emission or absorption collapses the path superposition; an
        affected particle travels a single arm and the exit splitter
        routes it toward either counter with probability 1/2.
    MODIFIED_RATE
        Superposition survives but decay proceeds at a different rate
        while the atom is in a path superposition.  Only the decay
        experiment accepts this hypothesis.
    """

    POS = "pos"
    CCQI = "ccqi"
    MODIFIED_RATE = "modified_rate"


def survival_fraction(lam: float, dt: float) -> float:
    """Fraction of an excited population still excited after ``dt``.

    Exponential law ``exp(-lam * dt)`` with ``lam`` the spontaneous
    emission rate (Einstein A coefficient).  Monotone non-increasing in
    ``dt`` and multiplicative over consecutive intervals.
    """
    if not lam >= 0:
        raise DomainError(f"decay rate must be >= 0, got {lam}")
    if not dt >= 0:
        raise DomainError(f"elapsed time must be >= 0, got {dt}")
    return math.exp(-lam * dt)


def purity_time_offset(mu: float, lam: float) -> float:
    """Pre-interferometer flight-time pad equivalent to source purity ``mu``.

    Returns the ``dt`` for which ``survival_fraction(lam, dt) == mu``,
    i.e. ``-ln(mu) / lam``.  A source that emits only a fraction ``mu``
    of its atoms excited behaves like a pure source whose atoms travel
    this much longer before reaching the first beam splitter.
    """
    if not 0 < mu <= 1:
        raise DomainError(f"source purity mu must be in (0, 1], got {mu}")
    if not lam >= 0:
        raise DomainError(f"decay rate must be >= 0, got {lam}")
    if mu == 1.0:
        return 0.0
    if lam == 0:
        raise DomainError("no finite time offset exists for mu < 1 when the decay rate is 0")
    return -math.log(mu) / lam


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise DomainError(f"{name} must be >= 0, got {value}")


def _check_nonnegative(name: str, value) -> None:
    if not (isinstance(value, (int, float, np.integer, np.floating)) and value >= 0):
        raise DomainError(f"{name} must be a number >= 0, got {value!r}")


def _check_unit_interval(name: str, value) -> None:
    _check_nonnegative(name, value)
    if value > 1:
        raise DomainError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class ExcitationParams:
    """Apparatus settings for the cavity-excitation interferometer run.

    ``epsilon`` is the probability that a ground-state atom leaves a
    photon cavity excited, ``lam`` the spontaneous emission rate of the
    excited state, and ``t`` the cavity-to-counter flight time.
    """

    n0: int
    epsilon: float
    lam: float
    t: float

    def __post_init__(self):
        _check_count("n0", self.n0)
        _check_unit_interval("epsilon", self.epsilon)
        _check_nonnegative("lam", self.lam)
        _check_nonnegative("t", self.t)


@dataclass(frozen=True)
class DecayParams:
    """Apparatus settings for the in-flight-decay interferometer run.

    ``t1``, ``t2`` and ``t3`` are the times an atom spends before,
    inside, and after the interferometer; ``lam_prime`` is the
    in-superposition decay rate consulted only under
    ``Hypothesis.MODIFIED_RATE``.  ``mu`` is the fraction of atoms
    actually excited at the source; call :meth:`with_purity_folded`
    to absorb it into an effective ``t1`` before predicting or
    simulating.
    """

    n0: int
    lam: float
    t1: float
    t2: float
    t3: float
    lam_prime: float | None = None
    mu: float = 1.0

    def __post_init__(self):
        _check_count("n0", self.n0)
        _check_nonnegative("lam", self.lam)
        for name in ("t1", "t2", "t3"):
            _check_nonnegative(name, getattr(self, name))
        if self.lam_prime is not None:
            _check_nonnegative("lam_prime", self.lam_prime)
        if not 0 < self.mu <= 1:
            raise DomainError(f"mu must be in (0, 1], got {self.mu}")

    @property
    def total_time(self) -> float:
        return self.t1 + self.t2 + self.t3

    def with_purity_folded(self) -> "DecayParams":
        """Absorb the source impurity into a longer pre-interferometer leg.

        Returns an equivalent parameter set with ``mu == 1`` and ``t1``
        extended by ``purity_time_offset(mu, lam)``.
        """
        if self.mu == 1.0:
            return self
        return replace(self, t1=self.t1 + purity_time_offset(self.mu, self.lam), mu=1.0)


@dataclass(frozen=True)
class PhotonParams:
    """Apparatus settings for the pair-splitting photon run.

    ``d`` is the fraction of the device-arm flux split into photon
    pairs, ``u`` the fraction of the pair flux recombined into single
    photons.
    """

    n0: int
    d: float
    u: float

    def __post_init__(self):
        _check_count("n0", self.n0)
        _check_unit_interval("d", self.d)
        _check_unit_interval("u", self.u)


def _check_tally(name: str, value) -> None:
    if not isinstance(value, (int, float, np.integer, np.floating)):
        raise DomainError(f"{name} must be a number, got {value!r}")
    if math.isnan(value) or value < 0:
        raise DomainError(f"{name} must be >= 0, got {value}")


ATOM_LABELS = ("na1", "na2", "nb1", "nb2")
PHOTON_LABELS = ("counter1", "counter2", "lost")


@dataclass(frozen=True, init=False)
class CountTable:
    """Detector tallies, one per labelled category, readable by label.

    The atom experiments use :data:`ATOM_LABELS`: ``na1``/``nb1`` count
    ground-state arrivals at counters a/b, ``na2``/``nb2`` the excited
    arrivals.  The photon experiment uses :data:`PHOTON_LABELS`, lost
    flux included.  Predictions hold real-valued expectations; Monte
    Carlo runs hold integer tallies.  Either way the entries sum to the
    number of particles sent.
    """

    counts: tuple[float, ...]
    labels: tuple[str, ...]

    def __init__(self, *counts, labels: tuple[str, ...] = ATOM_LABELS):
        if len(counts) != len(labels):
            raise StructureError(f"expected {len(labels)} counts {labels}, got {len(counts)}")
        for name, value in zip(labels, counts):
            _check_tally(name, value)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "labels", tuple(labels))

    def __getattr__(self, name: str):
        labels = self.__dict__.get("labels", ())
        if name not in labels:
            raise AttributeError(name)
        return self.counts[labels.index(name)]

    @property
    def total(self) -> float:
        return sum(self.counts)

    def values(self) -> tuple[float, ...]:
        return self.counts

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.labels, self.counts))


@dataclass(frozen=True)
class Experiment:
    """One experiment kind: its parameter record, count categories and hypotheses.

    Closed-form tables and samplers live in :mod:`mzsim.predict` and
    :mod:`mzsim.montecarlo` as ``predict_<name>`` and ``simulate_<name>``.
    """

    name: str
    params: type
    labels: tuple[str, ...]
    hypotheses: tuple[Hypothesis, ...]

    def check(self, h: Hypothesis) -> None:
        """Raise :class:`UnsupportedHypothesisError` unless ``h`` applies here."""
        if h not in self.hypotheses:
            names = " and ".join(x.name for x in self.hypotheses)
            raise UnsupportedHypothesisError(
                f"{self.name} run supports {names}, not {getattr(h, 'name', h)}"
            )


_ROUTING = (Hypothesis.POS, Hypothesis.CCQI)

EXPERIMENTS = {
    e.name: e
    for e in (
        Experiment("excitation", ExcitationParams, ATOM_LABELS, _ROUTING),
        Experiment("decay", DecayParams, ATOM_LABELS, tuple(Hypothesis)),
        Experiment("photon", PhotonParams, PHOTON_LABELS, _ROUTING),
    )
}
