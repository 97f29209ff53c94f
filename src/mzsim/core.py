"""Parameter records, count tables, run settings and the exponential survival law.

Everything downstream (closed-form predictions, the count-level Monte
Carlo, the fringe patterns and the discrimination statistics) consumes
the types defined here.  Rates and times are plain dimensionless
floats; the caller is responsible for using consistent units.  All
types are immutable and all functions are pure.  The records share
one small base, :class:`_Record`, which builds no code at class
creation.  This module needs only the standard library, so validating
a configuration never loads numpy.
"""

import enum
import math
import numbers
import sys
from functools import cached_property

from .errors import (
    DomainError,
    GeometryError,
    StructureError,
    UnsupportedHypothesisError,
)

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
    "SimConfig",
    "FringeGeometry",
    "survival_fraction",
    "purity_time_offset",
]


_MISSING = object()


class _Record:
    """Base of the immutable parameter and result records.

    A subclass lists its fields as class annotations, in order, after
    those it inherits; a class attribute of the same name is the field's
    default.  ``_fields`` maps each field to its annotation and
    ``_defaults`` each defaulted field to its default.  Instances take
    the fields by position or keyword, refuse assignment and deletion,
    and compare and hash by type and field values.  Construction,
    :meth:`replace`, pickle and copies all end in ``__setstate__``, which
    checks each field's type and then runs ``__post_init__``, the one
    place a record checks ranges.  A record whose ``_views`` maps a name
    to ``(field, dtype)`` takes that name as the field's argument, in
    :meth:`replace` too; it reads as a read-only numpy array of ``dtype``,
    built from the field on first access, and the record compares and
    hashes by identity.

    Each field's annotation sets its type check, and :mod:`mzsim.config`
    parses its key by the same rules: ``int`` takes an integer, kept as an
    ``int``; ``float`` a finite number (a field that may be infinite is a
    ``numbers.Real``); ``str`` a string; an :class:`enum.Enum` subclass
    one of its members; ``tuple[X, ...]`` an iterable of ``X``, kept as a
    tuple; ``X | None`` None or an ``X``.  No bool is a number; other
    annotations are not checked.  A refusal is a :class:`DomainError`
    naming the field.
    """

    _fields = {}
    _defaults = {}
    _checks = {}
    _views = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = {**cls._fields, **own}
        cls._defaults = {**cls._defaults, **{k: cls.__dict__[k] for k in own if k in cls.__dict__}}
        cls._checks = {**cls._checks, **{k: c for k, a in own.items() if (c := _type_check(a))}}
        names = {field: name for name, (field, _) in cls._views.items()}
        cls._arguments = {names.get(field, field): field for field in cls._fields}
        for name, (field, dtype) in cls.__dict__.get("_views", {}).items():
            view = cached_property(lambda self, f=field, t=dtype: _readonly(self.__dict__[f], t))
            view.__set_name__(cls, name)
            setattr(cls, name, view)
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        cls, arguments = type(self), self._arguments
        if len(args) > len(arguments):
            raise TypeError(
                f"{cls.__name__}() takes {len(arguments)} positional arguments "
                f"but {len(args)} were given"
            )
        values = dict(zip(arguments.values(), args))
        for name, value in kwargs.items():
            field = arguments.get(name)
            if field is None:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if field in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            values[field] = value
        for name, field in arguments.items():
            value = values.setdefault(field, self._defaults.get(field, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        self.__setstate__(values)

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __getstate__(self):
        # the fields alone: a copy rebuilds a cached array, which pickle
        # would hand back writeable
        return {name: self.__dict__[name] for name in self._fields}

    def __setstate__(self, state: dict):
        checked = {name: check(name, state[name]) for name, check in self._checks.items()}
        self.__dict__.update(state, **checked)
        self.__post_init__()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self):
        # the constructor's arguments: a view by its name, with its field's values
        arguments = self._arguments.items()
        body = ", ".join(f"{name}={self.__dict__[field]!r}" for name, field in arguments)
        return f"{type(self).__qualname__}({body})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, checked like a new record."""
        copy = object.__new__(type(self))
        state = {name: self.__dict__[field] for name, field in self._arguments.items()}
        _Record.__init__(copy, **{**state, **changes})
        return copy


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


class Method(str, enum.Enum):
    """How :func:`mzsim.stats.min_sample_size` answers; a member equals and prints as its value."""

    __str__ = str.__str__
    AUTO = "auto"
    CLOSED_FORM = "closed_form"
    SIMULATION = "simulation"


class Format(str, enum.Enum):
    """The CLI's output formats; a member equals its value."""

    CSV = "csv"
    JSON = "json"


class Pattern(str, enum.Enum):
    """The fringe pattern ``mzsim fringes`` writes; a member equals its value."""

    COHERENT = "coherent"
    INCOHERENT = "incoherent"


def survival_fraction(lam: float, dt: float) -> float:
    """Fraction of an excited population still excited after ``dt``.

    Exponential law ``exp(-lam * dt)`` with ``lam`` the spontaneous
    emission rate (Einstein A coefficient).  Monotone non-increasing in
    ``dt`` and multiplicative over consecutive intervals.
    """
    # a non-finite argument could make lam * dt a NaN (inf * 0)
    _check_nonnegative("lam", lam)
    _check_nonnegative("dt", dt)
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


def _check_integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    # numpy integers become ints, so arithmetic on them cannot wrap
    return int(value)


def _check_count(name: str, value: int) -> None:
    if value < 0:
        raise DomainError(f"{name} must be >= 0, got {value}")
    # predictions scale the count by floats, so it must convert to one
    if value > sys.float_info.max:
        raise DomainError(
            f"{name} must be at most the largest float, about 1.8e308; "
            f"got an integer of {len(str(value))} digits"
        )


def _check_finite(name: str, value):
    # comparing with inf, not math.isfinite, keeps integers beyond the float range
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Real) and -math.inf < value < math.inf
    ):
        raise DomainError(f"{name} must be a finite number, got {value!r}")
    return value


def _check_nonnegative(name: str, value) -> None:
    _check_finite(name, value)
    if value < 0:
        raise DomainError(f"{name} must be a number >= 0, got {value!r}")


def _check_unit_interval(name: str, value) -> None:
    _check_nonnegative(name, value)
    if value > 1:
        raise DomainError(f"{name} must be in [0, 1], got {value}")


def _check_open_unit(name: str, value) -> None:
    _check_finite(name, value)
    if not 0 < value < 1:
        raise DomainError(f"{name} must be in (0, 1), got {value}")


def _check_replicates(value) -> None:
    if not 1 <= _check_integer("replicates", value) <= MAX_REPLICATES:
        raise DomainError(f"replicates must be in [1, {MAX_REPLICATES}], got {value}")


def _check_iterable(name: str, value):
    try:
        return iter(value)
    except TypeError:
        raise DomainError(f"{name} must be an iterable, got {value!r}") from None


def _check_member(name: str, value, kind: type):
    if not isinstance(value, kind):
        raise DomainError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def _type_check(annotation):
    """The check ``(name, value) -> value`` of a field, by :class:`_Record`'s rules, or None."""
    args = getattr(annotation, "__args__", ())
    if type(None) in args:  # X | None
        check = _type_check(args[0])
        return check and (lambda name, value: value if value is None else check(name, value))
    if getattr(annotation, "__origin__", None) is tuple:  # tuple[X, ...]
        each = _type_check(args[0]) or (lambda name, value: value)
        return lambda name, value: tuple(each(name, v) for v in _check_iterable(name, value))
    if isinstance(annotation, enum.EnumMeta) or annotation is str:
        return lambda name, value: _check_member(name, value, annotation)
    return {int: _check_integer, float: _check_finite}.get(annotation)


class ExcitationParams(_Record):
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


class DecayParams(_Record):
    """Apparatus settings for the in-flight-decay interferometer run.

    ``t1``, ``t2`` and ``t3`` are the times an atom spends before,
    inside, and after the interferometer; ``lam_prime`` is the
    in-superposition decay rate consulted only under
    ``Hypothesis.MODIFIED_RATE``.  ``mu`` is the fraction of atoms
    actually excited at the source; the predictor and the sampler fold
    it into an effective ``t1`` (:meth:`with_purity_folded`), so a
    ``mu`` below 1 needs a nonzero ``lam``.
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
        # survival_fraction refuses an infinite time, so the sum must not overflow
        if self.total_time == math.inf:
            raise DomainError(
                f"t1 + t2 + t3 must be a finite time, got {self.t1!r} + {self.t2!r} "
                f"+ {self.t3!r}"
            )
        if self.lam_prime is not None:
            _check_nonnegative("lam_prime", self.lam_prime)
        if not 0 < self.mu <= 1:
            raise DomainError(f"mu must be in (0, 1], got {self.mu}")
        if self.mu < 1 and self.lam == 0:
            raise DomainError(
                f"mu must be 1 when lam is 0, got {self.mu}: without decay no "
                "flight time leaves only a fraction mu of the atoms excited"
            )
        # the folded record's t1 and total time, which with_purity_folded builds
        pad = purity_time_offset(self.mu, self.lam)
        if self.t1 + pad + self.t2 + self.t3 == math.inf:
            raise DomainError(
                f"mu = {self.mu!r} at lam = {self.lam!r} pads t1 by -ln(mu)/lam = "
                f"{pad!r}, which leaves no finite flight time"
            )

    @property
    def total_time(self) -> float:
        return self.t1 + self.t2 + self.t3

    def with_purity_folded(self) -> "DecayParams":
        """Absorb the source impurity into a longer pre-interferometer leg.

        Returns an equivalent parameter set with ``mu == 1`` and ``t1``
        extended by ``purity_time_offset(mu, lam)``; it never fails,
        since construction refuses ``mu < 1`` with ``lam == 0`` and a
        pad that leaves the folded times infinite.
        """
        if self.mu == 1.0:
            return self
        return self.replace(t1=self.t1 + purity_time_offset(self.mu, self.lam), mu=1.0)


class PhotonParams(_Record):
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


def _readonly(values, dtype):
    """A read-only copy of ``values`` as a numpy array of ``dtype``."""
    import numpy as np

    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


ATOM_LABELS = ("na1", "na2", "nb1", "nb2")
PHOTON_LABELS = ("counter1", "counter2", "lost")


class CountTable(_Record):
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
        super().__init__(counts, labels)

    def __repr__(self):
        # the call that builds the table: its constructor takes the counts by position
        return f"CountTable({', '.join(map(repr, self.counts))}, labels={self.labels!r})"

    def __post_init__(self):
        if len(self.counts) != len(self.labels):
            raise StructureError(
                f"expected {len(self.labels)} counts {self.labels}, got {len(self.counts)}")
        for name, value in zip(self.labels, self.counts):
            if value < 0:
                raise DomainError(f"{name} must be >= 0, got {value}")

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


class Experiment(_Record):
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


_MAX_SEED = 2**64
# numpy's binomial sampler takes an int64 trial count; mzsim.montecarlo
# ports it, int64 overflows included, and matches it up to this n
_MAX_CHUNK = 2**63 - 1


class SimConfig(_Record):
    """Reproducibility contract for a simulation run.

    A run's tallies are a pure function of ``seed`` and the parameters:
    every run draws from the one PCG64 state its seed gives.
    ``chunk_size`` is a legacy field, range-checked and otherwise
    ignored: it does not change the sampled tallies.
    """

    seed: int = 0
    chunk_size: int = 65536

    def __post_init__(self):
        if not 0 <= self.seed < _MAX_SEED:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not 1 <= self.chunk_size <= _MAX_CHUNK:
            raise DomainError(f"chunk_size must be in [1, 2**63 - 1], got {self.chunk_size}")


# screen_distance must exceed source_separation by this factor so the
# small-angle approximation stays below 1e-3 of a fringe period over a
# +-50-fringe window
FAR_FIELD_RATIO = 100.0
# the CLI holds about 200 bytes per point while it formats a profile
# (measured at 2e5 points, CSV and JSON), so the cap keeps one fringes
# run near 200 MB
MAX_FRINGE_POINTS = 10**6
# a discriminate run above the exact cap, with 4 categories, peaked at
# 104 MB RSS with 10**6 replicates and 179 MB with 2**21, so the cap
# keeps one stats run near 200 MB
MAX_REPLICATES = 2**21


class FringeGeometry(_Record):
    """Two-source screen geometry and the sampling window on the plate.

    ``n_points`` is capped at :data:`MAX_FRINGE_POINTS`; the check runs
    before anything is allocated.
    """

    source_separation: float
    wavelength: float
    screen_distance: float
    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        for name in ("source_separation", "wavelength", "screen_distance"):
            value = getattr(self, name)
            if not value > 0:
                raise DomainError(f"{name} must be > 0, got {value}")
        if self.n_points < 2:
            raise DomainError(f"n_points must be >= 2, got {self.n_points}")
        if self.n_points > MAX_FRINGE_POINTS:
            raise DomainError(
                f"n_points must be at most {MAX_FRINGE_POINTS}, got {self.n_points}"
            )
        if not self.x_min < self.x_max:
            raise DomainError(
                f"x_min must be < x_max, got [{self.x_min}, {self.x_max}]"
            )
        if self.screen_distance < FAR_FIELD_RATIO * self.source_separation:
            raise GeometryError(
                "far-field model requires screen_distance >= "
                f"{FAR_FIELD_RATIO:g} * source_separation"
            )

    @property
    def fringe_period(self) -> float:
        """Screen spacing between adjacent coherent maxima."""
        return self.wavelength * self.screen_distance / self.source_separation
