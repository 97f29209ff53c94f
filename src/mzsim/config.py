"""Line-oriented run-configuration parsing.

Format: ``[section]`` headers followed by ``key = value`` lines.  ``#``
starts a comment and blank lines are ignored.  Recognized sections are
``experiment``, ``simulation``, ``stats``, ``fringes`` and ``output``;
unknown sections, unknown keys, and duplicate keys are hard errors.

The ``[experiment]`` section names the experiment and its parameters::

    [experiment]
    experiment = excitation        # excitation | decay | photon
    hypothesis = pos               # pos | ccqi | modified_rate
    n0 = 10000
    epsilon = 0.2                  # excitation: epsilon, lambda, t
    lambda = 1.0                   # decay: lambda, lambda_prime, t1, t2, t3, mu
    t = 0.693                      # photon: d, u

Every section takes its keys from a record: the experiment's params
record, :class:`~mzsim.core.SimConfig`, :class:`StatsOptions`,
:class:`~mzsim.core.FringeGeometry` and ``_Output``.  A field without a
default is a required key; the others default to the record's own
defaults.

``[simulation]`` holds ``seed`` and two legacy keys, each checked and
otherwise ignored: ``chunk_size`` (1 to 2**63 - 1; a run draws from
the one state its seed gives, whatever the chunk size) and ``workers``
(an integer >= 1: the count-level sampler has no worker pool).  ``[stats]`` holds ``alpha``,
``power``, ``h0``/``h1`` hypothesis names (defaults pos/ccqi),
``counts`` (comma-separated observed tallies), ``background`` (scalar
or per-category comma list), ``visibility``, ``replicates`` (1 to
``core.MAX_REPLICATES``) and ``method`` (auto | closed_form |
simulation).  This module parses each key as its field's type, the records
own the ranges (:class:`StatsOptions` those of ``[stats]``) and :mod:`~mzsim.stats`
the rules of the test: p-values and power are exact while a test's size,
over the categories left after pooling those whose likelihood ratios tie,
is at most ``stats.ROW_CAP``, and ``replicates`` draws and ``seed`` enter
only above it and for ``method = simulation``.
``[fringes]`` holds the screen geometry plus ``pattern``, a
:class:`~mzsim.core.Pattern` (coherent | incoherent).  ``[output]``
holds ``format``, a :class:`~mzsim.core.Format` (csv | json), and ``path``.
"""

import enum
import math

from .core import (
    EXPERIMENTS,
    DecayParams,
    ExcitationParams,
    Format,
    FringeGeometry,
    Hypothesis,
    Method,
    Pattern,
    PhotonParams,
    SimConfig,
    _check_open_unit,
    _check_replicates,
    _check_unit_interval,
    _Record,
)
from .errors import ConfigError, DomainError, GeometryError

__all__ = ["RunConfig", "StatsOptions", "parse_config"]

_SECTIONS = ("experiment", "simulation", "stats", "fringes", "output")

# config keys that differ from the parameter-record field they set
_FIELD_KEYS = {"lam": "lambda", "lam_prime": "lambda_prime"}


class StatsOptions(_Record):
    """Validated contents of the ``[stats]`` section, whose ranges it checks."""

    alpha: float | None = None
    power: float | None = None
    h0: Hypothesis = Hypothesis.POS
    h1: Hypothesis = Hypothesis.CCQI
    counts: tuple[int, ...] | None = None
    background: tuple[float, ...] | None = None
    visibility: float | None = None
    replicates: int | None = None
    method: Method = Method.AUTO

    def __post_init__(self):
        for name in ("alpha", "power"):
            if getattr(self, name) is not None:
                _check_open_unit(name, getattr(self, name))
        if self.counts is not None and any(c < 0 for c in self.counts):
            raise DomainError(f"counts must be non-negative integers, got {self.counts}")
        if self.background is not None and any(b < 0 for b in self.background):
            raise DomainError("background probabilities must be >= 0")
        if self.visibility is not None:
            _check_unit_interval("visibility", self.visibility)
        if self.replicates is not None:
            _check_replicates(self.replicates)


class _Output(_Record):
    """Validated contents of the ``[output]`` section."""

    format: Format | None = None
    path: str | None = None


class RunConfig:
    """One fully validated run: exactly one experiment, one output.

    The parser fills it in section by section; a section left out keeps
    the defaults set here.
    """

    def __init__(self):
        self.experiment: str | None = None
        self.hypothesis: Hypothesis | None = None
        self.params: ExcitationParams | DecayParams | PhotonParams | None = None
        self.sim = SimConfig()
        self.stats = StatsOptions()
        self.geometry: FringeGeometry | None = None
        self.fringe_pattern = Pattern.COHERENT
        self.output_format: Format | None = None  # None means the subcommand default
        self.output_path: str | None = None


def _split_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not (line.endswith("]") and len(line) > 2):
                raise ConfigError(f"malformed section header {raw.strip()!r}", lineno)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(
                    f"unknown section [{name}]; expected one of {', '.join(_SECTIONS)}",
                    lineno,
                )
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        if current is None:
            raise ConfigError("key outside any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", lineno)
        sections[current][key] = (value, lineno)
    return sections


def _as_float(entries: dict, key: str) -> float:
    value, lineno = entries[key]
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}", lineno) from None
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}", lineno)
    return number


def _as_int(entries: dict, key: str) -> int:
    value, lineno = entries[key]
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}", lineno) from None


def _as_member(entries: dict, key: str, kind: type[enum.Enum]):
    value, lineno = entries[key]
    choices = [member.value for member in kind]
    if value not in choices:
        raise ConfigError(
            f"{key} must be one of {', '.join(choices)}, got {value!r}", lineno
        )
    return kind(value)


def _as_text(entries: dict, key: str) -> str:
    return entries[key][0]


def _parser(annotation):
    """A field key's parser, by the annotation rules of :class:`~mzsim.core._Record`."""
    args = getattr(annotation, "__args__", ())
    if type(None) in args:  # X | None
        return _parser(args[0])
    if args:  # tuple[X, ...]
        return lambda entries, key: _parse_number_list(entries, key, args[0])
    if isinstance(annotation, enum.EnumMeta):
        return lambda entries, key: _as_member(entries, key, annotation)
    return {int: _as_int, str: _as_text}.get(annotation, _as_float)


def _record(section: str, cls: type[_Record], entries: dict, parsers: dict):
    """Build ``cls`` from a section whose keys are its fields, plus extra keys.

    A field's key is its name (or its ``_FIELD_KEYS`` spelling), parsed by
    :func:`_parser` and required if the field has no default; ``parsers``
    maps each extra key to its parser.  A parser runs only on a key that
    is present, and an absent extra key parses as None.  Checks run in
    order: unknown keys, missing keys, the extra keys, the field keys,
    then the record's own.
    Returns the record and the parsed extras by key.
    """
    fields = {_FIELD_KEYS.get(name, name): name for name in cls._fields}
    allowed = (*parsers, *fields)
    for key, (_, lineno) in entries.items():
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} in [{section}]; allowed: {', '.join(allowed)}", lineno
            )
    for key, name in fields.items():
        if name not in cls._defaults and key not in entries:
            raise ConfigError(f"[{section}] requires key {key!r}")
    parsed = {key: parse(entries, key) if key in entries else None
              for key, parse in parsers.items()}
    values = {
        name: _parser(cls._fields[name])(entries, key)
        for key, name in fields.items()
        if key in entries
    }
    try:
        return cls(**values), parsed
    except (DomainError, GeometryError) as exc:
        raise ConfigError(str(exc)) from None


def _parse_experiment(entries: dict, cfg: RunConfig) -> None:
    if "experiment" not in entries:
        first_line = min(line for _, line in entries.values()) if entries else None
        raise ConfigError("[experiment] requires an 'experiment' key", first_line)
    kind, lineno = entries["experiment"]
    if kind not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {', '.join(EXPERIMENTS)}, got {kind!r}", lineno
        )
    extras = {"experiment": _as_text, "hypothesis": _parser(Hypothesis)}
    cfg.params, parsed = _record("experiment", EXPERIMENTS[kind].params, entries, extras)
    cfg.experiment, cfg.hypothesis = kind, parsed["hypothesis"]


def _parse_simulation(entries: dict, cfg: RunConfig) -> None:
    cfg.sim, parsed = _record("simulation", SimConfig, entries, {"workers": _as_int})
    if parsed["workers"] is not None and parsed["workers"] < 1:
        raise ConfigError(f"workers must be >= 1, got {parsed['workers']}")


def _parse_number_list(entries: dict, key: str, kind) -> tuple:
    value, lineno = entries[key]
    try:
        numbers = tuple(kind(part.strip()) for part in value.split(","))
    except ValueError:
        raise ConfigError(
            f"{key} must be comma-separated {kind.__name__} values, got {value!r}",
            lineno,
        ) from None
    if kind is float and not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{key} must be finite numbers, got {value!r}", lineno)
    return numbers


def _parse_stats(entries: dict, cfg: RunConfig) -> None:
    cfg.stats, _ = _record("stats", StatsOptions, entries, {})
    if "h0" in entries and "visibility" in entries:
        raise ConfigError("set either h0 or visibility, not both: visibility replaces h0")


def _parse_fringes(entries: dict, cfg: RunConfig) -> None:
    extras = {"pattern": _parser(Pattern)}
    cfg.geometry, parsed = _record("fringes", FringeGeometry, entries, extras)
    cfg.fringe_pattern = parsed["pattern"] or cfg.fringe_pattern


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Every present section is fully validated (types, ranges, and the
    per-experiment key whitelist); which sections must be present is up
    to the subcommand consuming the result.  Parse errors carry the
    line number; validation errors name the offending key and its
    constraint.
    """
    sections = _split_sections(text)
    cfg = RunConfig()
    if "experiment" in sections:
        _parse_experiment(sections["experiment"], cfg)
    if "simulation" in sections:
        _parse_simulation(sections["simulation"], cfg)
    if "stats" in sections:
        _parse_stats(sections["stats"], cfg)
    if "fringes" in sections:
        _parse_fringes(sections["fringes"], cfg)
    if "output" in sections:
        output, _ = _record("output", _Output, sections["output"], {})
        cfg.output_format, cfg.output_path = output.format, output.path
    if cfg.experiment is not None:
        expected = len(EXPERIMENTS[cfg.experiment].labels)
        counts, background = cfg.stats.counts, cfg.stats.background
        if counts is not None and len(counts) != expected:
            raise ConfigError(
                f"counts needs {expected} values for {cfg.experiment}, got {len(counts)}"
            )
        if background is not None and len(background) not in (1, expected):
            raise ConfigError(
                f"background needs 1 or {expected} values for {cfg.experiment}, "
                f"got {len(background)}"
            )
    return cfg
