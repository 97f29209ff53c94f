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

Every section but ``[output]`` takes its keys from a record: the
experiment's params dataclass, :class:`~mzsim.core.SimConfig`,
:class:`StatsOptions` and :class:`~mzsim.core.FringeGeometry`.  A
field without a default is a required key; the others default to the
record's own defaults.

``[simulation]`` holds ``seed`` and ``chunk_size``.  A legacy
``workers`` key must be an integer >= 1 and is otherwise ignored: the
count-level sampler has no worker pool.  ``[stats]`` holds ``alpha``,
``power``, ``h0``/``h1`` hypothesis names (defaults pos/ccqi),
``counts`` (comma-separated observed tallies), ``background`` (scalar
or per-category comma list), ``visibility``, ``replicates`` (1 to
``core.MAX_REPLICATES``) and ``method`` (auto | closed_form |
simulation).  ``discriminate`` and ``plan`` compute p-values and power
exactly while a test's size, over the categories left after pooling
those whose likelihood ratios tie, is at most ``stats.ROW_CAP``;
``replicates`` Monte Carlo draws and ``seed`` enter only above it and
for ``method = simulation``.  ``[fringes]`` holds the screen
geometry plus ``pattern`` (coherent | incoherent).  ``[output]`` holds
``format`` (csv | json) and ``path``.
"""

import dataclasses
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

from .core import (
    EXPERIMENTS,
    MAX_REPLICATES,
    DecayParams,
    ExcitationParams,
    FringeGeometry,
    Hypothesis,
    PhotonParams,
    SimConfig,
)
from .errors import ConfigError, DomainError, GeometryError

__all__ = ["RunConfig", "StatsOptions", "parse_config"]

_SECTIONS = ("experiment", "simulation", "stats", "fringes", "output")

# config keys that differ from the parameter-record field they set
_FIELD_KEYS = {"lam": "lambda", "lam_prime": "lambda_prime"}
_OUTPUT_KEYS = ("format", "path")


@dataclass
class StatsOptions:
    """Validated contents of the ``[stats]`` section."""

    alpha: float | None = None
    power: float | None = None
    h0: Hypothesis = Hypothesis.POS
    h1: Hypothesis = Hypothesis.CCQI
    counts: tuple[int, ...] | None = None
    background: tuple[float, ...] | None = None
    visibility: float | None = None
    replicates: int | None = None
    method: str = "auto"


@dataclass
class RunConfig:
    """One fully validated run: exactly one experiment, one output."""

    experiment: str | None = None
    hypothesis: Hypothesis | None = None
    params: ExcitationParams | DecayParams | PhotonParams | None = None
    sim: SimConfig = field(default_factory=SimConfig)
    stats: StatsOptions = field(default_factory=StatsOptions)
    geometry: FringeGeometry | None = None
    fringe_pattern: str = "coherent"
    output_format: str | None = None  # None means the subcommand default
    output_path: str | None = None


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


def _reject_unknown(section: str, entries: dict, allowed: tuple[str, ...]) -> None:
    for key, (_, lineno) in entries.items():
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} in [{section}]; allowed: {', '.join(allowed)}",
                lineno,
            )


def _as_float(entries: dict, key: str) -> float | None:
    if key not in entries:
        return None
    value, lineno = entries[key]
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}", lineno) from None
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}", lineno)
    return number


def _as_int(entries: dict, key: str) -> int | None:
    if key not in entries:
        return None
    value, lineno = entries[key]
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}", lineno) from None


def _as_choice(entries: dict, key: str, choices: tuple[str, ...]) -> str | None:
    if key not in entries:
        return None
    value, lineno = entries[key]
    if value not in choices:
        raise ConfigError(
            f"{key} must be one of {', '.join(choices)}, got {value!r}", lineno
        )
    return value


def _as_text(entries: dict, key: str) -> str | None:
    return entries[key][0] if key in entries else None


def _as_hypothesis(entries: dict, key: str) -> Hypothesis | None:
    name = _as_choice(entries, key, tuple(h.value for h in Hypothesis))
    return None if name is None else Hypothesis(name)


def _record(section: str, cls: type, entries: dict, extras: dict):
    """Build ``cls`` from a section whose keys are its fields, plus ``extras``.

    Each field's key is its name (or its ``_FIELD_KEYS`` spelling); a
    field without a default is required.  ``extras`` maps every other
    allowed key to its parser.  Checks run in order: unknown keys,
    missing keys, the extra keys, then the field values.  Returns the
    record and the parsed extras by key.
    """
    fields = {_FIELD_KEYS.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    _reject_unknown(section, entries, (*extras, *fields))
    for key, f in fields.items():
        if f.default is dataclasses.MISSING and key not in entries:
            raise ConfigError(f"[{section}] requires key {key!r}")
    parsed = {key: parse(entries, key) for key, parse in extras.items()}
    values = {
        f.name: (_as_int if f.type is int else _as_float)(entries, key)
        for key, f in fields.items()
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
    extras = {"experiment": _as_text, "hypothesis": _as_hypothesis}
    cfg.params, parsed = _record("experiment", EXPERIMENTS[kind].params, entries, extras)
    cfg.experiment, cfg.hypothesis = kind, parsed["hypothesis"]


def _parse_simulation(entries: dict, cfg: RunConfig) -> None:
    cfg.sim, parsed = _record("simulation", SimConfig, entries, {"workers": _as_int})
    if parsed["workers"] is not None and parsed["workers"] < 1:
        raise ConfigError(f"workers must be >= 1, got {parsed['workers']}")


def _parse_number_list(entries: dict, key: str, kind) -> tuple | None:
    if key not in entries:
        return None
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
    _reject_unknown("stats", entries, tuple(f.name for f in dataclasses.fields(StatsOptions)))
    opts = SimpleNamespace()
    opts.alpha = _as_float(entries, "alpha")
    if opts.alpha is not None and not 0.0 < opts.alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {opts.alpha}")
    opts.power = _as_float(entries, "power")
    if opts.power is not None and not 0.0 < opts.power < 1.0:
        raise ConfigError(f"power must be in (0, 1), got {opts.power}")
    opts.h0 = _as_hypothesis(entries, "h0")
    opts.h1 = _as_hypothesis(entries, "h1")
    opts.counts = _parse_number_list(entries, "counts", int)
    if opts.counts is not None and any(c < 0 for c in opts.counts):
        raise ConfigError(f"counts must be non-negative integers, got {opts.counts}")
    opts.background = _parse_number_list(entries, "background", float)
    if opts.background is not None and any(b < 0 for b in opts.background):
        raise ConfigError("background probabilities must be >= 0")
    opts.visibility = _as_float(entries, "visibility")
    if opts.visibility is not None and not 0.0 <= opts.visibility <= 1.0:
        raise ConfigError(f"visibility must be in [0, 1], got {opts.visibility}")
    opts.replicates = _as_int(entries, "replicates")
    if opts.replicates is not None and not 1 <= opts.replicates <= MAX_REPLICATES:
        raise ConfigError(
            f"replicates must be in [1, {MAX_REPLICATES}], got {opts.replicates}"
        )
    opts.method = _as_choice(entries, "method", ("auto", "closed_form", "simulation"))
    # an absent key keeps the record's default
    cfg.stats = StatsOptions(**{k: v for k, v in vars(opts).items() if v is not None})


def _parse_fringes(entries: dict, cfg: RunConfig) -> None:
    patterns = ("coherent", "incoherent")
    extras = {"pattern": lambda entries, key: _as_choice(entries, key, patterns)}
    cfg.geometry, parsed = _record("fringes", FringeGeometry, entries, extras)
    cfg.fringe_pattern = parsed["pattern"] or cfg.fringe_pattern


def _parse_output(entries: dict, cfg: RunConfig) -> None:
    _reject_unknown("output", entries, _OUTPUT_KEYS)
    cfg.output_format = _as_choice(entries, "format", ("csv", "json"))
    cfg.output_path = _as_text(entries, "path")


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
        _parse_output(sections["output"], cfg)
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
