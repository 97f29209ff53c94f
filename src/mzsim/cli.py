"""Command-line interface.

Subcommands::

    mzsim predict      --config FILE [--out PATH] [--format csv|json]
    mzsim simulate     --config FILE [--seed N] [--out PATH] [--format ...]
    mzsim fringes      --config FILE [--out PATH] [--format ...]
    mzsim discriminate --config FILE [--seed N] [--out PATH]
    mzsim plan         --config FILE [--seed N] [--out PATH]
    mzsim sectors-demo [--out PATH]

One table, ``_COMMANDS``, lists each subcommand's handler and options,
and a small parser reads the command line from it as argparse would:
an option by its full name or a unique prefix (``--form json``), its
value as the next argument or after ``=`` (``--format=json``), the
last of a repeated option, a negative number as a value
(``--seed -5``, which the config then refuses), and ``-h``/``--help``
before or after the subcommand.  ``discriminate`` and ``plan`` also
take ``--format``, and ``sectors-demo`` an optional ``--config``.
Help goes to stdout with exit 0.  A usage error (no or an unknown
subcommand, an unknown option or stray argument, a missing value, a
``--format`` that is no :class:`~mzsim.core.Format`, a ``--seed`` that
is not an integer, no ``--config``) writes a usage line and
``mzsim: error: ...`` to stderr, nothing to stdout, and exits 2.  The
config file is read as UTF-8, a leading byte-order mark dropped.

``predict`` emits the expected count table for the configured
experiment and hypothesis.  ``simulate`` emits three rows under the
same header: the sampled tallies, the prediction they are compared to,
and the per-category z-scores.  ``fringes`` emits a two-column
position/intensity profile.  ``discriminate`` and ``plan`` emit flat
JSON reports.  ``sectors-demo`` prints a worked superselection
example (a cross-sector cat state losing its coherences).

Exit codes: 0 success or help, 2 usage or configuration error (the
latter including any domain, structure or hypothesis error a config
value provokes downstream), 3 runtime error: identical models, a
search cap, or an I/O failure.  A
configuration error names the config key (``lambda``), also where the
message comes from a parameter record's field (``lam``).  Data
goes to stdout or ``--out``; diagnostics go to stderr.  CSV writes
floats with 17 significant digits, and JSON with Python's shortest
round-trip ``repr``, as ``json.dumps`` does, so identical
configurations yield byte-identical output.  A process that runs
:func:`main` freezes its live objects at exit (``gc.freeze`` through
:mod:`atexit`), so the interpreter's final garbage collections skip
what the operating system frees anyway; output is written and flushed
as before.

Only ``discriminate`` and ``plan`` run :mod:`~mzsim.stats`, after the
config has been parsed and checked: they build their models with
``stats.build_model`` and call ``stats.discriminate`` and
``stats.min_sample_size``.  ``simulate`` samples with
:mod:`~mzsim.montecarlo`, and ``fringes`` and ``sectors-demo`` format
what :mod:`~mzsim.fringes` and :mod:`~mzsim.sectors` compute.  The
package binds those four layers lazily, and this module calls them
through their module objects.  Which request loads numpy, :mod:`json`
or :mod:`array` is set out once, in the :mod:`mzsim` package docstring.
"""

import atexit
import functools
import math
import numbers
import sys

from . import fringes, montecarlo, predict, sectors, stats
from .config import _FIELD_KEYS, RunConfig, parse_config
from .core import Format
from .errors import (
    ConfigError,
    DomainError,
    MzsimError,
    StructureError,
    UnsupportedHypothesisError,
)

__all__ = ["main"]

# errors that a configuration value provokes, wherever they surface
_CONFIG_ERRORS = (ConfigError, DomainError, StructureError, UnsupportedHypothesisError)


def _config_message(exc: Exception) -> str:
    """``exc``'s message with each record field spelled as its config key."""
    import re  # compiled only on this error path

    # a parameter-record field named in the message, outside the quoted or
    # bracketed text in which messages echo what the user wrote
    field = re.compile(r"('[^']*'|\[[^\]]*\])|\b(" + "|".join(_FIELD_KEYS) + r")\b")
    return field.sub(lambda m: m[1] or _FIELD_KEYS[m[2]], str(exc))


def _fmt(value) -> str:
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return format(float(value), ".17g")


def _csv(header: tuple[str, ...], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    """``json.dumps(payload, allow_nan=False) + "\\n"``, byte for byte, for a
    payload of dicts with str keys, lists, tuples, strings, numbers, bools
    and None, without importing json, which takes longer than the writing.

    The parts are joined once, as json joins its chunks, so a fringes
    profile is held at most twice while it is written.
    """
    parts = []
    _json_parts(payload, parts.append)
    parts.append("\n")
    return "".join(parts)


def _json_parts(v, write) -> None:
    if isinstance(v, str):
        if v.isascii() and v.isprintable() and '"' not in v and "\\" not in v:
            write('"' + v + '"')
        else:  # a string json escapes, which no report holds
            import json

            write(json.dumps(v))
    elif v is None or isinstance(v, bool):
        write("null" if v is None else "true" if v else "false")
    elif isinstance(v, int):
        write(int.__repr__(v))
    elif isinstance(v, float) or isinstance(v, (list, tuple)) and {*map(type, v)} <= {float}:
        # a list of floats only, such as a fringes profile, is list.__repr__'s text
        text = float.__repr__(v) if isinstance(v, float) else repr(list(v))
        if "n" in text:  # inf or nan: no finite float's repr holds an n
            raise ValueError("Out of range float values are not JSON compliant")
        write(text)
    elif isinstance(v, (list, tuple)):
        sep = "["
        for item in v:
            write(sep)
            _json_parts(item, write)
            sep = ", "
        write("]")  # an empty list holds no non-float
    elif isinstance(v, dict):
        sep = "{"
        for key, item in v.items():
            write(sep)
            _json_parts(key, write)
            write(": ")
            _json_parts(item, write)
            sep = ", "
        write("}" if v else "{}")
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _finite(x: float):
    return float(x) if math.isfinite(x) else None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _experiment_inputs(cfg: RunConfig):
    """Validated (kind, params)."""
    _require(cfg.params is not None, "this subcommand needs an [experiment] section")
    return cfg.experiment, cfg.params


def _cmd_predict(cfg: RunConfig) -> str:
    kind, params = _experiment_inputs(cfg)
    _require(cfg.hypothesis is not None, "predict needs a hypothesis")
    table = getattr(predict, f"predict_{kind}")(params, cfg.hypothesis)
    if cfg.output_format is Format.JSON:
        return _json(table.as_dict())
    return _csv(table.labels, [table.values()])


def _z_score(tally: float, prob: float, n0: int) -> float:
    deviation = tally - prob * n0
    variance = n0 * prob * (1.0 - prob)
    if variance > 0:
        return deviation / math.sqrt(variance)
    return math.copysign(math.inf, deviation) if deviation else 0.0


def _cmd_simulate(cfg: RunConfig) -> str:
    kind, params = _experiment_inputs(cfg)
    _require(cfg.hypothesis is not None, "simulate needs a hypothesis")
    predicted = getattr(predict, f"predict_{kind}")(params, cfg.hypothesis)
    sampled = getattr(montecarlo, f"simulate_{kind}")(params, cfg.hypothesis, cfg.sim)
    probs = [float(v) / params.n0 if params.n0 else float(v) for v in predicted.values()]
    z = [
        _z_score(float(tally), prob, params.n0)
        for tally, prob in zip(sampled.values(), probs)
    ]
    if cfg.output_format is Format.JSON:
        return _json(
            {
                "simulated": sampled.as_dict(),
                "predicted": predicted.as_dict(),
                "z_scores": dict(zip(sampled.labels, (_finite(v) for v in z))),
            }
        )
    # row order: simulated tallies, predicted expectations, z-scores
    return _csv(sampled.labels, [sampled.values(), predicted.values(), z])


def _cmd_fringes(cfg: RunConfig) -> str:
    _require(cfg.geometry is not None, "fringes needs a [fringes] section")
    profile = getattr(fringes, f"{cfg.fringe_pattern.value}_pattern")(cfg.geometry)
    x, y = profile._positions, profile._intensity
    if cfg.output_format is Format.JSON:
        return _json({"position": x.tolist(), "intensity": y.tolist()})
    # the rows _csv writes, without its per-value type check
    return "position,intensity\n" + "".join(map("{:.17g},{:.17g}\n".format, x, y))


def _stats_models(cfg: RunConfig):
    """The (h0, h1) pair of ``stats.build_model``."""
    kind, params = _experiment_inputs(cfg)
    opts = cfg.stats
    # visibility stands in for the null hypothesis
    h0 = opts.h0 if opts.visibility is None else None
    model_h0 = stats.build_model(
        kind, params, h0, background=opts.background, visibility=opts.visibility
    )
    model_h1 = stats.build_model(kind, params, opts.h1, background=opts.background)
    return model_h0, model_h1


def _cmd_discriminate(cfg: RunConfig) -> str:
    _require(cfg.output_format is not Format.CSV, "discriminate emits JSON; remove format = csv")
    _require(cfg.stats.counts is not None, "discriminate needs counts in [stats]")
    _require(cfg.stats.alpha is not None, "discriminate needs alpha in [stats]")
    report = stats.discriminate(
        cfg.stats.counts,
        *_stats_models(cfg),
        cfg.stats.alpha,
        replicates=cfg.stats.replicates or 100_000,
        seed=cfg.sim.seed,
    )
    return _json(
        {
            "log_likelihood_ratio": _finite(report.log_likelihood_ratio),
            "p_value_h0": report.p_value_h0,
            "decision": report.decision,
        }
    )


def _cmd_plan(cfg: RunConfig) -> str:
    _require(cfg.output_format is not Format.CSV, "plan emits JSON; remove format = csv")
    _require(cfg.stats.power is not None, "plan needs power in [stats]")
    opts = cfg.stats
    n = stats.min_sample_size(
        *_stats_models(cfg),
        opts.alpha,
        opts.power,
        method=opts.method,
        replicates=opts.replicates or 10_000,
        seed=cfg.sim.seed,
    )
    return _json(
        {"min_n0": n, "power": opts.power, "alpha": opts.alpha, "method": opts.method}
    )


def _matrix_lines(matrix) -> list[str]:
    return [
        "  [" + "  ".join(f"{v.real:+.4f}{v.imag:+.4f}j" for v in row) + "]"
        for row in matrix
    ]


def _cmd_sectors_demo(cfg: RunConfig) -> str:
    space = sectors.SectorSpace((1, 1))
    rho = sectors.DensityMatrix([[0.5, 0.5], [0.5, 0.5]], space)
    projected = sectors.superselect(rho)
    lines = [
        "sector dimensions: (1, 1)",
        "cat state: (|0> + |1>) / sqrt(2), one basis vector per sector",
        "density matrix of the cat state:",
        *_matrix_lines(rho._matrix),
        f"purity: {_fmt(sectors.purity(rho))}",
        "after removing inter-sector coherences:",
        *_matrix_lines(projected._matrix),
        f"purity: {_fmt(sectors.purity(projected))}",
        "the coherent cat state becomes the even classical mixture",
    ]
    return "\n".join(lines) + "\n"


# each subcommand's handler and options, the options in the order its usage
# line and help list them; each option takes one value, and every subcommand
# but sectors-demo requires --config
_COMMANDS = {
    "predict": (_cmd_predict, ("--config", "--out", "--format")),
    "simulate": (_cmd_simulate, ("--config", "--out", "--format", "--seed")),
    "fringes": (_cmd_fringes, ("--config", "--out", "--format")),
    "discriminate": (_cmd_discriminate, ("--config", "--out", "--format", "--seed")),
    "plan": (_cmd_plan, ("--config", "--out", "--format", "--seed")),
    "sectors-demo": (_cmd_sectors_demo, ("--config", "--out")),
}
_FORMATS = tuple(f.value for f in Format)
# (metavar, help) of each option; its names, less "--", key _parse_args' values
_OPTION_HELP = {
    "--config": ("CONFIG", "path to the run configuration file"),
    "--out": ("OUT", "write the artifact here instead of stdout"),
    "--format": ("{" + ",".join(_FORMATS) + "}", "override [output] format"),
    "--seed": ("SEED", "override [simulation] seed"),
}
_HELP_FLAGS = ("-h", "--help")


class _Exit(Exception):
    """Ends option parsing; its args are the exit status and the text to write:
    0 and help for stdout, or 2 and a usage error for stderr."""


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: mzsim [-h] {" + ",".join(_COMMANDS) + "} ..."
    words = ["[-h]"]
    for name in _COMMANDS[command][1]:
        option = f"{name} {_OPTION_HELP[name][0]}"
        required = name == "--config" and command != "sectors-demo"
        words.append(option if required else f"[{option}]")
    return f"usage: mzsim {command} " + " ".join(words)


def _usage_error(command: str | None, message: str) -> _Exit:
    return _Exit(2, f"{_usage(command)}\nmzsim: error: {message}\n")


def _help(command: str | None) -> _Exit:
    rows = [("-h, --help", "show this help message and exit")]
    if command is None:
        text = (
            "\nInterferometer count predictions, Monte Carlo runs, fringe profiles, and\n"
            "hypothesis discrimination.\n\npositional arguments:\n"
            "  {" + ",".join(_COMMANDS) + "}\n"
        )
        width = 22
    else:
        rows += [(f"{name} {_OPTION_HELP[name][0]}", _OPTION_HELP[name][1])
                 for name in _COMMANDS[command][1]]
        text = ""
        width = max(len(flags) for flags, _ in rows) + 2
    text += "\noptions:\n" + "".join(f"  {flags:{width}}{what}\n" for flags, what in rows)
    return _Exit(0, f"{_usage(command)}\n{text}")


def _read_option(arg: str, names: tuple[str, ...], command: str | None):
    """How argparse reads ``arg`` against the option ``names``.

    None for a positional argument; else ``(name, value)``, where
    ``name`` is the option ``arg`` spells in full or by a unique prefix
    ("" for an unknown option) and ``value`` the text after ``=``, or
    after ``-h``, or None.
    """
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in names:
        return arg, None
    name, equals, value = arg.partition("=")
    if equals and name in names:
        return name, value
    if arg[1] == "-":
        matches = [option for option in names if option.startswith(name)]
        value = value if equals else None
    else:
        matches, value = (["-h"], arg[2:]) if arg[:2] == "-h" else ([], None)
    if len(matches) > 1:
        raise _usage_error(command, f"ambiguous option: {arg} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    import re  # only an argument that starts with "-" and names no option gets here

    if re.match(r"-\d+$|-\d*\.\d+$", arg) or " " in arg:
        return None  # a negative number, or text with a space, is a positional
    return "", None


def _check_help(name: str, value: str | None, command: str | None) -> None:
    """Raise help, or argparse's refusal of text given to ``-h``/``--help``."""
    if value is not None:
        # -hh asks for help twice; other text after -h, or any after --help=, is refused
        rest = value.lstrip("h") if name == "-h" else value
        if rest or not value:
            raise _usage_error(command, f"argument -h/--help: ignored explicit argument {rest!r}")
    raise _help(command)


def _parse_args(argv: list[str]) -> tuple[str, dict]:
    """The subcommand and its option values by name, None where not given.

    Reads ``argv`` by argparse's rules for the ``_COMMANDS`` table: an
    option by its name or a unique prefix of it, its value as the next
    argument or after ``=``, the last of a repeated option, and help
    wherever it comes before a refusal.  Raises :class:`_Exit` for help
    and for a usage error.
    """
    extras = []  # unknown arguments, refused once everything else has been read
    i = 0
    while i < len(argv) and argv[i] != "--":
        read = _read_option(argv[i], _HELP_FLAGS, None)
        if read is None:
            break
        if read[0]:
            _check_help(*read, None)
        extras.append(argv[i])
        i += 1
    if argv[i:] in ([], ["--"]):
        raise _usage_error(None, "the following arguments are required: command")
    command, rest = argv[i], argv[i + 1:]
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise _usage_error(
            None, f"argument command: invalid choice: {command!r} (choose from {choices})"
        )
    names = (*_HELP_FLAGS, *_COMMANDS[command][1])
    # everything after "--" is positional; argparse reads every argument before
    # it first, so an ambiguous prefix is refused before anything else
    end = rest.index("--") if "--" in rest else len(rest)
    reads = [_read_option(arg, names, command) for arg in rest[:end]]
    reads += [None] * (len(rest) - end)
    values = dict.fromkeys(name[2:] for name in _OPTION_HELP)
    i = 0
    while i < len(rest):
        read = reads[i]
        i += 1
        if not (read and read[0]):
            extras.append(rest[i - 1])
            continue
        name, value = read
        if name in _HELP_FLAGS:
            _check_help(name, value, command)
        if value is None:
            if i == end or reads[i] is not None:
                raise _usage_error(command, f"argument {name}: expected one argument")
            value = rest[i]
            i += 1
        if name == "--format" and value not in _FORMATS:
            choices = ", ".join(map(repr, _FORMATS))
            raise _usage_error(
                command, f"argument --format: invalid choice: {value!r} (choose from {choices})"
            )
        if name == "--seed":
            try:
                value = int(value)
            except ValueError:
                raise _usage_error(
                    command, f"argument --seed: invalid int value: {value!r}"
                ) from None
        values[name[2:]] = value
    if values["config"] is None and command != "sectors-demo":
        raise _usage_error(command, "the following arguments are required: --config")
    if extras:
        raise _usage_error(None, "unrecognized arguments: " + " ".join(extras))
    return command, values


def _load_config(options: dict) -> RunConfig:
    if options["config"] is None:
        cfg = RunConfig()
    else:
        try:
            with open(options["config"], "rb") as fh:
                data = fh.read()
            # the utf-8-sig codec would cost every request its import
            text = data.removeprefix(b"\xef\xbb\xbf").decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        cfg = parse_config(text)
    if options["format"] is not None:
        cfg.output_format = Format(options["format"])
    if options["out"] is not None:
        cfg.output_path = options["out"]
    if options["seed"] is not None:
        cfg.sim = cfg.sim.replace(seed=options["seed"])
    return cfg


@functools.cache  # once per process, however often main runs
def _freeze_at_exit() -> None:
    """Have the interpreter move every live object to the permanent generation
    as it exits, so that the final collections of its teardown walk none of
    them; the operating system frees them anyway."""
    import gc  # not loaded at start-up, so importing this module does not load it

    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_at_exit()
    try:
        command, options = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except _Exit as stop:
        status, text = stop.args
        (sys.stderr if status else sys.stdout).write(text)
        return status
    try:
        cfg = _load_config(options)
        text = _COMMANDS[command][0](cfg)
    except _CONFIG_ERRORS as exc:
        print(f"mzsim: config error: {_config_message(exc)}", file=sys.stderr)
        return 2
    except (MzsimError, OSError) as exc:
        print(f"mzsim: error: {exc}", file=sys.stderr)
        return 3
    if cfg.output_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(cfg.output_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"mzsim: error: {exc}", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
