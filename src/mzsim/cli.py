"""Command-line interface.

Subcommands::

    mzsim predict      --config FILE [--out PATH] [--format csv|json]
    mzsim simulate     --config FILE [--seed N] [--out PATH] [--format ...]
    mzsim fringes      --config FILE [--out PATH] [--format ...]
    mzsim discriminate --config FILE [--seed N] [--out PATH]
    mzsim plan         --config FILE [--seed N] [--out PATH]
    mzsim sectors-demo [--out PATH]

``predict`` emits the expected count table for the configured
experiment and hypothesis.  ``simulate`` emits three rows under the
same header: the sampled tallies, the prediction they are compared to,
and the per-category z-scores.  ``fringes`` emits a two-column
position/intensity profile.  ``discriminate`` and ``plan`` emit flat
JSON reports.  ``sectors-demo`` prints a worked superselection
example (a cross-sector cat state losing its coherences).

Exit codes: 0 success, 2 configuration error (including any domain,
structure or hypothesis error a config value provokes downstream), 3
runtime error: identical models, a search cap, or an I/O failure.  A
configuration error names the config key (``lambda``), also where the
message comes from a parameter record's field (``lam``).  Data
goes to stdout or ``--out``; diagnostics go to stderr.  Floats are
emitted with 17 significant digits so identical configurations yield
byte-identical output.

``predict``, ``plan``'s zero-cell closed form, and every configuration
error found while parsing the config, computing a prediction or, for
``plan``, the category probabilities are answered before
:mod:`~mzsim.stats` loads.  ``plan`` takes the probabilities and the
closed form from the pure-Python helpers of :mod:`~mzsim.predict`, so
it also refuses a missing ``alpha``, a ``method = closed_form``
without a null-impossible category and a ``background`` budget above
1 first.
``discriminate`` and ``plan``'s power search call
:mod:`~mzsim.stats`, whose exact engine (``mzsim._exact``, loaded by
those requests only) is pure Python: they load numpy only above its
``ROW_CAP``, and ``plan`` also for ``method = simulation``.
``simulate``, ``fringes`` and ``sectors-demo`` load numpy on their
first call into the numpy-backed layers (:mod:`~mzsim.montecarlo`,
:mod:`~mzsim.fringes`, :mod:`~mzsim.sectors`).  The package binds
those layers and :mod:`~mzsim.stats` lazily, and this module calls
them through their module objects.
"""

import argparse
import json
import math
import numbers
import re
import sys
from dataclasses import replace

from . import fringes, montecarlo, predict, sectors, stats
from .config import _FIELD_KEYS, RunConfig, parse_config
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
# a parameter-record field named in an error message, outside the quoted or
# bracketed text in which messages echo what the user wrote
_FIELD_NAME = re.compile(r"('[^']*'|\[[^\]]*\])|\b(" + "|".join(_FIELD_KEYS) + r")\b")


def _config_message(exc: Exception) -> str:
    """``exc``'s message with each record field spelled as its config key."""
    return _FIELD_NAME.sub(lambda m: m[1] or _FIELD_KEYS[m[2]], str(exc))


def _fmt(value) -> str:
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return format(float(value), ".17g")


def _csv(header: tuple[str, ...], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, allow_nan=False) + "\n"


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
    if (cfg.output_format or "csv") == "json":
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
    cfg.sim.chunk_count(params.n0)  # refuse an oversized run before numpy loads
    sampled = getattr(montecarlo, f"simulate_{kind}")(params, cfg.hypothesis, cfg.sim)
    probs = [float(v) / params.n0 if params.n0 else float(v) for v in predicted.values()]
    z = [
        _z_score(float(tally), prob, params.n0)
        for tally, prob in zip(sampled.values(), probs)
    ]
    if (cfg.output_format or "csv") == "json":
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
    pattern = (
        fringes.coherent_pattern
        if cfg.fringe_pattern == "coherent"
        else fringes.incoherent_pattern
    )
    profile = pattern(cfg.geometry)
    if (cfg.output_format or "csv") == "json":
        return _json(
            {
                "position": [float(x) for x in profile.positions],
                "intensity": [float(y) for y in profile.intensity],
            }
        )
    return _csv(("position", "intensity"), zip(profile.positions, profile.intensity))


def _stats_models(cfg: RunConfig, build):
    """The (h0, h1) pair of ``build``: ``stats.build_model``, or its arithmetic
    and checks before ``stats`` loads, ``predict._category_probabilities``."""
    kind, params = _experiment_inputs(cfg)
    opts = cfg.stats
    # visibility stands in for the null hypothesis
    h0 = opts.h0 if opts.visibility is None else None
    model_h0 = build(kind, params, h0, background=opts.background, visibility=opts.visibility)
    model_h1 = build(kind, params, opts.h1, background=opts.background)
    return model_h0, model_h1


def _cmd_discriminate(cfg: RunConfig) -> str:
    _require(cfg.output_format != "csv", "discriminate emits JSON; remove format = csv")
    _require(cfg.stats.counts is not None, "discriminate needs counts in [stats]")
    _require(cfg.stats.alpha is not None, "discriminate needs alpha in [stats]")
    report = stats.discriminate(
        cfg.stats.counts,
        *_stats_models(cfg, stats.build_model),
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
    _require(cfg.output_format != "csv", "plan emits JSON; remove format = csv")
    _require(cfg.stats.power is not None, "plan needs power in [stats]")
    opts = cfg.stats
    # stats.min_sample_size's checks and its closed form, on plain floats; the
    # config has checked power, alpha, replicates and method
    p0, p1 = _stats_models(cfg, predict._category_probabilities)
    predict._check_distinct(p0, p1)
    p_hit = predict._zero_cell_hit_probability(p0, p1, opts.alpha, opts.method)
    if p_hit > 0.0 and opts.method != "simulation":
        n = predict._zero_cell_min_n(p_hit, opts.power)
    else:
        n = stats.min_sample_size(
            *_stats_models(cfg, stats.build_model),
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
        *_matrix_lines(rho.matrix),
        f"purity: {_fmt(sectors.purity(rho))}",
        "after removing inter-sector coherences:",
        *_matrix_lines(projected.matrix),
        f"purity: {_fmt(sectors.purity(projected))}",
        "the coherent cat state becomes the even classical mixture",
    ]
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "predict": _cmd_predict,
    "simulate": _cmd_simulate,
    "fringes": _cmd_fringes,
    "discriminate": _cmd_discriminate,
    "plan": _cmd_plan,
    "sectors-demo": _cmd_sectors_demo,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzsim",
        description="Interferometer count predictions, Monte Carlo runs, "
        "fringe profiles, and hypothesis discrimination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument(
            "--config",
            required=name != "sectors-demo",
            help="path to the run configuration file",
        )
        p.add_argument("--out", help="write the artifact here instead of stdout")
        if name != "sectors-demo":
            p.add_argument(
                "--format", choices=("csv", "json"), help="override [output] format"
            )
        if name in ("simulate", "discriminate", "plan"):
            p.add_argument("--seed", type=int, help="override [simulation] seed")
    return parser


def _load_config(args) -> RunConfig:
    if args.config is None:
        cfg = RunConfig()
    else:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        cfg = parse_config(text)
    if getattr(args, "format", None) is not None:
        cfg.output_format = args.format
    if args.out is not None:
        cfg.output_path = args.out
    if getattr(args, "seed", None) is not None:
        cfg.sim = replace(cfg.sim, seed=args.seed)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        text = _COMMANDS[args.command](cfg)
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
