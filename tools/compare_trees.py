"""Run the same seeded random requests through two source trees and compare them.

    python tools/compare_trees.py PARENT_SRC CHANGE_SRC --seed S --count N

``PARENT_SRC`` and ``CHANGE_SRC`` are the ``src`` directories of two
checkouts of mzsim.  The script draws ``N`` request configurations
from ``random.Random(S)``: ``predict``, ``simulate``, ``fringes``,
``sectors-demo``, ``discriminate`` and ``plan``, over all three
experiments, with a background (scalar or per category), a visibility
or neither, and with sample sizes on both sides of the exact engine's
cap.  An explicit ``h0`` is never set together with ``visibility``,
except as a defect: one ``[stats]`` section in ten carries exactly one
defect (a bad ``alpha``, ``power``, ``visibility``, ``replicates``,
``counts``, ``background`` or ``method``, ``h0`` beside
``visibility``, or an unknown key).  One request in ten also carries
one defect in its ``[experiment]``, ``[simulation]``, ``[stats]`` or
``[fringes]`` section, or in an added ``[output]`` (``SECTION_DEFECTS``:
a bad number, integer, hypothesis, method, pattern or format, a value
out of range, or an unknown key), drawn from a third generator, seeded
with ``"S defects"``, so they do not move the other configurations a
seed draws.  The refusals' stderr is compared as well.
A fifth of the requests carry an ``[output]`` section (``OUTPUT_SHARE``)
with ``format = csv`` or ``json``, ``path`` to a file, or both, drawn
from a generator seeded with ``"S output"``; a defect may then spoil
that section too.
A ``simulate`` request draws ``n0`` log-uniform below 10**6 and a
chunk size of 999, 4096, 65536 or 10**6; a fifth of them get an
``n0`` at an edge of the sampler (``EDGE_SHARE``, ``N0_EDGES``) from a
fourth generator, seeded with ``"S edges"``: 0, 1, log-uniform up to
2**63 - 1, 2**63 - 1 itself (the most trials numpy's binomial takes),
or 2**63, which is refused.
A ``fringes`` profile has 1000 to 10**4 points, uniform, or 2 to 10**4,
log-uniform, each half the time, over a window of up to about 500
fringe periods.
The command lines come from a second generator, seeded with the text
``"S flags"``, so they do not move the configurations a seed draws:
``--format json`` (half the ``predict``, ``simulate`` and ``fringes``
requests), ``--seed`` given twice (a fifth of the seeded commands),
and ``--out`` to a file (a fifth of all), each spelled in full or by a
unique prefix, with its value after a space or ``=``.  One request in
a hundred also carries a malformed option (``MALFORMED``).
Each tree runs every request in one subprocess, in process through
``mzsim.cli.main`` (a ``SystemExit`` counts as its exit code), and the
two outputs are compared request by request:

* identical: stdout, stderr, exit code and the ``--out`` file are the
  same bytes;
* usage error: both trees refused the command line with exit 2 and a
  usage line, and only stderr differs;
* p-value drift: a ``discriminate`` whose log likelihood ratio and
  decision agree and whose ``p_value_h0`` alone moved; the largest
  relative move is reported;
* changed: anything else, listed with its configuration.

Per command, the script prints the request count, each tree's summed
time in ``mzsim.cli.main`` and the tally above.  The two trees run one
after the other, not interleaved, so a gap of a few per cent between
their times is host drift, not a change in speed.

The exit status is 0 when nothing changed and no p-value moved by more
than ``REL_TOL`` relative, else 1; a usage error is not a change.
Standard library only; the subprocesses need what mzsim itself imports.
"""

import argparse
import collections
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time

COMMANDS = ("predict", "simulate", "fringes", "sectors-demo", "discriminate", "plan")
# the share of requests per command, in COMMANDS order
WEIGHTS = (1, 2, 1, 0.05, 4, 2)
CELLS = {"excitation": 4, "decay": 4, "photon": 3}
# the largest relative p-value drift that passes
REL_TOL = 1e-12
# the share of [stats] sections that carry one defect
DEFECT_SHARE = 0.1
# bad values per [stats] key, given the number of cells; h0 is bad beside a
# visibility, and seed belongs to [simulation]
DEFECTS = {
    "alpha": lambda ncat: ["0", "1", "1.5", "-0.1", "nan", "high"],
    "power": lambda ncat: ["0", "1", "2.5", "inf"],
    "visibility": lambda ncat: ["-3.0", "1.5", "nan", "full"],
    "replicates": lambda ncat: ["0", "-5", str(2**21 + 1), "1.5"],
    "counts": lambda ncat: [",".join(["-1"] + ["5"] * (ncat - 1)), "1,x" + ",3" * (ncat - 2),
                            "5", ",".join(["7"] * (ncat + 1))],
    "background": lambda ncat: ["-1e-3", "nan", "1e-3,1e-3", ",".join(["1e-3"] * (ncat - 1))
                                + ",-1e-3"],
    "method": lambda ncat: ["fast", "exact", "Auto"],
    "h0": lambda ncat: ["pos"],
    "seed": lambda ncat: ["3"],
}
# the share of simulate requests given an n0 at an edge of the sampler, and the
# edges: None stands for log-uniform up to the int64 bound 2**63 - 1
EDGE_SHARE = 0.2
N0_EDGES = (0, 1, None, 2**63 - 1, 2**63)
# bad values per key of the record-backed sections; a key the section lacks is
# added only to the sections whose keys all have defaults, and [output], which
# no request draws otherwise, is added to any request
SECTION_DEFECTS = {
    "experiment": {"n0": ["1.5", "x", "-3", "1e400"], "hypothesis": ["bogus", "POS"],
                   "epsilon": ["nan", "1.5"], "lambda": ["-1", "inf"], "t": ["-0.5"],
                   "mu": ["0", "1.5", "nan"], "lambda_prime": ["-2", "x"],
                   "t1": ["inf"], "d": ["2"], "u": ["-0.1", "nan"]},
    "simulation": {"seed": ["-1", "1.5", str(2**64)], "chunk_size": ["2.5", "0"],
                   "workers": ["0", "2.5"]},
    "fringes": {"n_points": ["2.5", "1", "x"], "wavelength": ["inf", "-5e-7"],
                "x_min": ["nan", "1"], "source_separation": ["0"], "pattern": ["striped"]},
    "stats": {"alpha": ["1.5"], "power": ["nan"], "replicates": ["0", "1.5"],
              "method": ["fast"], "counts": ["-1,2,3,4"], "background": ["x"]},
    "output": {"format": ["xml"], "foo": ["1"]},
}
# the sections a defect may add a key to
OPEN_SECTIONS = ("simulation", "stats", "output")
# the share of requests given an [output] section, and the keys it may hold
OUTPUT_SHARE = 0.2
OUTPUT_KEYS = (("format",), ("path",), ("format", "path"))


def _uniform(rng, lo, hi, digits=4):
    return round(rng.uniform(lo, hi), digits)


def _log_uniform_int(rng, lo, hi):
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _experiment(rng, kind, hypotheses):
    entries = {"experiment": kind, "hypothesis": rng.choice(hypotheses),
               "n0": _log_uniform_int(rng, 1, 10**6)}
    if kind == "excitation":
        entries.update(epsilon=_uniform(rng, 0.02, 0.6), t=rng.choice(
            [0.6931471805599453, _uniform(rng, 0.1, 2.0)]), **{"lambda": 1.0})
    elif kind == "decay":
        entries.update(t1=_uniform(rng, 0.0, 0.5), t2=_uniform(rng, 0.1, 1.0),
                       t3=_uniform(rng, 0.0, 0.5), mu=rng.choice([1.0, _uniform(rng, 0.5, 1.0)]),
                       **{"lambda": 1.0, "lambda_prime": _uniform(rng, 0.3, 0.95)})
    else:
        entries.update(d=_uniform(rng, 0.1, 1.0), u=_uniform(rng, 0.3, 1.0))
    return entries


def _rough_probabilities(e, hypothesis):
    """Category probabilities near the model's, to draw plausible counts from."""
    if e["experiment"] == "excitation":
        s = math.exp(-e["t"])
        alive, dead = e["epsilon"] * s, e["epsilon"] * (1 - s)
        if hypothesis == "pos":
            return [1 - alive, alive, 0.0, 0.0]
        return [1 - alive / 2 - dead / 2, alive / 2, dead / 2, alive / 2]
    if e["experiment"] == "decay":
        rate = e["lambda_prime"] if hypothesis == "modified_rate" else 1.0
        s1, s2, s3 = math.exp(-e["t1"]), math.exp(-rate * e["t2"]), math.exp(-e["t3"])
        na2 = s1 * s2 * s3
        nb1 = s1 * (1 - s2) / 2 if hypothesis == "ccqi" else 0.0
        return [1 - na2 - nb1, na2, nb1, 0.0]
    ud = e["d"] * e["u"]
    if hypothesis == "pos":
        return [ud + (1 - ud) / 4, (1 - ud) / 4, (1 - ud) / 2]
    survivors = 0.5 + 0.5 * ud
    return [survivors / 2, survivors / 2, 1 - survivors]


def _counts(rng, n, probs, background):
    """``n`` counts near a multinomial draw, one binomial split at a time."""
    probs = [p + background for p in probs]
    rest, left, counts = sum(probs), n, []
    for p in probs[:-1]:
        q = min(1.0, p / rest) if rest > 0 else 0.0
        c = round(rng.gauss(left * q, math.sqrt(left * q * (1 - q))))
        counts.append(min(left, max(0, c)))
        left, rest = left - counts[-1], rest - p
    return ",".join(map(str, [*counts, left]))


def _hypotheses(kind):
    return ("pos", "ccqi", "modified_rate") if kind == "decay" else ("pos", "ccqi")


def _stats(rng, command, e):
    kind, ncat = e["experiment"], CELLS[e["experiment"]]
    hypotheses = _hypotheses(kind)
    shape = rng.choice(["none", "scalar", "list", "visibility"])
    # visibility against pos is the exclusion design
    entries = {"h1": rng.choice(hypotheses[1:] + (("pos",) if shape == "visibility" else ()))}
    background = 0.0
    if shape in ("scalar", "list", "visibility") and rng.random() < 0.8:
        background = rng.choice([1e-4, 1e-3, 1e-2])
        entries["background"] = (background if shape != "list"
                                 else ",".join([str(background)] * ncat))
    if shape == "visibility":
        entries["visibility"] = _uniform(rng, 0.5, 1.0)
    elif rng.random() < 0.5:
        entries["h0"] = "pos"
    entries["alpha"] = rng.choice([0.001, 0.01, 0.05])
    entries["replicates"] = rng.choice([200, 1000, 2000])
    if command == "discriminate":
        truth = rng.choice(["pos", entries["h1"]])
        n = _log_uniform_int(rng, 5, 10**7 if kind == "decay" and background == 0 else 20000)
        entries["counts"] = _counts(rng, n, _rough_probabilities(e, truth), background)
    else:
        entries["power"] = rng.choice([0.5, 0.8, 0.9])
        if rng.random() < 0.1:
            entries["method"] = "simulation"
    if rng.random() < DEFECT_SHARE:
        key = rng.choice(sorted(DEFECTS))
        entries[key] = rng.choice(DEFECTS[key](ncat))
        if key == "h0":
            entries.setdefault("visibility", _uniform(rng, 0.5, 1.0))
        elif key == "visibility":
            entries.pop("h0", None)
    return entries


# spellings of an option and its value, one picked per request
SPELLINGS = ("{name} {value}", "{name}={value}", "{prefix} {value}", "{prefix}={value}")
# the option prefixes drawn, unique in every subcommand that takes the option
PREFIXES = {"--format": "--form", "--seed": "--s", "--out": "--o"}
# the share of requests with a malformed command line, and the lines drawn
MALFORMED_SHARE = 0.01
MALFORMED = (["--format", "xml"], ["--seed", "abc"], ["--seed"], ["--bogus"], ["extra"],
             ["--format"], ["--=x"], ["-hx"])
SEEDED = ("simulate", "discriminate", "plan")


def _spelled(rng, name: str, value: str) -> list[str]:
    spelling = rng.choice(SPELLINGS).format(name=name, prefix=PREFIXES[name], value=value)
    return spelling.split(" ", 1)


def _flags(rng, command: str, json_format: bool) -> list[str]:
    """One request's options: ``--format json``, the ``--seed`` override given
    twice, ``--out`` to the worker's file (``{out}``), in any spelling, or now
    and then a malformed command line."""
    flags = _spelled(rng, "--format", "json") if json_format else []
    if command in SEEDED and rng.random() < 0.2:
        for _ in range(2):  # the last one counts
            flags += _spelled(rng, "--seed", str(rng.randrange(2**64)))
    if rng.random() < 0.2:
        flags += _spelled(rng, "--out", "{out}")
    if rng.random() < MALFORMED_SHARE:
        flags += rng.choice(MALFORMED)
    return flags


def _add_defect(rng, sections) -> None:
    """One time in ten, set one key of one of ``sections``, or of an added
    ``[output]``, to a bad value."""
    names = sorted((set(sections) | {"output"}) & set(SECTION_DEFECTS))
    if rng.random() >= DEFECT_SHARE:
        return
    name = rng.choice(names)
    entries = sections.setdefault(name, {})
    key = rng.choice(sorted(k for k in SECTION_DEFECTS[name]
                            if k in entries or name in OPEN_SECTIONS))
    entries[key] = rng.choice(SECTION_DEFECTS[name][key])


def _add_output(rng, sections) -> None:
    """One time in five, add an ``[output]`` section with a format, a path
    to the worker's file (``{out}``), or both."""
    if rng.random() >= OUTPUT_SHARE:
        return
    keys = rng.choice(OUTPUT_KEYS)
    sections["output"] = {key: rng.choice(["csv", "json"]) if key == "format" else "{out}"
                          for key in keys}


def _add_edge(rng, experiment: dict) -> None:
    """One time in five, move a simulate request's ``n0`` to an edge of the sampler."""
    if rng.random() >= EDGE_SHARE:
        return
    n0 = rng.choice(N0_EDGES)
    # exp(log(2**63 - 1)) rounds up to 2**63
    experiment["n0"] = min(_log_uniform_int(rng, 1, 2**63 - 1), 2**63 - 1) if n0 is None else n0


def requests(seed: int, count: int):
    """``count`` (command, config text, flags) triples drawn from ``seed``.

    The flags come from their own stream, so a seed draws the same
    configurations whatever flags are drawn.
    """
    rng, flag_rng = random.Random(seed), random.Random(f"{seed} flags")
    defect_rng = random.Random(f"{seed} defects")
    edge_rng = random.Random(f"{seed} edges")
    output_rng = random.Random(f"{seed} output")
    out = []
    for _ in range(count):
        command = rng.choices(COMMANDS, WEIGHTS)[0]
        sections = {}
        json_format = command in ("predict", "simulate", "fringes") and rng.random() < 0.5
        flags = _flags(flag_rng, command, json_format)
        if command == "fringes":
            # periods of 7.5e-5 to 2.8e-3 over windows up to 0.04 wide: up to ~500 fringes
            half = _uniform(rng, 1e-4, 0.02, 6)
            sections["fringes"] = {
                "source_separation": _uniform(rng, 5e-4, 2e-3, 7),
                "wavelength": _uniform(rng, 3e-7, 7e-7, 9),
                "screen_distance": _uniform(rng, 0.5, 2.0), "x_min": -half,
                "x_max": round(half * rng.uniform(-0.5, 1.0), 7),
                "n_points": (rng.randint(1000, 10**4) if rng.random() < 0.5
                             else _log_uniform_int(rng, 2, 10**4 + 1)),
                "pattern": rng.choice(["coherent", "incoherent"])}
        elif command != "sectors-demo":
            kind = rng.choice(sorted(CELLS))
            sections["experiment"] = e = _experiment(rng, kind, _hypotheses(kind))
            if command == "simulate":
                sections["simulation"] = {"seed": rng.randrange(2**64),
                                          "chunk_size": rng.choice([999, 4096, 65536, 10**6])}
                _add_edge(edge_rng, e)
            elif command in ("discriminate", "plan"):
                sections["stats"] = _stats(rng, command, e)
                sections["simulation"] = {"seed": rng.randrange(2**32)}
        _add_output(output_rng, sections)
        _add_defect(defect_rng, sections)
        text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
                       for name, entries in sections.items())
        out.append((command, text or None, flags))
    return out


def _design(text: str):
    """A ``discriminate`` request's pooled cells, those possible under both
    models, and whether the test lies above the exact cap; None if it fails."""
    from mzsim import cli, config, stats
    from mzsim.errors import MzsimError

    try:
        cfg = config.parse_config(text)
        p0, p1 = (model._p for model in cli._stats_models(cfg))
        n = sum(cfg.stats.counts)
        groups = stats._pooled_cells(n, p0, p1)
        finite = sum(a > 0 < b for a, b in zip(stats._pooled(p0, groups),
                                                stats._pooled(p1, groups)))
        return [len(groups), finite, stats._size(n, p0, p1) > stats.ROW_CAP]
    except (MzsimError, AttributeError):  # a refused request, or a tree without these names
        return None


def _worker() -> None:
    """Run the requests on stdin through ``mzsim.cli.main``; print the results
    and, for ``discriminate``, the design."""
    from mzsim.cli import main

    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path, out_path = os.path.join(tmp, "run.cfg"), os.path.join(tmp, "out")
        for command, text, flags in json.load(sys.stdin):
            argv = [command, *(flag.replace("{out}", out_path) for flag in flags)]
            if text is not None:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text.replace("{out}", out_path))
                argv += ["--config", path]
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as stop:  # a tree whose parser exits on a usage error
                    code = stop.code
            seconds = time.perf_counter() - start
            written = None
            if os.path.exists(out_path):
                with open(out_path, encoding="utf-8") as fh:
                    written = fh.read()
                os.remove(out_path)
            # the file's name differs between the two processes
            out, err = (stream.getvalue().replace(out_path, "{out}") for stream in (out, err))
            results.append([out, err, code, seconds,
                            _design(text) if command == "discriminate" else None, written])
    json.dump(results, sys.stdout)


def _usage_error(a, b) -> bool:
    """Whether both trees refused the command line, and only stderr differs."""
    return (a[2] == b[2] == 2 and a[0] == b[0] and a[5] == b[5]
            and a[1].startswith("usage: mzsim") and b[1].startswith("usage: mzsim"))


def _run(src: str, batch) -> list:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker"],
                          input=json.dumps(batch), capture_output=True, text=True,
                          env=env, check=True)
    return json.loads(done.stdout)


def _drift(a: str, b: str):
    """The relative move of ``p_value_h0`` if it alone differs, else None."""
    try:
        a, b = json.loads(a), json.loads(b)
    except ValueError:
        return None
    if not (isinstance(a, dict) and a.keys() == b.keys() and "p_value_h0" in a):
        return None
    if any(a[k] != b[k] for k in a if k != "p_value_h0"):
        return None
    pa, pb = a["p_value_h0"], b["p_value_h0"]
    return abs(pa - pb) / max(abs(pa), abs(pb))


def main(argv=None) -> int:
    if argv is None and sys.argv[1:] == ["--worker"]:
        _worker()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=1000)
    args = parser.parse_args(argv)
    batch = requests(args.seed, args.count)
    start = time.perf_counter()
    parent, change = _run(args.parent_src, batch), _run(args.change_src, batch)
    tally = collections.defaultdict(collections.Counter)
    changed, designs = [], collections.Counter()
    # the largest p-value drift and its request, per number of cells possible under both models
    worst = collections.defaultdict(lambda: (0.0, None))
    for (command, text, flags), a, b in zip(batch, parent, change):
        if command in ("discriminate", "plan"):
            stats = text.split("[stats]\n")[1]
            shape = ("visibility" if "visibility" in stats
                     else "background" if "background" in stats else "neither")
            designs[f"{command} {text.split()[3]} {shape}"] += 1
        designs[f"{command} exit {b[2]}"] += 1
        if text and "[output]" in text:
            output = text.split("[output]\n")[1]
            keys = " and ".join(line.split(" =")[0] for line in output.splitlines())
            designs[f"[output] with {keys}, exit {b[2]}"] += 1
        if b[4] is not None:
            designs[f"discriminate {b[4][0]} pooled cells, {b[4][1]} possible under both"] += 1
            designs["discriminate above the exact cap"] += b[4][2]
        if a[:3] + a[5:] == b[:3] + b[5:]:
            tally[command]["identical"] += 1
            continue
        if _usage_error(a, b):
            tally[command]["usage error"] += 1
            continue
        # the data of a discriminate went to stdout or, with --out, to the file
        same = a[1:3] == b[1:3] and (a[5] is None) == (b[5] is None)
        drift = (_drift(a[0] + (a[5] or ""), b[0] + (b[5] or ""))
                 if same and command == "discriminate" else None)
        if drift is None:
            tally[command]["changed"] += 1
            changed.append((command, flags, text, a[:3] + a[5:], b[:3] + b[5:]))
        else:
            tally[command]["p-value drift"] += 1
            key = b[4][1] if b[4] else None
            worst[key] = max(worst[key], (drift, text))
    print(f"{len(batch)} requests, seed {args.seed}, "
          f"{time.perf_counter() - start:.0f} s for both trees")
    print(f"  {'command':13s} requests  parent s  change s")
    for command in COMMANDS:
        runs = [i for i, request in enumerate(batch) if request[0] == command]
        parent_s, change_s = (sum(tree[i][3] for i in runs) for tree in (parent, change))
        outcomes = ", ".join(f"{v} {k}" for k, v in sorted(tally[command].items()))
        print(f"  {command:13s} {len(runs):8d} {parent_s:9.2f} {change_s:9.2f}  {outcomes}".rstrip())
    for key, (drift, text) in sorted(worst.items(), key=lambda item: str(item[0])):
        print(f"largest relative p-value drift, {key} cells possible under both: {drift:.3g}\n"
              + "".join(f"    {line}\n" for line in text.splitlines()))
    slowest = max(range(len(batch)), key=lambda i: max(parent[i][3], change[i][3]))
    print(f"slowest request: {batch[slowest][0]}, {parent[slowest][3]:.2f} s parent, "
          f"{change[slowest][3]:.2f} s change")
    print("coverage:")
    for key, value in sorted(designs.items()):
        print(f"  {key}: {value}")
    for command, flags, text, a, b in changed:
        print(f"\nchanged: {command} {' '.join(flags)}\n{text}parent: {a}\nchange: {b}")
    return 1 if changed or max((d for d, _ in worst.values()), default=0.0) > REL_TOL else 0


if __name__ == "__main__":
    sys.exit(main())
