"""Request streams of the three workloads, generated from the workload seed.

Each workload is an endless sequence of cycles.  A cycle has the same
request kinds in the same slots every time, so runs that complete a
different number of cycles still measure the same mix, and a slot costs
about the same in every cycle and under every seed: the seed only draws
parameter values and ``--seed`` values, from ranges that leave the
amount of work unchanged.  Every request carries its own
output check, coded against :mod:`oracle`, never against mzsim.

Why these workloads:

* ``cli_short``: each request is interpreter start, import, config
  parse and formatting, so it shows changes to import, config and cli,
  and is the no-change witness for montecarlo and stats work.
* ``mc_sweep``: montecarlo does most of each request's work; 4096-event
  chunks expose per-substream set-up, and workers=1/2 pairs exercise
  the thread pool.
* ``stats_search``: stats does most of the work and montecarlo none;
  one large null sample (discriminate) is paired with many small
  power-search probes (plan).
"""

import json
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle

OK, FAILED, KNOWN_DEFECT = "ok", "failed", "known_defect"

PAIRS = (
    ("excitation", "pos"),
    ("excitation", "ccqi"),
    ("decay", "pos"),
    ("decay", "ccqi"),
    ("decay", "modified_rate"),
    ("photon", "pos"),
    ("photon", "ccqi"),
)
MC_N0 = 10**7
# chunk_size of each pair's requests: the three pairs that the ROADMAP
# item-1 baseline times run at mzsim's default, the other four at 4096
MC_CHUNKS = (4096, 65536, 4096, 4096, 65536, 65536, 4096)
DISCRIMINATE_REPLICATES = (10**5, 10**6)
DISCRIMINATE_N = 80
PLAN_REPLICATES = 10**4
MAX_SEED = 2**63

@dataclass
class Request:
    """One mzsim invocation: subcommand, extra args, config text and its check."""

    command: str
    config: str | None
    check: Callable[[int, bytes, bytes], tuple[str, str]]
    args: list[str] = field(default_factory=list)
    pair: int | None = None  # requests sharing a pair id must print identical bytes
    workers: int | None = None
    label: str = ""


def cycle_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload)), index])


def _ini(sections: dict) -> str:
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                     for k, v in entries.items())
    return "\n".join(lines) + "\n"


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def draw_params(rng, experiment: str, hypothesis: str | None, n0: int) -> dict:
    if experiment == "excitation":
        p = {"n0": n0, "epsilon": _u(rng, 0.05, 0.5), "lambda": _u(rng, 0.5, 2.0),
             "t": _u(rng, 0.1, 1.0)}
    elif experiment == "decay":
        p = {"n0": n0, "lambda": _u(rng, 0.5, 2.0), "t1": _u(rng, 0.05, 0.5),
             "t2": _u(rng, 0.1, 1.0), "t3": _u(rng, 0.05, 0.5)}
        if hypothesis == "modified_rate":
            p["lambda_prime"] = _u(rng, 0.2, 1.5)
        if rng.random() < 0.5:
            p["mu"] = _u(rng, 0.8, 1.0)
    else:
        p = {"n0": n0, "d": _u(rng, 0.2, 0.9), "u": _u(rng, 0.2, 0.9)}
    return p


def _experiment_section(experiment: str, hypothesis: str | None, p: dict) -> dict:
    section = {"experiment": experiment}
    if hypothesis is not None:
        section["hypothesis"] = hypothesis
    section.update(p)
    return section


def _fail(why: str) -> tuple[str, str]:
    return FAILED, why


def _expect_ok(code: int, err: bytes):
    if code != 0:
        return _fail(f"exit {code}: {err.decode(errors='replace').strip()[:200]}")
    return None


def _parse_csv(out: bytes) -> tuple[list[str], list[list[str]]]:
    lines = out.decode().split("\n")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    rows = [line.split(",") for line in lines[:-1]]
    return rows[0], rows[1:]


def _table_check(experiment, hypothesis, p, fmt):
    labels = oracle.labels_for(experiment)
    want = oracle.expected_counts(experiment, hypothesis, p)

    def check(code, out, err):
        bad = _expect_ok(code, err)
        if bad:
            return bad
        if fmt == "json":
            payload = json.loads(out)
            header, got = list(payload), [float(v) for v in payload.values()]
        else:
            header, rows = _parse_csv(out)
            if len(rows) != 1:
                return _fail(f"expected one row, got {len(rows)}")
            got = [float(v) for v in rows[0]]
        if tuple(header) != labels:
            return _fail(f"labels {header}")
        for label, g, w in zip(labels, got, want):
            if not oracle.close(g, w):
                return _fail(f"{label} = {g!r}, closed form {w!r}")
        return OK, ""

    return check


def _fringe_check(geometry, pattern, fmt):
    def check(code, out, err):
        bad = _expect_ok(code, err)
        if bad:
            return bad
        if fmt == "json":
            payload = json.loads(out)
            x = np.array(payload["position"])
            y = np.array(payload["intensity"])
        else:
            header, rows = _parse_csv(out)
            if header != ["position", "intensity"]:
                return _fail(f"header {header}")
            x, y = np.array(rows, dtype=float).T
        n = geometry["n_points"]
        if len(x) != n or len(y) != n:
            return _fail(f"{len(x)} points, expected {n}")
        span = geometry["x_max"] - geometry["x_min"]
        if np.max(np.abs(x - np.linspace(geometry["x_min"], geometry["x_max"], n))) > 1e-12 * span:
            return _fail("positions are not an even grid over [x_min, x_max]")
        want = oracle.coherent_intensity(geometry, x) if pattern == "coherent" else 2.0
        if np.max(np.abs(y - want)) > 1e-9:
            return _fail(f"{pattern} intensity off by {np.max(np.abs(y - want)):.3g}")
        return OK, ""

    return check


_COMPLEX = re.compile(r"([+-]\d+\.\d+)([+-]\d+\.\d+)j")


def _sectors_check(code, out, err):
    bad = _expect_ok(code, err)
    if bad:
        return bad
    text = out.decode()
    purities = [float(v) for v in re.findall(r"^purity: (\S+)$", text, re.M)]
    entries = [complex(float(a), float(b)) for a, b in _COMPLEX.findall(text)]
    if len(purities) != 2 or len(entries) != 8:
        return _fail("sectors-demo output lost its two matrices and purities")
    cat, projected = np.array(entries[:4]), np.array(entries[4:])
    if not (np.allclose(cat, 0.5, atol=1e-4)
            and np.allclose(projected, [0.5, 0, 0, 0.5], atol=1e-4)):
        return _fail("cat-state matrices are not [[.5,.5],[.5,.5]] -> diag(.5,.5)")
    if not (oracle.close(purities[0], 1.0) and oracle.close(purities[1], 0.5)):
        return _fail(f"purities {purities}, expected 1 and 0.5")
    return OK, ""


def _plan_closed_form_check(power):
    def check(code, out, err):
        bad = _expect_ok(code, err)
        if bad:
            return bad
        payload = json.loads(out)
        if payload.get("min_n0") != 66:
            return _fail(f"min_n0 = {payload.get('min_n0')}, closed form 66")
        if payload.get("power") != power or payload.get("method") != "auto":
            return _fail(f"plan echoed {payload}")
        return OK, ""

    return check


def _config_error_check(*keys: str, known_exit3: str | None = None):
    """Exit 2 naming one of ``keys``; a known exit-3 message is a known defect."""
    named = re.compile("|".join(rf"(?<!\w){re.escape(k)}(?!\w)" for k in keys))

    def check(code, out, err):
        text = err.decode(errors="replace")
        if code == 2 and named.search(text) and not out:
            return OK, ""
        if known_exit3 is not None and code == 3 and known_exit3 in text:
            return KNOWN_DEFECT, text.strip()
        return _fail(f"exit {code}, expected 2 naming {' or '.join(keys)}: "
                     f"{text.strip()[:200]}")

    return check


_BASE_EXCITATION = {"experiment": "excitation", "hypothesis": "pos", "n0": 1000,
                    "epsilon": 0.2, "lambda": 1.0, "t": 0.5}
_FRINGE_BASE = {"source_separation": 1e-3, "wavelength": 5e-7, "screen_distance": 1.0,
                "x_min": -0.01, "x_max": 0.01, "n_points": 101}


# (subcommand, sections, key the error must name); one defect each
INVALID_CONFIGS = (
    ("predict", {"experiment": {**_BASE_EXCITATION, "epsilom": 0.3}}, "epsilom"),
    ("predict", {"experiment": {**_BASE_EXCITATION, "epsilon": 1.5}}, "epsilon"),
    ("predict", {"experiment": {k: v for k, v in _BASE_EXCITATION.items() if k != "t"}}, "t"),
    ("predict", {"experiment": {**_BASE_EXCITATION, "hypothesis": "foo"}}, "hypothesis"),
    ("plan", {"experiment": _BASE_EXCITATION, "stats": {"alpha": 1.5, "power": 0.9}}, "alpha"),
    ("fringes", {"fringes": {**_FRINGE_BASE, "n_points": 1}}, "n_points"),
    ("simulate", {"experiment": _BASE_EXCITATION, "simulation": {"chunk_size": 0}}, "chunk_size"),
    ("predict", {"experiment": {"experiment": "photon", "hypothesis": "pos", "n0": 100,
                                "d": 0.5, "u": 2.0}}, "u"),
)


def cli_short(seed: int, index: int) -> list[Request]:
    rng = cycle_rng(seed, "cli_short", index)
    reqs = []
    for i, (exp, hyp) in enumerate(PAIRS):
        fmt = ("csv", "json")[i % 2]
        p = draw_params(rng, exp, hyp, int(rng.integers(10**3, 10**7)))
        reqs.append(Request("predict", _ini({"experiment": _experiment_section(exp, hyp, p)}),
                            _table_check(exp, hyp, p, fmt), ["--format", fmt]))
    for j, pattern in enumerate(("coherent", "incoherent")):
        n = int(rng.integers(8000, 10001) if j == 0 else rng.integers(1000, 2001))
        half = _u(rng, 0.005, 0.02)
        g = {"source_separation": _u(rng, 5e-4, 2e-3), "wavelength": _u(rng, 4e-7, 7e-7),
             "screen_distance": _u(rng, 0.5, 2.0), "x_min": -half,
             "x_max": half * _u(rng, 0.5, 1.0), "n_points": n}
        fmt = ("csv", "json")[j]
        reqs.append(Request("fringes", _ini({"fringes": {**g, "pattern": pattern}}),
                            _fringe_check(g, pattern, fmt), ["--format", fmt]))
    reqs.append(Request("sectors-demo", None, _sectors_check))
    design = {"experiment": "excitation", "hypothesis": "pos",
              "n0": int(rng.integers(10, 10**6)), "epsilon": 0.2,
              "lambda": _u(rng, 0.5, 2.0), "t": _u(rng, 0.1, 1.0)}
    stats = {"power": 0.999}
    if rng.random() < 0.5:
        stats["alpha"] = _u(rng, 0.001, 0.1)
    reqs.append(Request("plan", _ini({"experiment": design, "stats": stats}),
                        _plan_closed_form_check(0.999)))
    for k in range(3):
        command, sections, key = INVALID_CONFIGS[(3 * index + k) % len(INVALID_CONFIGS)]
        reqs.append(Request(command, _ini(sections), _config_error_check(key)))
    # known exit-3 cases: config-induced domain errors that should exit 2
    decay = {"experiment": "decay", "hypothesis": "pos", "n0": 1000, "lambda": 0.0,
             "t1": _u(rng, 0.1, 1.0), "t2": 0.5, "t3": 0.5, "mu": _u(rng, 0.5, 0.99)}
    reqs.append(Request("predict", _ini({"experiment": decay}),
                        _config_error_check("lambda", "mu",
                                            known_exit3="no finite time offset")))
    no_alpha = {"power": 0.99, "background": 1e-3}
    reqs.append(Request("plan", _ini({"experiment": _BASE_EXCITATION, "stats": no_alpha}),
                        _config_error_check(
                            "alpha", known_exit3="alpha must be in (0, 1), got None")))
    return reqs


def _simulate_check(exp, hyp, p):
    labels = oracle.labels_for(exp)
    probs = oracle.probabilities(exp, hyp, p)
    want = oracle.expected_counts(exp, hyp, p)
    n0 = p["n0"]

    def check(code, out, err):
        bad = _expect_ok(code, err)
        if bad:
            return bad
        header, rows = _parse_csv(out)
        if tuple(header) != labels or len(rows) != 3:
            return _fail(f"header {header} with {len(rows)} rows")
        tallies = [int(v) for v in rows[0]]
        if sum(tallies) != n0:
            return _fail(f"tallies sum to {sum(tallies)}, not n0 = {n0}")
        for label, g, w in zip(labels, rows[1], want):
            if not oracle.close(float(g), w):
                return _fail(f"predicted {label} = {g}, closed form {w!r}")
        for label, tally, q in zip(labels, tallies, probs):
            z = oracle.z_score(tally, q, n0)
            if not abs(z) < oracle.Z_LIMIT:
                return _fail(f"{label}: tally {tally} is {z:.2f} sigma from {q * n0:.1f}")
        return OK, ""

    return check


def mc_sweep(seed: int, index: int) -> list[Request]:
    rng = cycle_rng(seed, "mc_sweep", index)
    reqs = []
    for i, (exp, hyp) in enumerate(PAIRS):
        p = draw_params(rng, exp, hyp, MC_N0)
        sim = {"seed": int(rng.integers(0, MAX_SEED)),
               "chunk_size": MC_CHUNKS[i]}
        check = _simulate_check(exp, hyp, p)
        for workers in (1, 2):
            text = _ini({"experiment": _experiment_section(exp, hyp, p),
                         "simulation": {**sim, "workers": workers}})
            reqs.append(Request("simulate", text, check, pair=index * len(PAIRS) + i,
                                workers=workers))
    return reqs


# (alpha, power) of each design; drawn by the seed, they would change the
# power search's length and so the work of a plan request
DESIGN_TARGETS = ((0.05, 0.95), (0.01, 0.9), (0.01, 0.95), (0.05, 0.9))


def stats_designs(seed: int) -> list[dict]:
    """Four designs without structural zeros, fixed for the whole run.

    The seed jitters their parameters by a few per cent only, so the
    minimal sample sizes, and with them the work, hardly move.
    """
    rng = cycle_rng(seed, "stats_designs", 0)

    def excitation():
        return {"n0": 1000, "epsilon": _u(rng, 0.19, 0.21), "lambda": _u(rng, 0.97, 1.03),
                "t": _u(rng, 0.68, 0.72)}

    designs = [
        {"experiment": "excitation", "params": excitation(), "background": 1e-3},
        {"experiment": "excitation", "params": excitation(), "background": 1e-4},
        {"experiment": "excitation", "params": excitation(), "visibility": _u(rng, 0.92, 0.93)},
        {"experiment": "decay", "background": 1e-3,
         "params": {"n0": 1000, "lambda": _u(rng, 0.97, 1.03), "t1": _u(rng, 0.1, 0.11),
                    "t2": _u(rng, 0.72, 0.78), "t3": _u(rng, 0.19, 0.21)}},
    ]
    for d, (alpha, power) in zip(designs, DESIGN_TARGETS):
        d["alpha"], d["power"] = alpha, power
    return designs


def design_label(design: dict) -> str:
    knob = ("background", "visibility")["visibility" in design]
    return f"{design['experiment']} {knob} {design[knob]:.3g}"


def _stats_sections(design: dict, stats: dict) -> dict:
    extra = {k: design[k] for k in ("background", "visibility") if k in design}
    return {"experiment": _experiment_section(design["experiment"], None, design["params"]),
            "stats": {**stats, **extra}}


class ExactCache:
    """Exact tests per (design, n); shared by all checks of one run."""

    def __init__(self):
        self._tests = {}

    def get(self, design_index: int, design: dict, n: int) -> oracle.ExactTest:
        key = (design_index, n)
        if key not in self._tests:
            self._tests[key] = oracle.ExactTest(*oracle.model(design), n)
        return self._tests[key]


def _discriminate_check(exact, di, design, counts, alpha, replicates):
    def check(code, out, err):
        bad = _expect_ok(code, err)
        if bad:
            return bad
        payload = json.loads(out)
        test = exact.get(di, design, sum(counts))
        llr, p = payload["log_likelihood_ratio"], payload["p_value_h0"]
        want_llr = test.llr_of(counts)
        if llr is None or abs(llr - want_llr) > 1e-9 * max(1.0, abs(want_llr)):
            return _fail(f"LLR {llr}, exact {want_llr!r}")
        strict, inclusive = (float(v) for v in test.p_value_band(want_llr))
        lo = strict - oracle.mc_slack(strict, replicates)
        hi = inclusive + oracle.mc_slack(inclusive, replicates)
        if not lo <= p <= hi:
            return _fail(f"p = {p!r} outside [{lo:.6g}, {hi:.6g}] around exact "
                         f"[{strict:.6g}, {inclusive:.6g}]")
        decision = ("favor_H1" if p <= alpha else "favor_H0" if llr <= 0 else "inconclusive")
        if payload["decision"] != decision:
            return _fail(f"decision {payload['decision']} with p {p} and LLR {llr}")
        return OK, ""

    return check


def _plan_search_check(exact, di, design):
    alpha, power = design["alpha"], design["power"]
    a_lo, a_hi = oracle.alpha_band(alpha, PLAN_REPLICATES)
    slack = oracle.mc_slack(power, PLAN_REPLICATES)

    def check(code, out, err):
        bad = _expect_ok(code, err)
        if bad:
            return bad
        payload = json.loads(out)
        n = payload["min_n0"]
        if payload["power"] != power or payload["alpha"] != alpha:
            return _fail(f"plan echoed {payload}")
        _, best = exact.get(di, design, n).power_band(a_lo, a_hi)
        if best < power - slack:
            return _fail(f"min_n0 {n}: exact power at most {best:.4f} < {power}")
        if n > 1:
            worst, _ = exact.get(di, design, n - 1).power_band(a_lo, a_hi)
            if worst > power + slack:
                return _fail(f"min_n0 {n}: exact power at n-1 already {worst:.4f}")
        return OK, ""

    return check


class StatsSearch:
    """Stats workload; designs and exact tests live for one run."""

    def __init__(self, seed: int):
        self.designs = stats_designs(seed)
        self.exact = ExactCache()

    def __call__(self, seed: int, index: int) -> list[Request]:
        rng = cycle_rng(seed, "stats_search", index)
        reqs = []
        for di, design in enumerate(self.designs):
            replicates = DISCRIMINATE_REPLICATES[di % 2]
            p0, p1 = oracle.model(design)
            source = p0 if rng.random() < 0.5 else p1
            counts = [int(c) for c in rng.multinomial(DISCRIMINATE_N, source)]
            stats = {"alpha": design["alpha"], "counts": ",".join(map(str, counts)),
                     "replicates": replicates}
            reqs.append(Request(
                "discriminate", _ini(_stats_sections(design, stats)),
                _discriminate_check(self.exact, di, design, counts, design["alpha"], replicates),
                ["--seed", str(int(rng.integers(0, MAX_SEED)))]))
            stats = {"alpha": design["alpha"], "power": design["power"],
                     "replicates": PLAN_REPLICATES}
            reqs.append(Request(
                "plan", _ini(_stats_sections(design, stats)),
                _plan_search_check(self.exact, di, design),
                ["--seed", str(int(rng.integers(0, MAX_SEED)))], label=design_label(design)))
        return reqs


def make(workload: str, seed: int):
    """Cycle generator ``f(seed, index) -> [Request]`` for a workload name."""
    if workload == "cli_short":
        return cli_short
    if workload == "mc_sweep":
        return mc_sweep
    if workload == "stats_search":
        return StatsSearch(seed)
    raise KeyError(workload)


WORKLOADS = ("cli_short", "mc_sweep", "stats_search")
