"""End-to-end and per-layer benchmark of the mzsim CLI.

    python3 perfbench/run.py --workload cli_short|mc_sweep|stats_search \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; children import mzsim from
``src/``.  One client drives the CLI in a closed loop: each request is
a fresh ``mzsim`` process on a generated config file, started only
after the previous one exits.  Children get one BLAS thread, so the
only parallelism is mzsim's own ``workers`` (at most 2).

``--trace 0`` times the requests and prints the end-to-end metrics.
Around each request it times a reference process,
``python3 -c "import numpy"``, which no mzsim code runs in, and the
request's times are reported as multiples of the mean of the reference
runs just before and just after it.  On a shared host whose speed
drifts by tens of per cent over minutes, the ratio of two adjacent
processes hardly moves (see README.md).  Set-up time, bare
``import mzsim.cli``, is timed the same way and reported in seconds at
the reference speed ``REFERENCE_S``.
``--trace 1`` runs every request twice, plain and through
``traced_entry.py``, checks that both print the same bytes, and prints
the per-layer metrics.  Every output is checked against ``oracle.py``;
the last stdout line is one JSON object with the results.
"""

import argparse
import functools
import json
import os
import re
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import layer_metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PY = sys.executable
CLI = "import sys; from mzsim.cli import main; sys.exit(main())"
REFERENCE = [PY, "-c", "import numpy"]
# wall time of the reference on the machine of the ROADMAP item-1 baseline
REFERENCE_S = 0.15
SETUP = [PY, "-c", "import mzsim.cli"]
SETUP_REPEATS = 4
IMPORTTIME_REPEATS = 5
REQUEST_TIMEOUT_S = 60
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Spawner:
    """Runs one child at a time and reaps it with its resource usage."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.pid = None
        signal.signal(signal.SIGALRM, self._timeout)

    def _timeout(self, signum, frame):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)

    def run(self, argv: list[str]) -> dict:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            self.pid = os.posix_spawn(argv[0], argv, self.env,
                                      file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                                    (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
            signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(self.pid, 0)
            except BaseException:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self.pid = None
            wall = time.perf_counter() - start
        return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024, "code": os.waitstatus_to_exitcode(status),
                "out": out_path.read_bytes(), "err": err_path.read_bytes()}


def request_argv(req: workloads.Request, config_path: Path, entry: list[str]) -> list[str]:
    argv = entry + [req.command]
    if req.config is not None:
        argv += ["--config", str(config_path)]
    return argv + req.args


def import_breakdown(spawner: Spawner) -> tuple[float, float]:
    """Median (numpy, rest of mzsim.cli) cumulative import seconds from -X importtime."""
    numpy_s, mzsim_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        res = spawner.run([PY, "-X", "importtime", "-c", "import mzsim.cli"])
        cumulative = {}
        for line in res["err"].decode().splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) * 1e-6
        if res["code"] != 0 or "mzsim.cli" not in cumulative:
            raise RuntimeError(f"import mzsim.cli failed: {res['err'].decode()[-500:]}")
        numpy_s.append(cumulative.get("numpy", 0.0))
        mzsim_s.append(cumulative["mzsim.cli"] - numpy_s[-1])
    return statistics.median(numpy_s), statistics.median(mzsim_s)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def run_requests(spawner, cycles, seconds, traced) -> tuple[list, list]:
    """Closed loop over whole cycles until ``seconds`` have passed.

    Untraced runs also time bare ``import mzsim.cli``, ``SETUP_REPEATS``
    times before the timed phase and once before each cycle, so set-up
    is sampled under the same load as the requests.  There, each set-up
    and each request follows a run of the reference process, and one more
    ends the run; a process's ``ref`` is the mean of the two around it.
    """
    results, setups, timeline, refs = [], [], [], []

    def timed(argv):
        if not traced:
            refs.append(spawner.run(REFERENCE))
        timeline.append(spawner.run(argv))
        return timeline[-1]

    config_path = spawner.workdir / "request.cfg"
    plain = [PY, "-c", CLI]
    if not traced:
        setups.extend(timed(SETUP) for _ in range(SETUP_REPEATS))
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        if not traced:
            setups.append(timed(SETUP))
        for slot, req in enumerate(cycles(index)):
            if req.config is not None:
                config_path.write_text(req.config)
            res = timed(request_argv(req, config_path, plain))
            res["req"], res["slot"] = req, slot
            if traced:
                rid = str(len(results))
                trace_file = spawner.workdir / f"trace-{rid}.json"
                entry = [PY, str(HERE / "traced_entry.py"), str(trace_file), rid]
                res["traced"] = spawner.run(request_argv(req, config_path, entry))
                res["trace_file"] = trace_file
            results.append(res)
        index += 1
    if not traced:
        refs.append(spawner.run(REFERENCE))
        for res, before, after in zip(timeline, refs, refs[1:]):
            res["ref"] = {key: (before[key] + after[key]) / 2 for key in ("wall", "cpu")}
    return results, setups


def check(results) -> tuple[int, int, list[str]]:
    """(failed, known defects, failure notes); known defects are not failures."""
    failed, known, notes = 0, 0, []
    pairs = {}
    for i, res in enumerate(results):
        req = res["req"]
        try:
            status, detail = req.check(res["code"], res["out"], res["err"])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            status, detail = workloads.FAILED, f"unparsable output: {exc!r}"
        if status == workloads.OK and req.pair is not None:
            first = pairs.setdefault(req.pair, res["out"])
            if first != res["out"]:
                status, detail = workloads.FAILED, "workers=1 and workers=2 outputs differ"
        traced = res.get("traced")
        if status != workloads.FAILED and traced is not None and (
                traced["out"] != res["out"] or traced["code"] != res["code"]):
            status, detail = workloads.FAILED, "traced run changed stdout or exit code"
        if status == workloads.FAILED:
            failed += 1
            notes.append(f"request {i} ({req.command}): {detail}")
        elif status == workloads.KNOWN_DEFECT:
            known += 1
    return failed, known, notes


def per_slot(results, value) -> list[float]:
    """Median of ``value(request)`` over the cycles, for each cycle slot."""
    by_slot = {}
    for r in results:
        by_slot.setdefault(r["slot"], []).append(value(r))
    return [statistics.median(v) for v in by_slot.values()]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(results, setups) -> tuple[dict, dict]:
    """(metrics relative to the reference process, the same in seconds)."""
    def rel(key):
        return lambda r: r[key] / r["ref"][key]

    walls = per_slot(results, rel("wall"))
    metrics = {
        "setup_s": (statistics.median(map(rel("wall"), setups)) * REFERENCE_S, "s"),
        "wall_p50_rel": (statistics.median(walls), "ratio"),
        "wall_p90_rel": (p90(walls), "ratio"),
        "cpu_p50_rel": (statistics.median(per_slot(results, rel("cpu"))), "ratio"),
        "requests_per_ref": (len(walls) / sum(walls), "1/ref"),
        "peak_rss_mb": (max(r["rss_mb"] for r in results), "MB"),
    }
    seconds = per_slot(results, lambda r: r["wall"])
    absolute = {
        "setup_wall_s": statistics.median(s["wall"] for s in setups),
        "wall_p50_s": statistics.median(seconds),
        "wall_tail_s": tail([r["wall"] for r in results])[0],
        "cpu_p50_s": statistics.median(per_slot(results, lambda r: r["cpu"])),
        "requests_per_s": len(seconds) / sum(seconds),
        "reference_wall_p50_s": statistics.median(r["ref"]["wall"] for r in results),
    }
    return metrics, absolute


def per_layer(workload, results, failed_ratio, imports) -> tuple[dict, list[str], dict]:
    # a traced child that died without its trace already counts as failed
    records = [json.loads(r["trace_file"].read_text()) for r in results
               if r["trace_file"].is_file()]
    metrics, absent = layer_metrics.span_metrics(records)
    lost = [layer for layer in layer_metrics.DOMINANT[workload]
            if metrics[f"{layer}.calls"][0] == 0]
    if lost:
        raise SystemExit(f"perfbench: layer(s) {', '.join(lost)} recorded no spans on "
                         f"{workload}; traced_entry.py no longer finds their functions "
                         "where mzsim.cli holds them")
    metrics["import.numpy_s"] = (imports[0], "s")
    metrics["import.mzsim_s"] = (imports[1], "s")
    pairs = {}
    for r in results:
        if r["req"].pair is not None:
            pairs.setdefault(r["req"].pair, {})[r["req"].workers] = r["wall"]
    w1 = sum(p[1] for p in pairs.values() if len(p) == 2)
    w2 = sum(p[2] for p in pairs.values() if len(p) == 2)
    metrics["montecarlo.parallel_speedup"] = (w1 / w2 if w2 else 0.0, "ratio")
    metrics["cli.output_bytes"] = (sum(len(r["traced"]["out"]) for r in results), "B")
    plain = sum(r["wall"] for r in results)
    metrics["trace.overhead_ratio"] = (
        sum(r["traced"]["wall"] for r in results) / plain - 1.0, "ratio")
    metrics["failed_ratio"] = (failed_ratio, "ratio")
    labels = {str(i): r["req"].label for i, r in enumerate(results)}
    table = layer_metrics.baseline(records, labels)
    predict = [r["wall"] for r in results if r["req"].command == "predict"
               and r["code"] == 0]
    if predict:
        table["CLI predict process wall"] = round(statistics.median(predict), 4)
    table["import numpy (cumulative)"] = round(imports[0], 4)
    return metrics, absent, table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mzsim" / "cli.py").is_file():
        print(f"perfbench: no mzsim sources under {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        spawner = Spawner(workdir)
        warm = spawner.run(SETUP)  # fills __pycache__
        if warm["code"] != 0:
            print(f"perfbench: import mzsim.cli failed:\n{warm['err'].decode()}",
                  file=sys.stderr)
            return 2
        cycles = functools.partial(workloads.make(args.workload, args.seed), args.seed)
        if args.trace:
            imports = import_breakdown(spawner)
        results, setups = run_requests(spawner, cycles, args.seconds, bool(args.trace))
        failed, known, notes = check(results)
        failed_ratio = (failed + known) / len(results)
        info = [f"requests {len(results)}, failed {failed}, known exit-3 defects {known}, "
                f"failed_ratio {failed_ratio:.4f} (failures and known defects over attempted)"]
        if args.trace:
            metrics, absent, table = per_layer(args.workload, results, failed_ratio, imports)
            if absent:
                info.append(f"absent from the API (metrics reported null): {', '.join(absent)}")
            info.append("baseline " + json.dumps(table))
        else:
            metrics, absolute = end_to_end(results, setups)
            _, pct, n = tail([r["wall"] for r in results])
            info.append(f"{len(setups) - SETUP_REPEATS} cycles; wall_tail_s is p{pct:.1f} of {n} requests "
                        f"({min(TAIL_BEYOND, n - 1)} beyond it)")
            info.append("in seconds, not compared across runs: " + ", ".join(
                f"{name} {value:.4g}" for name, value in absolute.items()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for note in notes[:20]:
        print(f"FAILED {note}", file=sys.stderr)
    for line in info:
        print(line)
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name} {shown} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
