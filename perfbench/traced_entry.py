"""Run one mzsim CLI request with its layer calls recorded as spans.

    python3 perfbench/traced_entry.py TRACE_FILE REQUEST_ID MZSIM_ARGS...

Before calling ``mzsim.cli.main`` this wraps the public functions
(``__all__``) of each layer module wherever ``mzsim.cli`` holds a
reference to them: as a name in its namespace, as a value in one of its
dict tables, or through a module object it imported.  It also wraps
``mzsim.montecarlo.chunk_rng`` and hands out a proxy of each generator
it returns that counts the values drawn without touching the stream.

Spans (name, layer, start, end, parent, request id) are kept in memory
and written to TRACE_FILE as JSON after ``main`` returns.  Nothing is
printed, so stdout must be byte-identical to an untraced run.
"""

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("config", "predict", "montecarlo", "stats", "fringes", "sectors")
EXPERIMENTS = ("excitation", "decay", "photon")


class CountingGenerator:
    """Forwards to a numpy Generator; counts the values each call returns.

    Each proxy serves one chunk on one thread, so its counter needs no lock.
    """

    def __init__(self, rng):
        self._rng = rng
        self.variates = 0

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.variates += int(getattr(out, "size", 1))
            return out

        return counted


def _call_attrs(fn, args, kwargs, result) -> dict:
    """Workload facts of one call, read from its arguments and result."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    attrs = {}
    for name, value in bound.arguments.items():
        if name == "replicates" or name == "method":
            attrs[name] = value
        elif isinstance(value, str) and value in EXPERIMENTS:
            attrs["experiment"] = value
        elif type(value).__name__ == "Hypothesis":
            attrs["hypothesis"] = value.value
        elif type(value).__name__ == "CategoryModel":
            attrs.setdefault("models", []).append(value.probabilities)
        for field in ("n0", "chunk_size", "workers"):
            if hasattr(value, field):
                attrs[field] = int(getattr(value, field))
    models = attrs.pop("models", None)
    if models is not None and len(models) == 2:
        p0, p1 = models
        # the zero-cell design is answered in closed form and draws no replicates
        attrs["closed_form"] = bool(
            attrs.get("method") != "simulation" and p1[p0 == 0].sum() > 0
        )
    if "experiment" not in attrs and fn.__name__.startswith("simulate_"):
        attrs["experiment"] = fn.__name__.split("_", 1)[1]
    if hasattr(result, "positions"):
        attrs["points"] = len(result.positions)
    return attrs


class Tracer:
    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans = []
        self.generators = []
        self.absent = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn, with_attrs: bool = True):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # pool threads hang their spans under the main thread's open span
            above = stack or self._main_stack
            span = {"id": next(self._ids), "name": f"{layer}.{name}", "layer": layer,
                    "parent": above[-1]["id"] if above else None,
                    "request": self.request_id, "error": False}
            stack.append(span)
            result = None
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter_ns()
                stack.pop()
                if with_attrs:
                    span["attrs"] = _call_attrs(fn, args, kwargs, result)
                self.spans.append(span)

        return traced

    def install(self, cli) -> None:
        """Swap every reference cli holds to a layer's public function."""
        cli_modules = {id(v) for v in vars(cli).values() if inspect.ismodule(v)}
        tables = [v for v in vars(cli).values() if isinstance(v, dict)]
        for layer in LAYERS:
            module = importlib.import_module(f"mzsim.{layer}")
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn):
                    continue
                traced = self.wrap(layer, name, fn)
                for attr, value in list(vars(cli).items()):
                    if value is fn:
                        setattr(cli, attr, traced)
                for table in tables:
                    for key, value in table.items():
                        if value is fn:
                            table[key] = traced
                if id(module) in cli_modules:
                    setattr(module, name, traced)
        self._install_chunk_rng()

    def _install_chunk_rng(self) -> None:
        montecarlo = importlib.import_module("mzsim.montecarlo")
        chunk_rng = getattr(montecarlo, "chunk_rng", None)
        if "chunk_rng" not in getattr(montecarlo, "__all__", ()) or chunk_rng is None:
            self.absent.append("mzsim.montecarlo.chunk_rng")
            return

        def counting_chunk_rng(*args, **kwargs):
            proxy = CountingGenerator(chunk_rng(*args, **kwargs))
            self.generators.append(proxy)
            return proxy

        montecarlo.chunk_rng = self.wrap("montecarlo", "chunk_rng", counting_chunk_rng,
                                         with_attrs=False)

    def dump(self, path: str) -> None:
        record = {"request": self.request_id, "spans": self.spans, "absent": self.absent,
                  "variates": sum(g.variates for g in self.generators)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def main() -> int:
    trace_path, request_id, *argv = sys.argv[1:]
    tracer = Tracer(request_id)
    import mzsim.cli as cli

    tracer.install(cli)
    try:
        return tracer.wrap("cli", "main", cli.main, with_attrs=False)(argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
