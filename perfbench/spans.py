"""Spans and counters around the calls into each layer of ``weyltype``.

The probes are listed in ``layers.json``. ``install`` wraps each target at
its definition and at every ``weyltype.*`` module attribute (or module-level
dict value, such as ``selftest.SUITES``) bound to the same object, because
``from .automorphisms import decompose_automorphism`` copies the name.

A span records name, start, end, parent span and request id, all kept in
memory until ``write``. Self time is a span's duration minus the time its
child spans cover; busy time counts only the outermost span of a name, so a
recursive call is not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

LAYERS_FILE = Path(__file__).with_name("layers.json")

STAT_UNITS = {
    "calls": ("count", "lower"),
    "busy_s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "yielded": ("count", "lower"),
    "term_pairs": ("count", "lower"),
    "terms_out": ("count", "lower"),
    "useful_ratio": ("ratio", "higher"),
    "tried": ("count", "lower"),
    "found_ratio": ("ratio", "higher"),
    "accept_ratio": ("ratio", "higher"),
}
RECORD_STATS = {
    "span": ("calls", "busy_s", "self_s"),
    "busy": ("busy_s",),
    "count": ("calls",),
    "yields": ("yielded",),
}
# measured by the benchmark itself, not by a probe
EXTRA_METRICS = {
    "cli.import_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def load_probes() -> list[dict]:
    data = json.loads(LAYERS_FILE.read_text(encoding="utf-8"))
    return [probe for layer in data["layers"] for probe in layer["probes"]]


def metric_specs() -> dict:
    """Every per-layer metric name with its (unit, better), in table order."""
    specs = {}
    for probe in load_probes():
        for stat in RECORD_STATS[probe["record"]] + tuple(probe.get("extra", ())):
            specs[f"{probe['name']}.{stat}"] = STAT_UNITS[stat]
    specs.update(EXTRA_METRICS)
    return specs


class Tracer:
    """In-memory span store plus per-name aggregates."""

    def __init__(self, names: list[str]):
        self.names = list(names)
        self.index = {name: k for k, name in enumerate(self.names)}
        n = len(self.names)
        self.name_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("i")
        self.request_col = array("i")
        self.stack: list[list[int]] = []      # [span index, ns covered by children]
        self.calls = [0] * n
        self.busy_ns = [0] * n
        self.self_ns = [0] * n
        self.depth = [0] * n
        self.counters: dict[str, int] = {}
        self.request_id = -1

    def add_name(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            for col in (self.calls, self.busy_ns, self.self_ns, self.depth):
                col.append(0)
        return self.index[name]

    def enter(self, nid: int) -> None:
        idx = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(self.stack[-1][0] if self.stack else -1)
        self.request_col.append(self.request_id)
        self.end_col.append(0)
        self.depth[nid] += 1
        self.stack.append([idx, 0])
        self.start_col.append(perf_counter_ns())

    def exit(self, nid: int) -> None:
        end = perf_counter_ns()
        idx, child_ns = self.stack.pop()
        duration = end - self.start_col[idx]
        self.end_col[idx] = end
        self.calls[nid] += 1
        self.self_ns[nid] += duration - child_ns
        if self.depth[nid] == 1:
            self.busy_ns[nid] += duration
        self.depth[nid] -= 1
        if self.stack:
            self.stack[-1][1] += duration

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    @contextmanager
    def span(self, name: str):
        nid = self.add_name(name)
        self.enter(nid)
        try:
            yield
        finally:
            self.exit(nid)

    # -- output ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Values of every probe metric of ``layers.json`` (zeros for probes
        the workload never reached)."""
        c = self.counters
        out = {}
        for probe in load_probes():
            name = probe["name"]
            k = self.index[name]
            stats = {
                "calls": self.calls[k] + c.get(name + ".calls", 0),
                "busy_s": self.busy_ns[k] / 1e9,
                "self_s": self.self_ns[k] / 1e9,
                "yielded": c.get(name + ".yielded", 0),
                "term_pairs": c.get(name + ".term_pairs", 0),
                "terms_out": c.get(name + ".terms_out", 0),
                "tried": c.get(name + ".tried", 0),
            }
            stats["useful_ratio"] = _ratio(stats["terms_out"], stats["term_pairs"])
            stats["found_ratio"] = _ratio(c.get(name + ".found", 0), stats["tried"])
            stats["accept_ratio"] = _ratio(c.get(name + ".accepted", 0),
                                           c.get(name + ".scanned", 0))
            for stat in RECORD_STATS[probe["record"]] + tuple(probe.get("extra", ())):
                out[f"{name}.{stat}"] = stats[stat]
        return out

    def write(self, path: Path) -> int:
        """Write every span as parallel columns; returns the span count."""
        t0 = self.start_col[0] if len(self.start_col) else 0
        payload = {
            "names": self.names,
            "time_unit": "ns since the first span",
            "columns": ["name", "start", "end", "parent", "request"],
            "name": self.name_col.tolist(),
            "start": [t - t0 for t in self.start_col],
            "end": [t - t0 for t in self.end_col],
            "parent": self.parent_col.tolist(),
            "request": self.request_col.tolist(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
        return len(self.start_col)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _span_wrapper(fn, tracer: Tracer, nid: int, after=None):
    enter, exit_ = tracer.enter, tracer.exit

    def wrapper(*args, **kwargs):
        enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_(nid)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _count_wrapper(fn, tracer: Tracer, key: str):
    counters = tracer.counters

    def wrapper(*args, **kwargs):
        counters[key] = counters.get(key, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _yield_wrapper(fn, tracer: Tracer, key: str):
    counters = tracer.counters

    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            yield item

    return wrapper


def _after_hooks(tracer: Tracer) -> dict:
    """Counters that need the arguments or the result of a call."""
    from weyltype.algebra import Element

    def mul(args, result):
        a, b = args
        if isinstance(b, Element):
            tracer.count("algebra.mul.term_pairs", len(a.terms) * len(b.terms))
            tracer.count("algebra.mul.terms_out", len(result.terms))

    def iso_search(args, result):
        tracer.count("classification.iso_search_bounded.tried", result.tried)
        tracer.count("classification.iso_search_bounded.found", result.status == "found")

    return {"algebra.mul": mul, "classification.iso_search_bounded": iso_search}


def _enumerate_aut2_wrapper(fn, tracer: Tracer, nid: int):
    """Span plus accept ratio: matrices kept over matrices scanned, counted
    only on calls that scan (the library caches by signature and bound)."""
    span = _span_wrapper(fn, tracer, nid)
    key = "linalg.unimodular_matrices.yielded"

    def wrapper(*args, **kwargs):
        before = tracer.counters.get(key, 0)
        result = span(*args, **kwargs)
        scanned = tracer.counters.get(key, 0) - before
        if scanned:
            tracer.count("sampling.enumerate_aut2.scanned", scanned)
            tracer.count("sampling.enumerate_aut2.accepted", len(result))
        return result

    return wrapper


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _rebind(original, replacement) -> None:
    """Point every weyltype module attribute and module-level dict value that
    is ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "weyltype" and not mod_name.startswith("weyltype."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def install() -> Tracer:
    """Wrap every probe of ``layers.json``; weyltype must already be imported
    in full (``import weyltype.cli`` pulls in every module)."""
    probes = load_probes()
    tracer = Tracer([p["name"] for p in probes])
    hooks = _after_hooks(tracer)
    for probe in probes:
        name = probe["name"]
        nid = tracer.index[name]
        owner, attr = _resolve(probe["target"])
        static = inspect.getattr_static(owner, attr)
        fn = static.__func__ if isinstance(static, classmethod) else static
        record = probe["record"]
        if record == "count":
            wrapped = _count_wrapper(fn, tracer, name + ".calls")
        elif record == "yields":
            wrapped = _yield_wrapper(fn, tracer, name + ".yielded")
        elif name == "sampling.enumerate_aut2":
            wrapped = _enumerate_aut2_wrapper(fn, tracer, nid)
        else:
            wrapped = _span_wrapper(fn, tracer, nid, hooks.get(name))
        if isinstance(static, classmethod):
            setattr(owner, attr, classmethod(wrapped))
        else:
            setattr(owner, attr, wrapped)
        if not inspect.isclass(owner):
            _rebind(fn, wrapped)
    return tracer
