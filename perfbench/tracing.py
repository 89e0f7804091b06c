"""Per-layer spans for the benchmark's traced pass.

The package is instrumented from outside: every public function and
public method named in a module's ``__all__`` is replaced, in every
``bptrades`` namespace that binds it, by a wrapper that opens a span.
Spans nest through the call stack (a single thread runs the bench), are
kept in memory and written out once at the end.  A span's self time is
its duration minus the durations of its child spans, so the self times
of all spans add up to the time spent inside the outermost spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("core", "trades", "matrices", "rowperm", "family16", "dissect", "search", "cli")

# Inclusive timings over groups of entry points.  A group's clock runs
# from the entry of its outermost span to that span's exit, so a
# validator called from inside canonicalize is not counted twice.
GROUPS = {
    "trades.validate_s": ("trades.validate_latin_trade", "trades.validate_orthogonal_trade"),
    "trades.json_s": ("trades.TradePair.to_json", "trades.TradePair.from_json"),
    "search.spectrum_s": ("search.spectrum", "search.spectrum_all"),
    "search.kernel_s": (
        "search.count_transversals",
        "search.enumerate_transversals",
        "search.diagonal_histogram",
        "search.rowperm_sizes",
        "search.enumerate_orthomorphisms",
        "search.min_distance_from_linear",
    ),
}
GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}

# Methods wrapped besides the public ones: construction, where the
# module's own code does it (dataclass-generated __init__ is skipped).
CONSTRUCTORS = ("__init__", "__post_init__")


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out += [
            (f"{layer}.calls", "count"),
            (f"{layer}.self_s", "s"),
            (f"{layer}.errors", "count"),
            (f"{layer}.lines", "lines"),
        ]
    out += [
        ("trades.entries", "count"),
        ("trades.validate_s", "s"),
        ("trades.json_s", "s"),
        ("search.spectrum_s", "s"),
        ("search.certificates", "count"),
        ("search.kernel_s", "s"),
        ("bench.self_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


def _own_code(fn, module) -> bool:
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == module.__file__


class Tracer:
    """Records spans around the package's public entry points."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.request = None  # label of the bench request being served
        self.spans: list[tuple] = []  # (id, parent, name, request, start, end)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)  # by span name
        self.self_by_request: defaultdict = defaultdict(float)  # by (request, name)
        self.errors: Counter = Counter()  # ValueErrors, by layer of origin
        self.group_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.outer_s = 0.0  # total duration of outermost spans
        self._stack: list[list] = []  # open spans: [id, name, start, child_s]
        self._depth: Counter = Counter()
        self._next_id = 0
        self._seen_errors: list[BaseException] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def _enter(self, name: str) -> None:
        group = GROUP_OF.get(name)
        if group:
            self._depth[group] += 1
        self._stack.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1

    def _exit(self, exc: "BaseException | None" = None) -> bool:
        """Close the innermost span; True when it was its group's outermost."""
        end = self.clock()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        own = dur - child
        self.self_s[name] += own
        self.self_by_request[(self.request, name)] += own
        parent = None
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        else:
            self.outer_s += dur
        self.spans.append((sid, parent, name, self.request, start, end))
        outermost = False
        group = GROUP_OF.get(name)
        if group:
            self._depth[group] -= 1
            if not self._depth[group]:
                self.group_s[group] += dur
                outermost = True
        # count a ValueError once, in the layer whose span saw it first
        if isinstance(exc, ValueError) and not any(e is exc for e in self._seen_errors):
            self._seen_errors.append(exc)
            self.errors[name.split(".", 1)[0]] += 1
        return outermost

    def _after(self, name: str, args: tuple, result, outermost: bool) -> None:
        if name == "trades.TradePair.__post_init__":
            self.counts["trades.entries"] += len(args[0].entries)
        elif outermost and name in GROUPS["search.spectrum_s"]:
            self.counts["search.certificates"] += len(result.certificates)

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # time each resumption, so the consumer's own work between
            # items stays outside the span
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    tracer._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._exit()
                        return
                    except BaseException as exc:
                        tracer._exit(exc)
                        raise
                    tracer._exit()
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(exc)
                raise
            outermost = tracer._exit()
            tracer._after(name, args, result, outermost)
            return result

        return wrapper

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public entry points of every layer of ``bptrades``."""
        package = sys.modules["bptrades"]
        modules = {layer: sys.modules[f"bptrades.{layer}"] for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for public in module.__all__:
                obj = getattr(module, public)
                if inspect.isfunction(obj) and _own_code(obj, module):
                    wrapped = self._wrap(f"{layer}.{public}", obj)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, raw in list(vars(obj).items()):
                        if attr.startswith("_") and attr not in CONSTRUCTORS:
                            continue
                        name = f"{layer}.{public}.{attr}"
                        if isinstance(raw, (classmethod, staticmethod)):
                            if _own_code(raw.__func__, module):
                                kind = type(raw)
                                self._patch(obj, attr, kind(self._wrap(name, raw.__func__)))
                        elif inspect.isfunction(raw) and _own_code(raw, module):
                            self._patch(obj, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------------

    def metrics(self, src: Path, pass_s: float, untraced_s: float) -> dict[str, float]:
        """Per-layer metrics for a traced pass lasting ``pass_s`` seconds."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            prefix = layer + "."
            with open(src / "bptrades" / f"{layer}.py", encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
            out[f"{layer}.calls"] = sum(n for k, n in self.calls.items() if k.startswith(prefix))
            out[f"{layer}.self_s"] = sum(s for k, s in self.self_s.items() if k.startswith(prefix))
            out[f"{layer}.errors"] = self.errors[layer]
            out[f"{layer}.lines"] = lines
        out["trades.entries"] = self.counts["trades.entries"]
        out["trades.validate_s"] = self.group_s["trades.validate_s"]
        out["trades.json_s"] = self.group_s["trades.json_s"]
        out["search.spectrum_s"] = self.group_s["search.spectrum_s"]
        out["search.certificates"] = self.counts["search.certificates"]
        out["search.kernel_s"] = self.group_s["search.kernel_s"]
        out["bench.self_s"] = pass_s - self.outer_s
        out["trace.overhead_ratio"] = pass_s / untraced_s
        return out

    def top_functions(self, limit: int = 8) -> list[tuple[str, float]]:
        return sorted(self.self_s.items(), key=lambda kv: -kv[1])[:limit]

    def request_split(self) -> dict[str, dict[str, float]]:
        """Self time per request label, then per span name."""
        split: defaultdict = defaultdict(dict)
        for (request, name), s in self.self_by_request.items():
            split[str(request)][name] = s
        return dict(split)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["id", "parent", "name", "request", "start", "end"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
