"""Per-layer spans around streamcolor's module entry points.

`Tracer.patched()` rebinds, for the duration of one `streamcolor run`,
the public entry points of each layer with wrappers that record a span:
site, parent span, request id, start and end. Nothing under `src/` is
edited; the wrappers replace class methods and module-level bindings and
are removed again on exit.

Layers are the `streamcolor` modules:

    stream      parsing of each event, and each emitted `c` line
    presets     the pipeline's `feed` per event and its `finalize`
    reductions  bipartization routing, two-sided split arrivals
    dispatch    edge buffering, drains and flushes
    core        one-sided colorer arrivals and spill coloring
    matching    the per-arrival slot matcher
    offline     the exact and general offline colorers

The request id of a span is the index of the stream event being handled,
`FINALIZE` once the event iterator is exhausted, or `SETUP` before the
first event. Spans are kept in
flat arrays and reduced after the run; self time is a span's duration
minus the durations of its child spans. The meter and the color
allocator are counted, not timed: they are called too often to span.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from array import array

FINALIZE = -1
SETUP = -2

# call sites: (layer, entry point); the kind says how a site is reduced
_FEED, _FINALIZE, _ARRIVAL, _MATCH, _COLOR, _PARSE, _EMIT = range(7)

LAYERS = ("stream", "presets", "reductions", "dispatch", "core", "matching", "offline")

# where an offline coloring call sits decides which route its edges took
ROUTE_BY_PARENT = {
    ("core", _FINALIZE): "spill",
    ("dispatch", _FEED): "flush",
    ("dispatch", _FINALIZE): "leftover",
    ("reductions", _FEED): "base",
    ("reductions", _FINALIZE): "base",
    ("presets", _FEED): "stored",
    ("presets", _FINALIZE): "stored",
}
ROUTES = ("spill", "flush", "leftover", "base", "stored")


def _module_classes(module):
    return [
        obj
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    ]


class Tracer:
    """Span recorder for one traced run."""

    def __init__(self):
        self.sites: list[tuple[str, int, str]] = []  # (layer, kind, label)
        self.site = array("H")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.req_id = SETUP
        self.offline_edges: dict[int, int] = {}  # span index -> edges colored
        self.counts = {
            "matching.calls": 0,
            "matching.slots": 0,
            "matching.perfect": 0,
            "core.arrivals": 0,
            "core.streamed_edges": 0,
            "dispatch.feed_calls": 0,
            "reductions.calls": 0,
            "stream.events": 0,
            "stream.emit_lines": 0,
            "meter.add_calls": 0,
            "meter.release_calls": 0,
            "palette.blocks": 0,
        }
        self.finalized: dict[str, list] = {layer: [] for layer in LAYERS}

    # -- recording --

    def _site(self, layer: str, kind: int, label: str) -> int:
        self.sites.append((layer, kind, label))
        return len(self.sites) - 1

    def _open(self, site: int) -> int:
        i = len(self.start)
        self.site.append(site)
        self.parent.append(self.stack[-1])
        self.req.append(self.req_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, layer: str, kind: int, label: str, fn):
        """A span-recording stand-in for `fn`; offline sites are labelled by flavor."""
        site = self._site(layer, kind, label)
        counts = self.counts
        finalized = self.finalized[layer]

        def traced(*args, **kwargs):
            i = self._open(site)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if kind == _FEED:
                if layer == "dispatch":
                    counts["dispatch.feed_calls"] += 1
                elif layer == "reductions":
                    counts["reductions.calls"] += 1
            elif kind == _ARRIVAL:
                if layer == "core":
                    counts["core.arrivals"] += 1
                    counts["core.streamed_edges"] += len(result)
                else:
                    counts["reductions.calls"] += 1
            elif kind == _MATCH:
                counts["matching.calls"] += 1
                counts["matching.slots"] += len(result)
                if all(c != -1 for c in result):
                    counts["matching.perfect"] += 1
            elif kind == _COLOR:
                self.offline_edges[i] = len(result)
            elif kind == _EMIT:
                counts["stream.emit_lines"] += 1
            elif kind == _FINALIZE:
                finalized.append(args[0])
            return result

        traced.__wrapped__ = fn
        return traced

    def traced_events(self, events):
        """Yield the parsed events, one `stream` span per pull."""
        site = self._site("stream", _PARSE, "stream.parse_stream")
        it = iter(events)
        index = 0
        while True:
            i = self._open(site)
            try:
                event = next(it)
            except StopIteration:
                self.req_id = FINALIZE
                return
            finally:
                self._close(i)
            self.req[i] = index
            self.req_id = index
            self.counts["stream.events"] += 1
            index += 1
            yield event

    # -- patching --

    @contextlib.contextmanager
    def patched(self, sc):
        """Install the wrappers on the streamcolor package `sc`; undo on exit."""
        undo: list[tuple[object, str, object]] = []

        def rebind(owner, name, new):
            undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, new)

        def wrap_methods(module, layer, kinds):
            for cls in _module_classes(module):
                for name, kind in kinds.items():
                    if name in cls.__dict__:
                        label = f"{module.__name__.rsplit('.', 1)[-1]}.{cls.__name__}.{name}"
                        rebind(cls, name, self.wrap(layer, kind, label, cls.__dict__[name]))

        wrap_methods(sc.presets, "presets", {"feed": _FEED, "finalize": _FINALIZE})
        wrap_methods(
            sc.reductions,
            "reductions",
            {"on_vertex": _FEED, "on_edge": _FEED, "on_arrival": _ARRIVAL, "finalize": _FINALIZE},
        )
        wrap_methods(sc.dispatch, "dispatch", {"feed_edge": _FEED, "finalize": _FINALIZE})
        wrap_methods(
            sc.core,
            "core",
            {"on_online_vertex": _ARRIVAL, "on_batch": _ARRIVAL, "finalize": _FINALIZE},
        )
        wrap_methods(sc.stream, "stream", {"emit": _EMIT})

        # module-level bindings of the matcher and the offline colorers,
        # in every module that imported them
        targets = {
            sc.matching.maximum_matching: ("matching", _MATCH, "matching.maximum_matching"),
            sc.offline.color_bipartite_exact: ("offline", _COLOR, "bipartite"),
            sc.offline.color_general: ("offline", _COLOR, "general"),
            sc.offline.color_greedy: ("offline", _COLOR, "greedy"),
        }
        for module in (sc.presets, sc.reductions, sc.dispatch, sc.core):
            for name, value in list(vars(module).items()):
                if callable(value) and value in targets:
                    rebind(module, name, self.wrap(*targets[value], value))

        counts = self.counts
        meter_cls = sc.meter.SpaceMeter
        alloc_cls = sc.palette.ColorAllocator
        add, release, reserve = meter_cls.add, meter_cls.release, alloc_cls.reserve

        def counted_add(meter, key, words):
            counts["meter.add_calls"] += 1
            return add(meter, key, words)

        def counted_release(meter, key, words):
            counts["meter.release_calls"] += 1
            return release(meter, key, words)

        def counted_reserve(alloc, width, label=""):
            counts["palette.blocks"] += 1
            return reserve(alloc, width, label)

        rebind(meter_cls, "add", counted_add)
        rebind(meter_cls, "release", counted_release)
        rebind(alloc_cls, "reserve", counted_reserve)
        try:
            yield self
        finally:
            for owner, name, old in reversed(undo):
                setattr(owner, name, old)

    # -- reduction --

    def reduce(self, edges: int) -> dict[str, float]:
        """Per-layer totals of the recorded run."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        total_s = dict.fromkeys(LAYERS, 0.0)
        emit_s = 0.0
        event_us: list[float] = []
        routes = dict.fromkeys(ROUTES + ("other",), 0)
        flavor_edges = {"bipartite": 0, "general": 0, "greedy": 0}
        flavor_s = dict.fromkeys(flavor_edges, 0.0)
        sites = self.sites
        for i in range(n):
            layer, kind, label = sites[self.site[i]]
            self_s[layer] += dur[i] - child[i]
            total_s[layer] += dur[i]
            if kind == _EMIT:
                emit_s += dur[i]
            elif kind == _FEED and layer == "presets":
                event_us.append(dur[i] * 1e6)
            elif kind == _COLOR:
                colored = self.offline_edges.get(i, 0)
                flavor_edges[label] += colored
                flavor_s[label] += dur[i]
                p = self.parent[i]
                where = sites[self.site[p]][:2] if p >= 0 else None
                routes[ROUTE_BY_PARENT.get(where, "other")] += colored

        c = self.counts
        out: dict[str, float] = {
            "matching.match_s": total_s["matching"],
            "matching.calls": c["matching.calls"],
            "matching.slots": c["matching.slots"],
            "matching.us_per_slot": (
                total_s["matching"] / c["matching.slots"] * 1e6 if c["matching.slots"] else 0.0
            ),
            "matching.perfect_frac": (
                c["matching.perfect"] / c["matching.calls"] if c["matching.calls"] else 0.0
            ),
            "core.self_s": self_s["core"],
            "core.arrivals": c["core.arrivals"],
            "core.streamed_edges": c["core.streamed_edges"],
            "dispatch.self_s": self_s["dispatch"],
            "dispatch.feed_calls": c["dispatch.feed_calls"],
            "dispatch.flushes": sum(getattr(d, "flushes", 0) for d in self.finalized["dispatch"]),
            "reductions.self_s": self_s["reductions"],
            "reductions.calls": c["reductions.calls"],
            "reductions.levels": sum(
                getattr(r, "num_levels", 0) for r in self.finalized["reductions"]
            ),
            "offline.general_s": flavor_s["general"],
            "offline.general_edges": flavor_edges["general"],
            "offline.bipartite_s": flavor_s["bipartite"],
            "offline.bipartite_edges": flavor_edges["bipartite"],
        }
        for route in ROUTES:
            out[f"offline.{route}_edges"] = routes[route]
        out["offline.other_edges"] = routes["other"]
        out["offline.base_share"] = routes["base"] / edges if edges else 0.0
        out.update(
            {
                "stream.parse_s": total_s["stream"] - emit_s,
                "stream.events": c["stream.events"],
                "stream.emit_s": emit_s,
                "stream.emit_lines": c["stream.emit_lines"],
                "presets.self_s": self_s["presets"],
                "presets.event_us_p50": statistics.median(event_us) if event_us else 0.0,
                "presets.event_us_p99": _percentile(event_us, 0.99),
                "meter.add_calls": c["meter.add_calls"],
                "meter.release_calls": c["meter.release_calls"],
                "palette.blocks": c["palette.blocks"],
            }
        )
        return out

    def slowest_events(self, count: int) -> list[dict]:
        """Non-stream spans of the `count` slowest events, plus finalize."""
        n = len(self.start)
        feeds = [
            i
            for i in range(n)
            if self.sites[self.site[i]][:2] == ("presets", _FEED)
        ]
        feeds.sort(key=lambda i: self.end[i] - self.start[i], reverse=True)
        wanted = {self.req[i] for i in feeds[:count]} | {FINALIZE}
        spans = []
        for i in range(n):
            if self.req[i] in wanted and self.sites[self.site[i]][0] != "stream":
                spans.append(
                    {
                        "span": i,
                        "parent": self.parent[i],
                        "request": self.req[i],
                        "site": self.sites[self.site[i]][2],
                        "us": round((self.end[i] - self.start[i]) * 1e6, 3),
                    }
                )
        return spans


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
