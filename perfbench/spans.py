"""Span tracing installed from outside the program.

`install` wraps the public functions of the ncpe modules from here, so the
package itself carries no tracing code.  A wrapper is patched into every
ncpe module namespace that holds the original function (the modules use
`from ... import`, so `nc_join` lives in `ncpe.partitions`, `ncpe.nbb` and
`ncpe.builders` at once); `FinitePoset` and `SetPartition` methods are
patched on the class, and CLI commands on their click callbacks.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out once, when the traced job ends; `layer_metrics` turns them
into calls, inclusive time and self time (duration minus the time covered
by child spans) per name.
"""

from __future__ import annotations

import array
import functools
import json
import resource
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name); "Class.method" attributes are patched on
# the class.  Several build_* functions share the span "builders.build".
SPANS = [
    ("partitions", "nc_join", "partitions.nc_join"),
    ("partitions", "nc_closure", "partitions.nc_closure"),
    ("builders", "enumerate_noncrossing", "builders.enumerate_noncrossing"),
    ("builders", "pe_members", "builders.pe_members"),
    ("builders", "build_pi", "builders.build"),
    ("builders", "build_nc", "builders.build"),
    ("builders", "build_pe_dref", "builders.build"),
    ("builders", "pe_join", "builders.pe_join"),
    ("posets", "FinitePoset.from_covers", "posets.from_covers"),
    ("posets", "FinitePoset.lattice_check", "posets.lattice_check"),
    ("posets", "FinitePoset.is_left_modular_chain", "posets.is_left_modular_chain"),
    ("posets", "FinitePoset.moebius_bottom_top", "posets.moebius_bottom_top"),
    ("posets", "FinitePoset.interval_maximal_chains", "posets.interval_maximal_chains"),
    ("posets", "FinitePoset.to_json", "posets.to_json"),
    ("labelings", "left_modular_labeling", "labelings.left_modular_labeling"),
    ("labelings", "verify_el", "labelings.verify_el"),
    ("labelings", "verify_sn_el", "labelings.verify_sn_el"),
    ("labelings", "count_decreasing_chains", "labelings.count_decreasing_chains"),
    ("nbb", "enumerate_nbb_bases_top", "nbb.enumerate_nbb_bases_top"),
    ("nbb", "is_bb", "nbb.is_bb"),
    ("nbb", "classification_census", "nbb.classification_census"),
    ("parking", "count_D", "parking.count_D"),
    ("parking", "build_pe_pchn", "parking.build_pe_pchn"),
]

# Hot leaf calls that are counted without a span.
CALL_COUNTERS = [
    ("partitions", "SetPartition.__post_init__", "partitions.SetPartition.created"),
    ("partitions", "SetPartition.leq_dref", "partitions.leq_dref.calls"),
    ("labelings", "parking_label", "labelings.parking_label.calls"),
]


class Tracer:
    """In-memory span store for one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, result_count=None, rss_name=None):
        """Wrap fn so that each call records a span.  result_count(fn,
        result, cache misses before the call) gives a number added to the
        counter '<name>.count'; rss_name records the largest peak-RSS
        growth across one call."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            misses = _cache_misses(fn) if result_count else None
            rss_before = _maxrss_mb() if rss_name else 0.0
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if result_count:
                counts[name + ".count"] += result_count(fn, result, misses)
            if rss_name:
                grown = _maxrss_mb() - rss_before
                self.maxima[rss_name] = max(self.maxima.get(rss_name, 0.0), grown)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def yield_counter(self, name: str, fn):
        """Wrap a generator function; counts the items it yields."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def dump(self, path: Path) -> None:
        """Write the spans (binary arrays) and counters (JSON) to path."""
        header = {"names": self.names, "counts": dict(self.counts),
                  "maxima": self.maxima, "spans": len(self.start)}
        with open(path, "wb") as fh:
            blob = json.dumps(header).encode()
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cache_misses(fn):
    info = getattr(fn, "cache_info", None)
    return info().misses if info else None


def _len_result(fn, result, _before) -> int:
    return len(result)


def _len_if_computed(fn, result, misses_before) -> int:
    """Size of an lru_cache'd result, counted only when the cache missed,
    so a cached answer handed out again is not counted as found twice."""
    if misses_before is None or fn.cache_info().misses > misses_before:
        return len(result)
    return 0


RESULT_COUNTS = {
    "posets.interval_maximal_chains": _len_result,
    "nbb.enumerate_nbb_bases_top": _len_if_computed,
}
RSS_GROWTH = {"posets.from_covers": "posets.from_covers.rss_mb"}


def _patch_everywhere(modules, owner, attr: str, wrap) -> None:
    """Replace owner.attr by wrap(original) in every module that binds
    the same object; for 'Class.method' patch the class attribute."""
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, meth, type(raw)(wrap(raw.__func__)))
        else:
            setattr(cls, meth, wrap(raw))
        return
    original = getattr(owner, attr)
    wrapped = wrap(original)
    for module in modules:
        if module.__dict__.get(attr) is original:
            setattr(module, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Patch every traced function of the imported ncpe package."""
    pkg = {name.split(".")[-1]: m for name, m in list(sys.modules.items())
           if name.startswith("ncpe.")}
    modules = [sys.modules["ncpe"], *pkg.values()]
    for mod, attr, name in SPANS:
        _patch_everywhere(modules, pkg[mod], attr, lambda fn, name=name: tracer.span(
            name, fn, result_count=RESULT_COUNTS.get(name), rss_name=RSS_GROWTH.get(name)))
    for mod, attr, name in CALL_COUNTERS:
        _patch_everywhere(modules, pkg[mod], attr,
                          lambda fn, name=name: tracer.counter(name, fn))
    _patch_everywhere(modules, pkg["posets"], "FinitePoset.iter_maximal_chains",
                      lambda fn: tracer.yield_counter("posets.iter_maximal_chains.count", fn))
    for cmd_name, cmd in pkg["cli"].main.commands.items():
        cmd.callback = tracer.span(f"cli.{cmd_name}", cmd.callback)


def load(path: Path):
    """Read a file written by Tracer.dump."""
    with open(path, "rb") as fh:
        size = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(size))
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array.array(code)
            arr.fromfile(fh, header["spans"])
            arrays.append(arr)
    return header, arrays


def layer_metrics(header, arrays) -> dict[str, float]:
    """Per span name: calls, inclusive seconds (outermost spans of that
    name only, so recursion is not counted twice) and self seconds; plus
    the counters and maxima recorded by the wrappers."""
    names = header["names"]
    name_id, parent, start, end = arrays
    dur = [e - s for s, e in zip(start, end)]
    covered = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    out: dict[str, float] = defaultdict(float)
    for i, d in enumerate(dur):
        nid = name_id[i]
        name = names[nid]
        out[name + ".calls"] += 1
        out[name + ".self_s"] += d - covered[i]
        p = parent[i]
        while p >= 0 and name_id[p] != nid:
            p = parent[p]
        if p < 0:
            out[name + ".s"] += d
    out.update(header["counts"])
    out.update(header["maxima"])
    return dict(out)
