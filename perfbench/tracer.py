"""Span tracing of flatcover's public functions, installed from outside.

``Tracer.install`` wraps every public function of the package's layer
modules, plus the hot methods listed in ``METHODS``, and re-binds each
wrapper wherever another flatcover module imported the original name
(``cover.is_flat``, ``cli.flat_defect``, ...).  ``uninstall`` restores
the originals, so untimed and reference code never runs wrapped.

A span is (name, start, end, parent).  Self time is a span's duration
minus the time covered by its child spans.  Result hooks read counts
from return values (norm method, certification, member counts); they run
with tracing paused, and their cost is charged to no span's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

LAYERS = ("poly2", "geometry", "flatness", "cover", "rescale", "norms", "lattice")

# (module, class, method) -> span name; methods carry much of the work.
# Generators (TileGrid.tiles, FlatCover.iter_members) are left out: a span
# would time only their creation.
METHODS = {
    ("poly2", "BivariatePoly", "eval"): "poly2.eval",
    ("poly2", "BivariatePoly", "diff"): "poly2.diff",
    ("poly2", "BivariatePoly", "gradient"): "poly2.gradient",
    ("poly2", "BivariatePoly", "hessian"): "poly2.hessian",
    ("poly2", "BivariatePoly", "hessian_polys"): "poly2.hessian_polys",
    ("poly2", "BivariatePoly", "hessian_det_poly"): "poly2.hessian_det_poly",
    ("geometry", "TileGrid", "count_points"): "geometry.count_points",
    ("geometry", "TileGrid", "kept_indices"): "geometry.kept_indices",
    ("geometry", "TileGrid", "centers"): "geometry.centers",
    ("geometry", "TileGrid", "domain_mask"): "geometry.domain_mask",
    ("cover", "FlatCover", "membership_counts"): "cover.membership_counts",
    ("cover", "FlatCover", "sample_members"): "cover.sample_members",
    ("norms", "ExpSum", "subset"): "norms.subset",
    ("norms", "ExpSum", "lifted"): "norms.lifted",
}


class Tracer:
    """Collects spans and per-name aggregates while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        self._name_stack: List[int] = []
        self._hook_parent = -1
        self._child: List[float] = []
        self.calls: Dict[str, int] = {}
        self.self_time: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        # expsum_lp values per decoupling report, then member values per report
        self.samples: Dict[str, list] = {"member_values": [[]], "member_groups": []}
        self.t0 = perf_counter()
        self._paused = False
        self._saved: List[tuple] = []
        self._hooks: Dict[str, Callable] = {}

    # -- counters used by hooks -----------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def parent_name(self) -> Optional[str]:
        """Name of the span enclosing the call whose hook is running."""
        return self.names[self._hook_parent] if self._hook_parent >= 0 else None

    # -- wrapping --------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        self.calls.setdefault(name, 0)
        self.self_time.setdefault(name, 0.0)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            sid = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(sid)
            tracer._name_stack.append(nid)
            tracer._child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._name_stack.pop()
                child = tracer._child.pop()
                tracer.spans[sid] = (nid, start, end, parent)
                tracer.calls[name] += 1
                tracer.self_time[name] += end - start - child
            hook = tracer._hooks.get(name)
            if hook is not None:
                tracer._paused = True
                try:
                    names = tracer._name_stack
                    tracer._hook_parent = names[-1] if names else -1
                    hook(tracer, args, kwargs, result, end - start)
                finally:
                    tracer._paused = False
            if tracer._child:
                tracer._child[-1] += perf_counter() - start
            return result

        return traced

    def install(self, hooks: Optional[Dict[str, Callable]] = None) -> None:
        """Wrap the layers' public functions and the listed methods."""
        self._hooks = dict(hooks or {})
        modules = {m: importlib.import_module(f"flatcover.{m}") for m in LAYERS}
        everywhere = [importlib.import_module("flatcover")] + [
            importlib.import_module(f"flatcover.{m}") for m in LAYERS + ("cli",)]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", obj)
                for other in everywhere:
                    if vars(other).get(attr) is obj:
                        self._saved.append((other, attr, obj))
                        setattr(other, attr, wrapped)
        for (layer, cls_name, meth), name in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            orig = cls.__dict__[meth]
            self._saved.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(name, orig))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def span_count(self) -> int:
        return sum(1 for s in self.spans if s is not None)

    def write_json(self, path, meta: dict) -> None:
        """Spans as [name index, start, end, parent span] with times in
        seconds from tracer creation."""
        t0 = self.t0
        rows = [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3]]
                for s in self.spans if s is not None]
        doc = dict(meta)
        doc["names"] = self.names
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["spans"] = rows
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


# -- result hooks: counts read from return values -----------------------------


def _hook_expsum_lp(t: Tracer, args, kwargs, rep, dur) -> None:
    f = args[0]
    p = args[1] if len(args) > 1 else kwargs["p"]
    t.count(f"norms.method.{rep.method}.calls")
    t.count(f"norms.method.{rep.method}.s", dur)
    if rep.lattice_dims:
        t.count("norms.lattice_cells", math.prod(rep.lattice_dims))
    even = float(p).is_integer() and int(p) % 2 == 0 and p >= 4
    if even and f.factors is not None and rep.method != "separable":
        t.count("norms.separable_fallbacks")
    if rep.method == "pairs":
        box = args[2] if len(args) > 2 else kwargs["box_side"]
        ints = np.rint(float(box) * f.lifted()).astype(np.int64)
        n = len(np.unique(ints, axis=0))
        t.count("norms.pair_terms", n * n)
    if t.parent_name() == "norms.decoupling_report":
        t.samples["member_values"][-1].append(rep.value)


def _hook_decoupling_report(t: Tracer, args, kwargs, rep, dur) -> None:
    t.count("norms.member_norms", rep.members_used)
    values = t.samples["member_values"]
    # the first norm under each report is the whole sum (lhs)
    t.samples["member_groups"].append(values[-1][1:])
    values.append([])


def _hook_flat_defect(t: Tracer, args, kwargs, rep, dur) -> None:
    t.count("flatness.flat_defect.certified", 1 if rep.certified else 0)


def _cover_counts(t: Tracer, cover, dur) -> None:
    t.count("cover.members", len(cover))
    t.count("cover.tilings", sum(len(p.groups) for p in cover.parts))
    t.count("cover.build_s", dur)


def _hook_build_cover_hp(t: Tracer, args, kwargs, cover, dur) -> None:
    delta = args[1] if len(args) > 1 else kwargs["delta"]
    e = int(round(math.log2(1.0 / delta)))
    t.count(f"cover.build_cover_hp.e{e}.s", dur)
    _cover_counts(t, cover, dur)


def _hook_build_cover_general(t: Tracer, args, kwargs, cover, dur) -> None:
    _cover_counts(t, cover, dur)


def _hook_lattice_points(t: Tracer, args, kwargs, result, dur) -> None:
    lat = args[0] if args[0].__class__.__name__ == "FrequencyLattice" else args[1]
    t.count("lattice.points", len(lat))


HOOKS = {
    "norms.expsum_lp": _hook_expsum_lp,
    "norms.decoupling_report": _hook_decoupling_report,
    "flatness.flat_defect": _hook_flat_defect,
    "cover.build_cover_hp": _hook_build_cover_hp,
    "cover.build_cover_general": _hook_build_cover_general,
    "lattice.discrete_restriction_ratio": _hook_lattice_points,
    "lattice.max_flat_multiplicity": _hook_lattice_points,
}


# names reported with both .calls and .self_s, then .calls only, then .self_s only
TIMED = ("poly2.eval", "poly2.compose_affine", "geometry.make_tile_grid",
         "geometry.count_points", "flatness.flat_defect", "flatness.is_flat",
         "flatness.flat_defect_interval", "flatness.null_direction_fields",
         "cover.build_cover_hp", "cover.build_cover_general", "cover.verify_cover",
         "rescale.rescale_phase", "rescale.verify_coeff_bounds", "norms.expsum_lp",
         "norms.subset", "lattice.discrete_restriction_ratio", "lattice.max_flat_multiplicity")
COUNTED = ("poly2.gradient", "poly2.diff", "geometry.kept_indices")
SELF_ONLY = ("cover.overlap_profile", "cover.sample_members", "rescale.pullback_cover",
             "norms.assign_frequencies", "norms.decoupling_report", "lattice.pell_gap")
HP_SCALES = range(6, 11)
NORM_METHODS = ("parseval", "separable", "pairs", "fft")


def layer_metrics(t: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced round (zero where a layer did not run)."""
    c = t.counters
    m: Dict[str, float] = {}
    for name in TIMED:
        m[f"{name}.calls"] = t.calls.get(name, 0)
        m[f"{name}.self_s"] = t.self_time.get(name, 0.0)
    for name in COUNTED:
        m[f"{name}.calls"] = t.calls.get(name, 0)
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = t.self_time.get(name, 0.0)
    fd_calls = t.calls.get("flatness.flat_defect", 0)
    m["flatness.flat_defect.certified_ratio"] = (
        c.get("flatness.flat_defect.certified", 0) / fd_calls if fd_calls else 0.0)
    for e in HP_SCALES:
        m[f"cover.build_cover_hp.e{e}.s"] = c.get(f"cover.build_cover_hp.e{e}.s", 0.0)
    build_s = c.get("cover.build_s", 0.0)
    m["cover.members"] = c.get("cover.members", 0)
    m["cover.tilings"] = c.get("cover.tilings", 0)
    m["cover.members_per_s"] = m["cover.members"] / build_s if build_s else 0.0
    for method in NORM_METHODS:
        m[f"norms.method.{method}.calls"] = c.get(f"norms.method.{method}.calls", 0)
        m[f"norms.method.{method}.s"] = c.get(f"norms.method.{method}.s", 0.0)
    for name in ("separable_fallbacks", "lattice_cells", "pair_terms", "member_norms"):
        m[f"norms.{name}"] = c.get(f"norms.{name}", 0)
    m["norms.member_distinct_ratio"] = distinct_ratio(t.samples["member_groups"])
    m["lattice.points"] = c.get("lattice.points", 0)
    m["trace.spans"] = t.span_count()
    return m


def distinct_ratio(groups: List[List[float]], rtol: float = 1e-12) -> float:
    """Distinct values (at rtol) over all values, counted per report."""
    total = distinct = 0
    for vals in groups:
        vals = sorted(vals)
        total += len(vals)
        last = None
        for v in vals:
            if last is None or abs(v - last) > rtol * max(abs(v), abs(last)):
                distinct += 1
                last = v
    return distinct / total if total else 0.0
