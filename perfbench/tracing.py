"""Spans and counts around the public functions of each tropicon module.

`Tracer.install()` wraps every name in TRACED wherever a tropicon module
binds it (`cli`, `polyhedral` and `tropical` import by name), including the
cached properties `Polyhedron.hrep` and `Polyhedron.canonical_key` and the
static method `Polyhedron.from_hrep`; `uninstall()` puts the originals
back.  A name the program no longer has is reported as absent.

Each call records a span [name, start, end, parent]; a layer's self time is
the time its spans cover minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
from time import perf_counter

# (span name, module, attribute); "Class.attr" names a class member.
TRACED = (
    ("cli.main", "cli", "main"),
    ("fanjson.load_fan", "fanjson", "load_fan"),
    ("fanjson.fan_to_text", "fanjson", "fan_to_text"),
    ("matroid.bergman_fine", "matroid", "bergman_fine"),
    ("tropical.normal_fan", "tropical", "normal_fan"),
    ("tropical.balancing_check", "tropical", "balancing_check"),
    ("tropical.hyperplane_section", "tropical", "hyperplane_section"),
    ("tropical.quotient_by_lineality", "tropical", "quotient_by_lineality"),
    ("tropical.star", "tropical", "star"),
    ("connectivity.build_hypergraph", "connectivity", "build_hypergraph"),
    ("connectivity.is_k_connected", "connectivity", "is_k_connected"),
    ("connectivity.is_k_connected_parallel", "connectivity", "is_k_connected_parallel"),
    ("connectivity.min_facet_cut", "connectivity", "min_facet_cut"),
    ("polyhedral.validate_complex", "polyhedral", "validate_complex"),
    ("polyhedral.dd_cone", "polyhedral", "dd_cone"),
    ("polyhedral.hrep", "polyhedral", "Polyhedron.hrep"),
    ("polyhedral.canonical_key", "polyhedral", "Polyhedron.canonical_key"),
    ("polyhedral.generates_direction", "polyhedral", "Polyhedron.generates_direction"),
    ("polyhedral.from_hrep", "polyhedral", "Polyhedron.from_hrep"),
    ("polyhedral.codim1_faces", "polyhedral", "codim1_faces"),
    ("polyhedral.is_face_of", "polyhedral", "is_face_of"),
    ("ratlin.lp_feasible", "ratlin", "lp_feasible"),
    ("ratlin.smith_normal_form", "ratlin", "smith_normal_form"),
    ("ratlin.rank_and_kernel", "ratlin", "rank_and_kernel"),
    ("ratlin.lattice_normal_generator", "ratlin", "lattice_normal_generator"),
)
# counted without a span: called once per facet subset examined
COUNTED = (("connectivity.connected_after_removal", "connectivity", "connected_after_removal"),)

LAYERS = ("cli", "fanjson", "matroid", "tropical", "connectivity", "polyhedral", "ratlin")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.ridge_keys: list = []
        self.ranges: dict[str, list] = {}
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result
        wrapper.traced = True
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        wrapper.traced = True
        return wrapper

    def _add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _range(self, key, value):
        lo, hi = self.ranges.get(key, (value, value))
        self.ranges[key] = [min(lo, value), max(hi, value)]

    def _observers(self):
        return {
            "fanjson.load_fan": lambda a, r: self._add("fanjson.bytes", os.path.getsize(a[0])),
            "fanjson.fan_to_text": lambda a, r: self._add("fanjson.bytes", len(r)),
            "ratlin.lp_feasible": lambda a, r: self._add("ratlin.lp_feasible_found", r is not None),
            "polyhedral.codim1_faces": self._observe_faces,
            "connectivity.build_hypergraph": self._observe_hypergraph,
            "connectivity.is_k_connected": lambda a, r: len(a) > 1 and self._range("k", a[1]),
        }

    def _observe_faces(self, args, faces):
        # faces come back canonical, so generators identify them; reading
        # canonical_key here could compute it and distort the trace
        self._add("polyhedral.faces_returned", len(faces))
        self.ridge_keys.extend((f.ambient_dim, f.vertices, f.rays, f.lineality) for f in faces)

    def _observe_hypergraph(self, args, h):
        self._add("connectivity.facets", h.num_facets)
        self._add("connectivity.ridges", h.num_ridges)
        self._range("facets", h.num_facets)
        self._range("ridges", h.num_ridges)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "tropicon" or k.startswith("tropicon.")]
        observers = self._observers()
        self.absent = []
        for name, module, attr in TRACED + COUNTED:
            mod = sys.modules.get(f"tropicon.{module}")
            counted = (name, module, attr) in COUNTED
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(mod, cls_name, None)
                raw = vars(cls).get(member) if isinstance(cls, type) else None
                if isinstance(raw, functools.cached_property):
                    new = functools.cached_property(self._wrap(name, raw.func))
                    new.__set_name__(cls, member)
                elif isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__))
                elif callable(raw):
                    new = self._wrap(name, raw)
                else:
                    self.absent.append(name)
                    continue
                self._restore.append((cls, member, raw))
                setattr(cls, member, new)
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            new = self._count(name, fn) if counted else self._wrap(name, fn, observers.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, key, fn))
                        setattr(m, key, new)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore = []

    @staticmethod
    def wrapped_names() -> list[str]:
        """Traced names that are still wrapped: empty after uninstall()."""
        left = []
        for name, module, attr in TRACED + COUNTED:
            owner = sys.modules.get(f"tropicon.{module}")
            for part in attr.split("."):
                owner = vars(owner).get(part) if isinstance(owner, type) else getattr(owner, part, None)
            fn = getattr(owner, "func", None) or getattr(owner, "__func__", None) or owner
            if getattr(fn, "traced", False):
                left.append(name)
        return left

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.ridge_keys.clear()
        self.ranges.clear()

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive time (outermost calls only) and
        self time; per layer: self time; plus the recorded counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        own: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, (name, t0, t1, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_time = (t1 - t0) - child[i]
            own[name] = own.get(name, 0.0) + self_time
            layer_self[name.split(".")[0]] += self_time
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] = incl.get(name, 0.0) + (t1 - t0)
        distinct = len(set(self.ridge_keys))
        return {"calls": calls, "incl": incl, "self": own, "layer_self": layer_self,
                "counts": dict(self.counts), "distinct_faces": distinct}

    def dump(self, path) -> None:
        """Write the recorded spans as tab-separated name, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")
