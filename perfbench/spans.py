"""Spans around calls into latfree's public functions, recorded from the
benchmark's side without touching the package's source.

Every module attribute bound to a traced function is replaced by a
wrapper, in the defining module and in every module that imported the
name, so calls inside a module are caught as well as calls between
modules.  Methods are wrapped on their class.  Generator functions get one
span per resume, so the consumer's work between items is not counted.
Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import gzip
import inspect
import time
from array import array

# (module, qualified name) of every traced boundary; "Polygon" wraps
# construction (Polygon.__init__).
BOUNDARIES = [
    ("core", "Sublattice.contains"),
    ("core", "steps"),
    ("polygon", "Polygon"),
    ("polygon", "convex_hull"),
    ("polygon", "lattice_points_in"),
    ("polygon", "polygon_free_of"),
    ("polygon", "chord_interval"),
    ("polygon", "segment_splits"),
    ("polygon", "line_splits"),
    ("polygon", "apply_affine"),
    ("reduction", "classify_type"),
    ("reduction", "slab_normalize"),
    ("reduction", "lattice_diameter"),
    ("reduction", "satisfies_type"),
    ("slopes", "maximal_slopes"),
    ("slopes", "slope_profile"),
    ("slopes", "check_projection_bound"),
    ("slopes", "check_step_bounds"),
    ("verify", "verify_vertex_threshold"),
    ("verify", "enumerate_free_polygons"),
    ("verify", "enumerate_free_polygons_parallel"),
    ("verify", "check_type_vertex_bound"),
    ("verify", "type_ii_bound_pipeline"),
    ("cli", "run"),
]

MODULES = ["core", "polygon", "reduction", "slopes", "verify", "cli"]


def boundary_names() -> list[str]:
    return [f"{mod}.{name}" for mod, name in BOUNDARIES]


class Tracer:
    """Flat in-memory span store: span i has a name, a parent span (-1 for
    none), the item id current when it opened, and start/end times."""

    def __init__(self) -> None:
        self.names = boundary_names()
        self.calls = [0] * len(self.names)
        self.name_of = array("H")
        self.parent = array("i")
        self.item_of = array("i")
        self.outer = array("b")  # 1 when no span of the same name encloses it
        self.t0 = array("d")
        self.t1 = array("d")
        self.item = 0
        self.absent: list[str] = []
        self._stack = [-1]
        self._depth = [0] * len(self.names)

    # --- recording --------------------------------------------------------

    def _enter(self, idx: int) -> int:
        sid = len(self.t0)
        self.name_of.append(idx)
        self.parent.append(self._stack[-1])
        self.item_of.append(self.item)
        self._depth[idx] += 1
        self.outer.append(self._depth[idx] == 1)
        self._stack.append(sid)
        self.t1.append(0.0)
        self.t0.append(time.perf_counter())
        return sid

    def _exit(self, sid: int) -> None:
        self.t1[sid] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name_of[sid]] -= 1

    def _wrap(self, idx: int, fn):
        enter, leave, calls = self._enter, self._exit, self.calls
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                calls[idx] += 1
                inner = fn(*args, **kwargs)
                while True:
                    sid = enter(idx)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave(sid)
                    yield item

            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            calls[idx] += 1
            sid = enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(sid)

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Patch every boundary of ``package``; missing ones go to ``absent``."""
        modules = [package] + [getattr(package, m, None) for m in MODULES]
        modules = [m for m in modules if m is not None]
        for idx, (mod_name, qual) in enumerate(BOUNDARIES):
            mod = getattr(package, mod_name, None)
            cls_name, _, attr = qual.rpartition(".")
            if cls_name:
                cls = getattr(mod, cls_name, None)
                method = vars(cls).get(attr) if cls is not None else None
                if method is None:
                    self.absent.append(self.names[idx])
                else:
                    setattr(cls, attr, self._wrap(idx, method))
                continue
            target = getattr(mod, attr, None)
            if target is None:
                self.absent.append(self.names[idx])
            elif isinstance(target, type):
                target.__init__ = self._wrap(idx, vars(target)["__init__"])
            else:
                wrapper = self._wrap(idx, target)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is target:
                            setattr(m, key, wrapper)

    # --- reporting ----------------------------------------------------------

    def summary(self) -> dict:
        """Per boundary: calls, inclusive seconds of outermost spans, self seconds."""
        count = len(self.t0)
        child = [0.0] * count
        for sid in range(count):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.t1[sid] - self.t0[sid]
        incl = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for sid in range(count):
            dur = self.t1[sid] - self.t0[sid]
            idx = self.name_of[sid]
            if self.outer[sid]:
                incl[idx] += dur
            self_s[idx] += dur - child[sid]
        return {
            name: {"calls": self.calls[i], "s": incl[i], "self_s": self_s[i]}
            for i, name in enumerate(self.names)
        }

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans named ``name`` with some enclosing span named ``ancestor``."""
        target, anc = self.names.index(name), self.names.index(ancestor)
        under = array("b", bytes(len(self.t0)))
        total = 0
        for sid in range(len(self.t0)):
            p = self.parent[sid]
            under[sid] = self.name_of[sid] == anc or (p >= 0 and under[p])
            if self.name_of[sid] == target and p >= 0 and under[p]:
                total += 1
        return total

    def write(self, path: str, header: str) -> None:
        """All spans as gzipped TSV: id, parent, item, name, start, end (s)."""
        base = self.t0[0] if len(self.t0) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(f"# {header}\n# id\tparent\titem\tname\tstart_s\tend_s\n")
            for sid in range(len(self.t0)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{self.item_of[sid]}\t"
                    f"{self.names[self.name_of[sid]]}\t{self.t0[sid] - base:.7f}\t"
                    f"{self.t1[sid] - base:.7f}\n"
                )
