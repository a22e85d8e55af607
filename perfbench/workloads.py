"""The three workloads.  Each one writes its seeded inputs, runs its fixed
job list once per pass (closed loop, one caller, in this process), and
checks every output against references that do not come from latfree.

A pass returns its wall time, one latency per item, the failed items and
an output digest.  Every verify and enumerate pass is checked in full;
classify_bounds checks its first pass in full, because those checks call
latfree, and later passes must reproduce that pass's output item by item.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import gen
from intgeom import apply, free_of_grid, free_of_lattice, hull, is_strictly_convex_ccw, nu
from setup_probe import read_inputs

TYPES = ("I", "II", "III", "IV", "V", "VI")


@dataclass
class PassResult:
    wall: float
    latencies: list  # seconds, one per item
    attempted: int
    failures: list  # (item index, message)
    digest: str
    counters: dict = field(default_factory=dict)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _parse_box(text: str) -> tuple:
    return tuple(int(p) for p in text.split(","))


def _check_polygon(verts, in_box, free, max_vertices) -> str:
    """Own re-check of one emitted polygon; empty string when it holds."""
    if not 3 <= len(verts) <= max_vertices:
        return f"{len(verts)} vertices"
    if not is_strictly_convex_ccw(verts):
        return "not strictly convex counter-clockwise"
    if verts[0] != min(verts):
        return "cycle does not start at the smallest vertex"
    if not all(in_box(v) for v in verts):
        return "vertex outside the box"
    if not free(verts):
        return "contains a lattice point"
    return ""


class VerifySweep:
    """``latfree verify`` through ``cli.run`` on rectangular jobs with
    DP-confirmed answers and on the same lattices in random bases."""

    name = "verify_sweep"

    def __init__(self, seed: int, workdir: str):
        self.jobs = gen.verify_jobs(seed)
        for i, job in enumerate(self.jobs):
            job["path"] = os.path.join(workdir, f"lattice_{i}.json")
            job["out"] = os.path.join(workdir, f"report_{i}.json")

    def make_inputs(self) -> list:
        for job in self.jobs:
            _write_json(job["path"], job["lattice"])
        return [job["path"] for job in self.jobs]

    def load(self, latfree) -> None:
        read_inputs(latfree, self.name, [job["path"] for job in self.jobs])

    def run_pass(self, latfree, tracer=None) -> PassResult:
        run = latfree.cli.run
        for job in self.jobs:
            if os.path.exists(job["out"]):
                os.remove(job["out"])
        sink = io.StringIO()
        latencies, codes = [], []
        start = time.perf_counter()
        with redirect_stdout(sink), redirect_stderr(sink):
            for i, job in enumerate(self.jobs):
                if tracer is not None:
                    tracer.item = i + 1
                argv = ["verify", "--lattice", job["path"], "--out", job["out"]]
                if job["box"]:
                    argv += ["--box", job["box"]]
                t = time.perf_counter()
                try:
                    code = run(argv)
                except Exception as exc:  # a crash is a failed item, not a dead run
                    code = repr(exc)
                latencies.append(time.perf_counter() - t)
                codes.append(code)
        wall = time.perf_counter() - start

        failures, lines = [], []
        nodes, polygons, bytes_out = [], 0, len(sink.getvalue())
        for i, (job, code) in enumerate(zip(self.jobs, codes)):
            problem, report = self._check(job, code)
            if problem:
                failures.append((i, problem))
            if report is None:
                lines.append("missing")
                continue
            bytes_out += os.path.getsize(job["out"])
            nodes.append(report.get("chains_explored"))
            polygons += report.get("instances_checked") or 0
            kept = {k: v for k, v in report.items()
                    if k not in ("elapsed_seconds", "chains_explored", "lattice")}
            lines.append(json.dumps(kept, sort_keys=True))
        counters = {"dfs_nodes_per_job": nodes, "polygons": polygons, "bytes_out": bytes_out}
        return PassResult(wall, latencies, len(self.jobs), failures, _digest(lines), counters)

    @staticmethod
    def _check(job, code):
        if code != 0:
            return f"exit code {code!r}", None
        try:
            with open(job["out"], "r", encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"report unreadable: {exc}", None
        delta, n = job["delta"], job["n"]
        want_box = list(_parse_box(job["box"])) if job["box"] else [-n + 1, 2 * n - 1] * 2
        best = report.get("max_vertices_found")
        if report.get("nu") != nu(delta, n):
            return f"nu {report.get('nu')} != {nu(delta, n)}", report
        if report.get("box") != want_box:
            return f"box {report.get('box')} != {want_box}", report
        if report.get("consistent") is not True or not isinstance(best, int) or best > nu(delta, n) - 1:
            return f"threshold broken: max {best}, consistent {report.get('consistent')}", report
        if job["ref_count"] is not None and (best, report.get("instances_checked")) != (
            job["ref_max"], job["ref_count"]
        ):
            return (f"max/count {best}/{report.get('instances_checked')} != "
                    f"{job['ref_max']}/{job['ref_count']}"), report
        witness = report.get("witness")
        if best == 0:
            return ("" if witness is None else "witness without polygons"), report
        verts = [tuple(v) for v in (witness or {}).get("vertices", [])]
        x1lo, x1hi, x2lo, x2hi = want_box
        basis = job["lattice"].get("matrix") or [[delta, 0], [0, n]]
        problem = _check_polygon(
            verts,
            lambda v: x1lo <= v[0] <= x1hi and x2lo <= v[1] <= x2hi,
            lambda vs: free_of_lattice(vs, basis),
            best,
        )
        if not problem and len(verts) != best:
            problem = f"witness has {len(verts)} vertices, max is {best}"
        return (f"witness: {problem}" if problem else ""), report


class _LineClock:
    """A stdout stand-in that forwards to a file and stamps each line end."""

    def __init__(self, fh):
        self.fh = fh
        self.stamps = []

    def write(self, text: str) -> int:
        self.fh.write(text)
        if text.endswith("\n"):
            self.stamps.append(time.perf_counter())
        return len(text)

    def flush(self) -> None:
        self.fh.flush()


class EnumerateStream:
    """``latfree enumerate`` through ``cli.run`` on the (3,3) lattice over
    the box -2,5,-1,4, its JSON lines written to a file."""

    name = "enumerate_stream"

    def __init__(self, seed: int, workdir: str):
        self.job = gen.enumerate_job(seed)
        self.path = os.path.join(workdir, "lattice.json")
        self.out = os.path.join(workdir, "stream.jsonl")

    def make_inputs(self) -> list:
        _write_json(self.path, {"delta": self.job["delta"], "n": self.job["n"]})
        return [self.path]

    def load(self, latfree) -> None:
        read_inputs(latfree, self.name, [self.path])

    def run_pass(self, latfree, tracer=None) -> PassResult:
        run = latfree.cli.run
        argv = ["enumerate", "--lattice", self.path, "--box", self.job["box"]]
        err = io.StringIO()
        if tracer is not None:
            tracer.item = 1
        with open(self.out, "w", encoding="utf-8") as fh:
            clock = _LineClock(fh)
            with redirect_stdout(clock), redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = run(argv)
                except Exception as exc:  # a crash is a failed item, not a dead run
                    code = repr(exc)
                wall = time.perf_counter() - start
        marks = [start] + clock.stamps
        latencies = [b - a for a, b in zip(marks, marks[1:])]
        problem, digest = self._check(code, err.getvalue())
        counters = {"bytes_out": os.path.getsize(self.out) + len(err.getvalue()),
                    "lines": len(clock.stamps)}
        failures = [(0, problem)] if problem else []
        return PassResult(wall, latencies or [wall], 1, failures, digest, counters)

    def _check(self, code, err: str):
        job = self.job
        h = hashlib.sha256()
        count, seen, sampled = 0, set(), {}
        wanted = set(job["sample"])
        with open(self.out, "rb") as fh:
            for line in fh:  # streamed, so the check adds little to peak memory
                h.update(line)
                seen.add(hash(line))
                if count in wanted:
                    sampled[count] = line
                count += 1
        digest = h.hexdigest()
        if code != 0:
            return f"exit code {code!r}", digest
        if count != job["ref_count"] or err.strip() != f"found {job['ref_count']} polygons":
            return f"{count} lines, stderr {err.strip()!r}; want {job['ref_count']}", digest
        if len(seen) != count:
            return "duplicate polygons in the stream", digest
        x1lo, x1hi, x2lo, x2hi = _parse_box(job["box"])
        delta, n = job["delta"], job["n"]
        for idx, line in sorted(sampled.items()):
            try:
                verts = [tuple(v) for v in json.loads(line)["vertices"]]
            except (ValueError, KeyError, TypeError) as exc:
                return f"line {idx}: unreadable ({exc})", digest
            problem = _check_polygon(
                verts,
                lambda v: x1lo <= v[0] <= x1hi and x2lo <= v[1] <= x2hi,
                lambda vs: free_of_grid(vs, delta, n),
                nu(delta, n) - 1,
            )
            if problem:
                return f"line {idx}: {problem}", digest
        return "", digest


class ClassifyBounds:
    """The library's check-bounds path (classify_type, apply_affine,
    check_type_vertex_bound on Z^2, type_ii_bound_pipeline for type II)
    on a seeded corpus of n*Z^2-free polygons moved by random automorphisms."""

    name = "classify_bounds"

    def __init__(self, seed: int, workdir: str):
        self.corpus = gen.classify_corpus(seed)
        self.path = os.path.join(workdir, "corpus.json")
        self.items = []
        self.signatures = None

    def make_inputs(self) -> list:
        _write_json(self.path, self.corpus)
        return [self.path]

    def load(self, latfree) -> None:
        self.items = read_inputs(latfree, self.name, [self.path])

    def run_pass(self, latfree, tracer=None) -> PassResult:
        classify_type, apply_affine = latfree.classify_type, latfree.apply_affine
        check_type_vertex_bound = latfree.check_type_vertex_bound
        type_ii_bound_pipeline = latfree.type_ii_bound_pipeline
        from_matrix = latfree.Sublattice.from_matrix
        zsquare = latfree.Sublattice.zsquare().basis
        results, latencies = [], []
        start = time.perf_counter()
        for k, (n, poly) in enumerate(self.items):
            if tracer is not None:
                tracer.item = k + 1
            t = time.perf_counter()
            try:
                mapping, tag = classify_type(poly, n)
                image = apply_affine(poly, mapping)
                image_lattice = from_matrix(mapping.linear @ zsquare)
                reports = [check_type_vertex_bound(image, tag, image_lattice)]
                if tag.kind == "II":
                    reports.append(type_ii_bound_pipeline(image, n, image_lattice))
                result = (mapping, tag, image, reports)
            except Exception as exc:  # a crash is a failed item, not a dead run
                result = exc
            latencies.append(time.perf_counter() - t)
            results.append(result)
        wall = time.perf_counter() - start

        signatures = [self._signature(r) for r in results]
        failures = []
        if self.signatures is None:
            for k, result in enumerate(results):
                problem = self._check(latfree, k, result)
                if problem:
                    failures.append((k, problem))
            self.signatures = signatures
        else:
            for k, (mine, first) in enumerate(zip(signatures, self.signatures)):
                if mine != first:
                    failures.append((k, "output differs from the first pass"))
        types = {}
        for result in results:
            if not isinstance(result, Exception):
                types[result[1].kind] = types.get(result[1].kind, 0) + 1
        counters = {"types": types}
        return PassResult(wall, latencies, len(results), failures, _digest(signatures), counters)

    @staticmethod
    def _signature(result) -> str:
        if isinstance(result, Exception):
            return f"error {result!r}"
        mapping, tag, image, reports = result
        return json.dumps(
            [tag.kind, tag.n, mapping.to_obj(), image.to_obj(), [r.to_obj() for r in reports]],
            sort_keys=True,
        )

    def _check(self, latfree, k: int, result) -> str:
        if isinstance(result, Exception):
            return f"raised {result!r}"
        mapping, tag, image, reports = result
        item = self.corpus[k]
        n = item["n"]
        failed = [r.name for r in reports if not r.ok]
        if failed:
            return f"checks failed: {failed}"
        if tag.n != n or tag.kind not in TYPES:
            return f"tag {tag}"
        if not mapping.is_automorphism_of(latfree.Sublattice.rectangular(n, n)):
            return "map is not an automorphism of n*Z^2"
        if not latfree.satisfies_type(image, tag):
            return f"image does not satisfy type {tag.kind}"
        # own integer re-check: the image is the map applied to the input
        m = mapping.to_obj()
        linear = tuple(tuple(row) for row in m["linear"])
        want = sorted(apply(linear, m["translation"], v) for v in hull(map(tuple, item["vertices"])))
        verts = [tuple(v) for v in image.to_obj()["vertices"]]
        if sorted(verts) != want:
            return "image is not the mapped input"
        if not is_strictly_convex_ccw(verts) or not free_of_grid(verts, n, n):
            return "image is not a free strictly convex polygon"
        return ""


WORKLOADS = {w.name: w for w in (VerifySweep, EnumerateStream, ClassifyBounds)}
