"""Command-line front end.

Exit codes: 0 success/consistent, 1 malformed input or usage error,
2 counterexample or inconsistency found (reproduction data in the report).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import Iterator, Optional, TextIO

from .core import InvariantError, Sublattice, Vec
from .polygon import Polygon, bounding_stats, pick_identity
from .reduction import _classify, lattice_diameter, slab_normalize
from .slopes import (
    CheckReport,
    Frame,
    Slope,
    check_profile_ledger,
    check_projection_bound,
    check_sublattice_projection_bound,
    check_width_bound,
    maximal_slopes,
    slope_profile,
)
from .verify import (
    SearchBox,
    check_type_vertex_bound,
    construct_extremal,
    critical_vertex_count,
    enumerate_free_polygons,
    type_ii_bound_pipeline,
    verify_vertex_threshold,
)


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise CliError(message)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_polygon(path: str) -> Polygon:
    return Polygon.from_obj(_load_json(path))


def _load_lattice(path: str) -> Sublattice:
    return Sublattice.from_obj(_load_json(path))


@contextmanager
def _open_out(path: str, mode: str = "w") -> Iterator[TextIO]:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _probe_out(path: Optional[str]) -> None:
    """Fail on an unwritable ``--out`` or ``--svg`` before any output.

    :func:`run` probes each output path once, before the subcommand reads
    its input or prints a line.  Opening for append leaves an existing file
    as it is, and a file the probe creates is removed again, so a run that
    fails later leaves the path as it found it; the subcommand writes the
    file when it is done.
    """
    if path:
        created = not os.path.exists(path)
        with _open_out(path, "a"):
            if created:
                os.remove(path)


def _write_out(path: Optional[str], obj, polygons: Optional[list] = None) -> None:
    """Write ``json.dump(obj, indent=2, sort_keys=True)`` and a newline.

    ``polygons``, a list of ``Polygon``, is added under the key
    "polygons", which must sort after every key of ``obj``.  With
    ``indent`` set, json runs its pure-Python encoder, so that list is
    written from a per-vertex template instead, with the same bytes.
    """
    if path:
        with _open_out(path) as fh:
            if polygons is None:
                json.dump(obj, fh, indent=2, sort_keys=True)
            else:
                head = json.JSONEncoder(indent=2, sort_keys=True).encode(obj)
                fh.write(head[:-2] + ',\n  "polygons": ')  # reopen the closed object
                fh.write(_polygons_text(polygons) + "\n}")
            fh.write("\n")


_VERTEX = "        [\n          %d,\n          %d\n        ]"


def _polygons_text(polygons: list) -> str:
    # the indented JSON of the polygons, each as {"vertices": [[x1, x2],
    # ...]}, one level down in a report
    if not polygons:
        return "[]"
    items = [
        '    {\n      "vertices": [\n%s\n      ]\n    }'
        % ",\n".join([_VERTEX % (x, y) for x, y in poly.vertices])
        for poly in polygons
    ]
    return "[\n%s\n  ]" % ",\n".join(items)


def _svg_dump(poly: Polygon, path: str) -> None:
    # plain outline plus the integer lattice dots of the bounding box
    s = bounding_stats(poly)
    pad, scale = 1, 24
    width = (s.east - s.west + 2 * pad) * scale
    height = (s.north - s.south + 2 * pad) * scale

    def pt(x: int, y: int) -> tuple[int, int]:
        return (x - s.west + pad) * scale, (s.north - y + pad) * scale

    dots = [
        '<circle cx="%d" cy="%d" r="2" fill="#888"/>' % pt(x, y)
        for x in range(s.west - pad, s.east + pad + 1)
        for y in range(s.south - pad, s.north + pad + 1)
    ]
    outline = " ".join("%d,%d" % pt(*v) for v in poly.vertices)
    body = "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
            *dots,
            f'<polygon points="{outline}" fill="none" stroke="black" stroke-width="2"/>',
            "</svg>",
        ]
    )
    with _open_out(path) as fh:
        fh.write(body + "\n")


def _cmd_analyze(args) -> int:
    poly = _load_polygon(args.polygon)
    pick = pick_identity(poly)
    diameter = lattice_diameter(poly)
    ms = maximal_slopes(poly)
    stats = ms.stats
    print(f"vertices:        {len(poly)}")
    print(f"area2:           {pick.area2}")
    print(f"pick:            interior={pick.interior} boundary={pick.boundary} holds={pick.holds}")
    print(f"lattice diameter: {diameter.length} on {tuple(diameter.segment.a)}..{tuple(diameter.segment.b)}")
    print(f"bounding stats:  {stats}")
    print(f"slope edges:     N_k={ms.edge_counts} M_k={ms.faces}")
    if args.svg:
        _svg_dump(poly, args.svg)
    _write_out(
        args.out,
        {
            "polygon": poly.to_obj(),
            "area2": pick.area2,
            "pick": {"interior": pick.interior, "boundary": pick.boundary, "holds": pick.holds},
            "lattice_diameter": diameter.length,
            "bounding_stats": stats._asdict(),
            "maximal_slopes": {"edges": list(ms.edge_counts), "m": list(ms.faces)},
        },
    )
    return 0


def _cmd_normalize(args) -> int:
    poly = _load_polygon(args.polygon)
    res = slab_normalize(poly, args.n)
    obj = {
        "map": res.map.to_obj(),
        "image": res.image.to_obj(),
        "diameter_line_c": res.diameter_line_c,
    }
    print(json.dumps(obj, indent=2, sort_keys=True))
    _write_out(args.out, obj)
    return 0


def _cmd_classify(args) -> int:
    poly = _load_polygon(args.polygon)
    mapping, tag, image = _classify(poly, args.n)
    obj = {
        "type": tag.kind,
        "n": tag.n,
        "map": mapping.to_obj(),
        "image": image.to_obj(),
    }
    print(json.dumps(obj, indent=2, sort_keys=True))
    _write_out(args.out, obj)
    return 0


def _finish_checks(reports: list[CheckReport], out: Optional[str], obj: dict) -> int:
    """Print each check's verdict, write ``obj`` to ``out`` and print the
    failed reports; exit code 2 when a check failed, else 0."""
    for rep in reports:
        print(f"check {rep.name}: {'ok' if rep.ok else 'FAIL'}")
    _write_out(out, obj)
    failed = {r.name: r.to_obj() for r in reports if not r.ok}
    if failed:
        print(json.dumps(failed, indent=2, sort_keys=True))
        return 2
    return 0


def _cmd_slopes(args) -> int:
    slope = Slope.from_obj(_load_json(args.slope))
    try:
        x, y = (int(p) for p in args.origin.split(","))
    except ValueError as exc:
        raise CliError("--origin must be x,y") from exc
    frame = Frame(Vec(x, y), slope.f1, slope.f2)
    lattice = _load_lattice(args.lattice) if args.lattice else None

    # a one-point slope is valid input with no width to bound
    reports = [check_width_bound(slope, lattice=lattice)] if slope.n_edges >= 1 else []
    prof = slope_profile(frame, slope)
    print(f"frame splits:    {prof is not None}")
    if prof is not None:
        print(f"small angle:     {prof.small_angle}")
        print(
            f"profile:         k={prof.k} alpha={prof.alpha} t={prof.t} s={prof.s} "
            f"pi1={prof.coords[-1].x1} pi2={prof.coords[0].x2} pihat={prof.pihat}"
        )
        reports.append(check_projection_bound(prof))
        reports.append(check_profile_ledger(prof))
        # the sublattice sharpening applies to a proper sublattice only
        if lattice is not None and lattice.is_proper():
            reports.append(check_sublattice_projection_bound(prof, lattice))
    return _finish_checks(reports, args.out, {r.name: r.to_obj() for r in reports})


def _cmd_check_bounds(args) -> int:
    poly = _load_polygon(args.polygon)
    lattice = _load_lattice(args.lattice)
    mapping, tag, image = _classify(poly, args.n)
    image_lattice = Sublattice.from_matrix(mapping.linear @ lattice.basis)
    reports = [check_type_vertex_bound(image, tag, image_lattice)]
    if tag.kind == "II":
        reports.append(type_ii_bound_pipeline(image, args.n, image_lattice))
    print(f"type:            {tag.kind}_{tag.n}")
    checks = {r.name: r.to_obj() for r in reports}
    return _finish_checks(reports, args.out, {"type": tag.kind, "n": tag.n, "checks": checks})


class _VertexText(dict):
    """The JSON text ``"[x1, x2]"`` of each vertex, made on first use."""

    def __missing__(self, v: Vec) -> str:
        text = self[v] = "[%d, %d]" % v
        return text


def _cmd_enumerate(args) -> int:
    lattice = _load_lattice(args.lattice)
    box = SearchBox.parse(args.box)
    # the polygons are kept only for the --out report; stdout is a stream
    found: Optional[list] = [] if args.out else None
    count = 0
    write = sys.stdout.write
    text = _VertexText().__getitem__
    for poly in enumerate_free_polygons(lattice, box, args.min_vertices):
        # json.dumps(poly.to_obj()) plus "\n", built directly: every line
        # has this shape and the coordinates are ints
        write('{"vertices": [%s]}\n' % ", ".join(map(text, poly.vertices)))
        count += 1
        if found is not None:
            found.append(poly)
    print(f"found {count} polygons", file=sys.stderr)
    _write_out(args.out, {"lattice": lattice.to_obj(), "box": box.to_obj(), "count": count}, found)
    return 0


def _cmd_extremal(args) -> int:
    poly = construct_extremal(args.delta, args.n)
    obj = poly.to_obj()
    obj["nu"] = critical_vertex_count(args.delta, args.n)
    print(json.dumps(obj, indent=2, sort_keys=True))
    _write_out(args.out, obj)
    return 0


def _cmd_verify(args) -> int:
    lattice = _load_lattice(args.lattice)
    box = SearchBox.parse(args.box) if args.box else None
    report = verify_vertex_threshold(lattice, box)
    print(f"lattice:         delta={lattice.delta} n={lattice.n}")
    print(f"box:             {list(report.box)}")
    print(f"nu:              {report.nu}")
    print(f"max vertices:    {report.max_vertices_found}")
    print(f"polygons:        {report.instances_checked}")
    print(f"consistent:      {report.consistent}")
    print(f"elapsed:         {report.elapsed_seconds:.2f}s")
    _write_out(args.out, report.to_obj())
    return 0 if report.consistent else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="latfree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="area, Pick counts, diameter, bounding stats, maximal slopes")
    p.add_argument("polygon")
    p.add_argument("--svg", help="write an SVG outline with lattice dots")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("normalize", help="move the polygon into the canonical vertical slab")
    p.add_argument("polygon")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("classify", help="classify an n-lattice-free polygon into types I-VI")
    p.add_argument("polygon")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("slopes", help="splitting-frame analysis and edge-count checks for a slope")
    p.add_argument("slope")
    p.add_argument("--origin", required=True, help="frame origin as x,y")
    p.add_argument("--lattice", help="optional vertex lattice JSON for the sharpened bounds")
    p.set_defaults(func=_cmd_slopes)

    p = sub.add_parser("check-bounds", help="typed vertex bounds and the type II pipeline")
    p.add_argument("polygon")
    p.add_argument("--lattice", required=True, help="vertex lattice JSON")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_check_bounds)

    p = sub.add_parser("enumerate", help="stream lattice-free convex polygons over a box")
    p.add_argument("--lattice", required=True)
    p.add_argument("--box", required=True, help="x1min,x1max,x2min,x2max")
    p.add_argument("--min-vertices", type=int, default=3)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("extremal", help="the (nu-1)-gon avoiding delta*Z x n*Z")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("verify", help="exhaustive vertex-threshold check over a box")
    p.add_argument("--lattice", required=True)
    p.add_argument("--box", help="x1min,x1max,x2min,x2max (default: the slab box)")
    p.set_defaults(func=_cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def _merge_negative_values(argv: list[str]) -> list[str]:
    # let option values like "-1,3,-1,3" pass through argparse
    merged = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in ("--box", "--origin") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            merged.append(tok)
    return merged


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
        _probe_out(args.out)
        _probe_out(getattr(args, "svg", None))
        return args.func(args)
    except (CliError, ValueError) as exc:  # the input errors are all ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:  # includes ClassificationError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (say, `| head`); point stdout at devnull
        # so the flush at interpreter exit cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
