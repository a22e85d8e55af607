import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import latfree
from latfree.cli import run
from latfree.core import Sublattice
from latfree.polygon import Polygon
from latfree.reduction import classify_type
from latfree.verify import SearchBox, enumerate_free_polygons

from conftest import count_calls

QUAD = {"vertices": [[1, -1], [4, 1], [2, 4], [-1, 2]]}


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return tmp_path, write


def test_analyze_unit_triangle(files, capsys):
    tmp, write = files
    poly = write("tri.json", {"vertices": [[0, 0], [1, 0], [0, 1]]})
    out = tmp / "analyze.json"
    assert run(["analyze", poly, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "area2:           1" in text
    assert "lattice diameter: 1" in text
    report = json.loads(out.read_text())
    assert report["pick"] == {"interior": 0, "boundary": 3, "holds": True}


def test_analyze_svg(files):
    tmp, write = files
    poly = write("tri.json", {"vertices": [[0, 0], [1, 0], [0, 1]]})
    svg = tmp / "tri.svg"
    assert run(["analyze", poly, "--svg", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_normalize_and_classify(files, capsys):
    tmp, write = files
    poly = write("quad.json", {"vertices": [[1, -1], [4, 1], [2, 4], [-1, 2]]})
    assert run(["normalize", poly, "--n", "3"]) == 0
    norm = json.loads(capsys.readouterr().out)
    assert set(norm) == {"map", "image", "diameter_line_c"}
    assert run(["classify", poly, "--n", "3"]) == 0
    classified = json.loads(capsys.readouterr().out)
    assert classified["type"] == "II" and classified["n"] == 3


def test_classify_round_trips_canonical_polygon(files, capsys):
    tmp, write = files
    poly = write("oct.json", {"vertices": [[1, 0], [2, 0], [4, 1], [4, 2], [2, 3], [1, 3], [-1, 2], [-1, 1]]})
    assert run(["classify", poly, "--n", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    image = Polygon.from_obj(obj["image"])
    assert Polygon.from_obj(image.to_obj()) == image


@pytest.mark.parametrize("command", ["classify", "check-bounds"])
def test_cli_maps_the_polygon_once(files, monkeypatch, command):
    # the command reuses the image classification built instead of mapping
    # the polygon again
    tmp, write = files
    poly = write("quad.json", QUAD)
    lattice = ["--lattice", write("z2.json", {"delta": 1, "n": 1})] if command == "check-bounds" else []
    calls = count_calls(monkeypatch, "apply_affine")
    classify_type(Polygon.from_obj(QUAD), 3)
    bare = len(calls)
    calls.clear()
    assert run([command, poly, *lattice, "--n", "3"]) == 0
    assert len(calls) == bare


def test_slopes_command(files, capsys):
    tmp, write = files
    slope = write("slope.json", {"vertices": [[-1, 3], [2, -1]], "basis": [[1, 0], [0, 1]]})
    assert run(["slopes", slope, "--origin", "0,0"]) == 0
    text = capsys.readouterr().out
    assert "frame splits:    True" in text
    assert "alpha=3/4" in text
    assert "check projection_bound: ok" in text


def test_slopes_command_on_one_point_slope(files, capsys):
    # a slope of one vertex is valid: no width check, and no frame splits it
    tmp, write = files
    slope = write("slope.json", {"vertices": [[0, 0]], "basis": [[1, 0], [0, 1]]})
    assert run(["slopes", slope, "--origin", "1,1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["frame splits:    False"]


def test_slopes_command_with_z2_lattice(files, capsys):
    # Z^2 is no proper sublattice, so only the plain bounds apply to it
    tmp, write = files
    slope = write("slope.json", {"vertices": [[-1, 3], [2, -1]], "basis": [[1, 0], [0, 1]]})
    lattice = write("z2.json", {"delta": 1, "n": 1})
    assert run(["slopes", slope, "--origin", "0,0", "--lattice", lattice]) == 0
    checks = [line for line in capsys.readouterr().out.splitlines() if line.startswith("check ")]
    assert len(checks) == 3 and all(line.endswith(": ok") for line in checks)


@pytest.mark.parametrize(
    "slope_obj, lattice_obj, n_checks",
    [
        ({"vertices": [[-1, 3], [2, -1]], "basis": [[1, 0], [0, 1]]}, {"delta": 1, "n": 1}, 3),
        ({"vertices": [[-2, 4], [2, -2]], "basis": [[1, 0], [0, 1]]}, {"delta": 2, "n": 2}, 4),
    ],
    ids=["z2", "proper"],
)
def test_slopes_command_builds_profile_once(
    files, capsys, monkeypatch, slope_obj, lattice_obj, n_checks
):
    tmp, write = files
    slope = write("slope.json", slope_obj)
    lattice = write("lattice.json", lattice_obj)
    calls = count_calls(monkeypatch, "slope_profile")
    coords_calls = count_calls(monkeypatch, "_frame_coords")
    assert run(["slopes", slope, "--origin", "0,0", "--lattice", lattice]) == 0
    checks = [line for line in capsys.readouterr().out.splitlines() if line.startswith("check ")]
    assert len(checks) == n_checks and all(line.endswith(": ok") for line in checks)
    assert len(calls) == 1
    assert len(coords_calls) == 1


def test_check_bounds_quad(files, capsys):
    tmp, write = files
    poly = write("quad.json", {"vertices": [[1, -1], [4, 1], [2, 4], [-1, 2]]})
    lattice = write("z2.json", {"delta": 1, "n": 1})
    assert run(["check-bounds", poly, "--lattice", lattice, "--n", "3"]) == 0
    text = capsys.readouterr().out
    assert "type:            II_3" in text
    assert "check type_ii_bound_pipeline: ok" in text


def test_enumerate_streams_jsonl(files, capsys):
    tmp, write = files
    lattice = write("lat.json", {"delta": 2, "n": 2})
    assert run(["enumerate", "--lattice", lattice, "--box", "0,2,0,2", "--min-vertices", "4"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert [json.loads(l)["vertices"] for l in lines] == [[[0, 1], [1, 0], [2, 1], [1, 2]]]


def test_enumerate_out_matches_stream(files, capsys):
    tmp, write = files
    lattice = write("lat.json", {"delta": 2, "n": 2})
    out = tmp / "polygons.json"
    argv = ["enumerate", "--lattice", lattice, "--box", "-1,3,-1,3"]
    assert run(argv) == 0
    streamed = capsys.readouterr()
    assert run(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr() == streamed
    assert streamed.err == "found 483 polygons\n"
    report = json.loads(out.read_text())
    assert report["count"] == 483
    assert report["polygons"] == [json.loads(line) for line in streamed.out.splitlines()]


@pytest.mark.parametrize(
    "factors, box, min_vertices",
    [
        pytest.param((3, 3), "-2,5,-1,4", 3, id="3"),
        pytest.param((3, 3), "-2,5,-1,4", 6, id="6"),
        pytest.param((2, 4), "0,5,0,5", 3, id="2x4"),
        pytest.param((1, 3), "-6,-1,-5,-1", 3, id="negative-box"),
        # nu = 9 for (3, 3): no polygon has that many vertices
        pytest.param((3, 3), "-2,5,-1,4", 9, id="above-max"),
    ],
)
def test_enumerate_stream_bytes(files, capsysbinary, factors, box, min_vertices):
    tmp, write = files
    lattice = write("lat.json", {"delta": factors[0], "n": factors[1]})
    argv = ["enumerate", "--lattice", lattice, "--box", box, "--min-vertices", str(min_vertices)]
    assert run(argv) == 0
    polygons = list(
        enumerate_free_polygons(
            Sublattice.rectangular(*factors), SearchBox.parse(box), min_vertices
        )
    )
    captured = capsysbinary.readouterr()
    assert captured.out == "".join(json.dumps(p.to_obj()) + "\n" for p in polygons).encode()
    assert captured.err == f"found {len(polygons)} polygons\n".encode()
    if min_vertices == 9:
        assert captured.out == b"" and captured.err == b"found 0 polygons\n"
    # --out changes neither stream, and its file is json.dump's indented
    # report byte for byte
    out = tmp / "polygons.json"
    assert run(argv + ["--out", str(out)]) == 0
    assert capsysbinary.readouterr() == captured
    report = {
        "box": [int(c) for c in box.split(",")],
        "count": len(polygons),
        "lattice": {"delta": factors[0], "n": factors[1]},
        "polygons": [p.to_obj() for p in polygons],
    }
    assert out.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_enumerate_serializes_only_for_out(files, capsys, monkeypatch):
    tmp, write = files
    lattice = write("lat.json", {"delta": 2, "n": 2})
    argv = ["enumerate", "--lattice", lattice, "--box", "-1,3,-1,3"]
    to_obj_calls, dumps_calls = [], []
    to_obj, dumps = Polygon.to_obj, json.dumps

    def counted(calls, original):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Polygon, "to_obj", counted(to_obj_calls, to_obj))
    monkeypatch.setattr(json, "dumps", counted(dumps_calls, dumps))
    assert run(argv) == 0
    assert capsys.readouterr().err == "found 483 polygons\n"
    assert to_obj_calls == [] and dumps_calls == []
    out = tmp / "polygons.json"
    assert run(argv + ["--out", str(out)]) == 0
    assert to_obj_calls == [] and dumps_calls == []
    monkeypatch.undo()
    polygons = list(enumerate_free_polygons(Sublattice.rectangular(2, 2), SearchBox(-1, 3, -1, 3)))
    report = {
        "box": [-1, 3, -1, 3],
        "count": 483,
        "lattice": {"delta": 2, "n": 2},
        "polygons": [p.to_obj() for p in polygons],
    }
    assert out.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_extremal(files, capsys):
    tmp, write = files
    assert run(["extremal", "--delta", "3", "--n", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["nu"] == 9 and len(obj["vertices"]) == 8


def test_verify_report(files, capsys):
    tmp, write = files
    lattice = write("lat.json", {"delta": 2, "n": 2})
    out = tmp / "report.json"
    assert run(["verify", "--lattice", str(lattice), "--box", "-1,3,-1,3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["max_vertices_found"] == 4
    assert report["nu"] == 5
    assert report["consistent"] is True
    assert report["box"] == [-1, 3, -1, 3]
    assert Polygon.from_obj(report["witness"]) is not None


def test_verify_default_box(files):
    tmp, write = files
    lattice = write("lat.json", {"delta": 2, "n": 2})
    assert run(["verify", "--lattice", str(lattice)]) == 0


def test_missing_file_is_usage_error(capsys):
    assert run(["analyze", "/does/not/exist.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_polygon_is_usage_error(files, capsys):
    tmp, write = files
    poly = write("bad.json", {"vertices": [[0, 0], [1, 0], [2, 0]]})
    assert run(["analyze", poly]) == 1


def test_bad_box_is_usage_error(files, capsys):
    tmp, write = files
    lattice = write("lat.json", {"delta": 2, "n": 2})
    for box in ("1,2,3", "1,2,3,x"):
        assert run(["enumerate", "--lattice", lattice, "--box", box]) == 1
        assert capsys.readouterr().err == "error: box must be x1min,x1max,x2min,x2max\n"


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(["enumerate", "--lattice", "lat.json", "--box", "0,2,0,2", "--out"], id="enumerate-out"),
        pytest.param(["classify", "quad.json", "--n", "3", "--out"], id="classify-out"),
        pytest.param(["analyze", "quad.json", "--svg"], id="analyze-svg"),
    ],
)
def test_unwritable_output_is_usage_error(files, capsys, command):
    tmp, write = files
    write("lat.json", {"delta": 2, "n": 2})
    write("quad.json", {"vertices": [[1, -1], [4, 1], [2, 4], [-1, 2]]})
    target = tmp / "missing-dir" / "out.file"
    argv = [str(tmp / arg) if arg.endswith(".json") else arg for arg in command]
    assert run(argv + [str(target)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"error: cannot write {target}:")
    assert not any(line.startswith("error:") for line in err[:-1])


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(["verify", "--lattice", "lat.json", "--box", "0,2,0,2", "--out"], id="verify"),
        pytest.param(["verify", "--lattice", "lat.json", "--out"], id="verify-default-box"),
        pytest.param(["enumerate", "--lattice", "lat.json", "--box", "0,2,0,2", "--out"], id="enumerate"),
        pytest.param(["analyze", "quad.json", "--out"], id="analyze"),
        pytest.param(["analyze", "quad.json", "--svg"], id="analyze-svg"),
        pytest.param(["normalize", "quad.json", "--n", "3", "--out"], id="normalize"),
        pytest.param(["classify", "quad.json", "--n", "3", "--out"], id="classify"),
        pytest.param(
            ["check-bounds", "quad.json", "--lattice", "z2.json", "--n", "3", "--out"], id="check-bounds"
        ),
        pytest.param(["slopes", "slope.json", "--origin", "0,0", "--out"], id="slopes"),
        pytest.param(["extremal", "--delta", "3", "--n", "3", "--out"], id="extremal"),
    ],
)
def test_unwritable_out_fails_before_search(files, capsys, command):
    # every subcommand probes its output path before it prints anything
    tmp, write = files
    write("lat.json", {"delta": 2, "n": 2})
    write("z2.json", {"delta": 1, "n": 1})
    write("quad.json", {"vertices": [[1, -1], [4, 1], [2, 4], [-1, 2]]})
    write("slope.json", {"vertices": [[-1, 3], [2, -1]], "basis": [[1, 0], [0, 1]]})
    target = tmp / "missing-dir" / "out.json"
    argv = [str(tmp / arg) if arg.endswith(".json") else arg for arg in command]
    assert run(argv + [str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith(f"error: cannot write {target}:")


def test_out_probe_leaves_paths_as_they_were(files, capsys):
    tmp, write = files
    lattice = write("lat.json", {"delta": 2, "n": 2})
    assert run(["enumerate", "--lattice", lattice, "--box", "0,2,0,2"]) == 0
    plain = capsys.readouterr()
    out = tmp / "existing.json"
    out.write_text("stale contents that the report replaces\n")
    assert run(["enumerate", "--lattice", lattice, "--box", "0,2,0,2", "--out", str(out)]) == 0
    assert capsys.readouterr() == plain
    assert json.loads(out.read_text())["count"] == len(plain.out.splitlines())
    # a run that fails after the probe leaves no file behind
    zsquare = write("z.json", {"delta": 1, "n": 1})
    fresh = tmp / "fresh.json"
    assert run(["verify", "--lattice", zsquare, "--out", str(fresh)]) == 1
    assert not fresh.exists()


def test_closed_stdout_pipe_exits_quietly(files):
    tmp, write = files
    lattice = write("lat.json", {"delta": 3, "n": 3})
    env = dict(os.environ, PYTHONPATH=str(Path(latfree.__file__).parents[1]))
    # the stream (about 2 MB) outgrows any pipe buffer, so the writer is
    # still printing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "latfree.cli", "enumerate", "--lattice", lattice, "--box", "-2,5,-1,4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    assert json.loads(proc.stdout.readline())["vertices"]
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in err


def test_import_loads_no_dataclasses():
    # the records are NamedTuples, so start-up never pays for dataclasses
    # and the inspect module it pulls in
    env = dict(os.environ, PYTHONPATH=str(Path(latfree.__file__).parents[1]))
    code = "import sys, latfree, latfree.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_unknown_command_is_usage_error(capsys):
    assert run(["bogus"]) == 1


@pytest.mark.parametrize(
    "command, payload",
    [
        pytest.param(["analyze", "{}"], {"vertices": 5}, id="vertices-not-a-list"),
        pytest.param(["analyze", "{}"], {}, id="vertices-missing"),
        pytest.param(["analyze", "{}"], [[0, 0], [1, 0], [0, 1]], id="polygon-top-level-list"),
        pytest.param(["analyze", "{}"], {"vertices": [[0, 0], [1, 0], [0]]}, id="vertex-too-short"),
        pytest.param(["analyze", "{}"], {"vertices": [[0, 0], [1, 0], [0, None]]}, id="vertex-null"),
        pytest.param(["analyze", "{}"], {"vertices": [[0.7, 0], [1, 0], [0, 1]]}, id="vertex-float"),
        pytest.param(["classify", "{}", "--n", "3"], {"vertices": "abc"}, id="vertices-string"),
        pytest.param(["verify", "--lattice", "{}"], {"matrix": 5}, id="matrix-not-a-list"),
        pytest.param(["verify", "--lattice", "{}"], {"matrix": [[1, 0], [0]]}, id="matrix-ragged"),
        pytest.param(["verify", "--lattice", "{}"], {"delta": None, "n": 2}, id="delta-null"),
        pytest.param(["verify", "--lattice", "{}"], {"delta": "2", "n": 2}, id="delta-string"),
        pytest.param(["verify", "--lattice", "{}"], 7, id="lattice-top-level-int"),
        pytest.param(
            ["check-bounds", "quad.json", "--lattice", "{}", "--n", "3"], [], id="lattice-top-level-list"
        ),
        pytest.param(
            ["slopes", "{}", "--origin", "0,0"], {"vertices": [[0, 0]], "basis": 5}, id="basis-not-a-list"
        ),
        pytest.param(["slopes", "{}", "--origin", "0,0"], {"vertices": [[0, 0]]}, id="basis-missing"),
        pytest.param(["slopes", "{}", "--origin", "0,0"], [1, 2], id="slope-top-level-list"),
    ],
)
def test_malformed_json_is_usage_error(files, capsys, command, payload):
    tmp, write = files
    write("quad.json", {"vertices": [[1, -1], [4, 1], [2, 4], [-1, 2]]})
    bad = write("bad.json", payload)
    argv = [bad if arg == "{}" else str(tmp / arg) if arg.endswith(".json") else arg for arg in command]
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(["analyze", "{}"], id="analyze"),
        pytest.param(["normalize", "{}", "--n", "3"], id="normalize"),
        pytest.param(["classify", "{}", "--n", "3"], id="classify"),
        pytest.param(["slopes", "{}", "--origin", "0,0"], id="slopes"),
        pytest.param(["check-bounds", "{}", "--lattice", "z2.json", "--n", "3"], id="check-bounds"),
        pytest.param(["enumerate", "--lattice", "{}", "--box", "0,2,0,2"], id="enumerate"),
        pytest.param(["verify", "--lattice", "{}", "--box", "0,2,0,2"], id="verify"),
    ],
)
def test_deeply_nested_json_is_usage_error(files, capsys, command):
    # the decoder gives up on deep nesting with a RecursionError
    tmp, write = files
    write("z2.json", {"delta": 1, "n": 1})
    deep = tmp / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = [str(deep) if arg == "{}" else str(tmp / arg) if arg.endswith(".json") else arg for arg in command]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_classification_miss_exits_two(files, capsys, monkeypatch):
    from latfree import reduction

    tmp, write = files
    poly = write("quad.json", {"vertices": [[1, -1], [4, 1], [2, 4], [-1, 2]]})
    monkeypatch.delitem(reduction._CASE_C_ROWS, (2, 2))
    assert run(["classify", poly, "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "case C, split profile (2, 2)" in err[0]


def test_failed_check_exits_two_with_report(files, capsys, monkeypatch):
    from latfree import cli
    from latfree.slopes import CheckReport

    tmp, write = files
    slope = write("slope.json", {"vertices": [[-1, 3], [2, -1]], "basis": [[1, 0], [0, 1]]})
    failing = CheckReport.from_failures("width_bound", {"s": 0}, ["width"], {"slope": "stub"})
    monkeypatch.setattr(cli, "check_width_bound", lambda slope, lattice=None: failing)
    out = tmp / "report.json"
    assert run(["slopes", slope, "--origin", "0,0", "--out", str(out)]) == 2
    text = capsys.readouterr().out
    assert "check width_bound: FAIL" in text.splitlines()
    failed = json.loads(text[text.index("\n{") + 1:])
    assert failed == {"width_bound": failing.to_obj()}
    written = json.loads(out.read_text())
    assert written["width_bound"] == failing.to_obj()
    assert written["projection_bound"] == "ok"


@pytest.mark.parametrize(
    "command, payload, message",
    [
        pytest.param(
            ["verify", "--lattice", "{}", "--box", "3,1,0,2"], {"delta": 2, "n": 2},
            "box must be nonempty", id="empty-box",
        ),
        pytest.param(
            ["verify", "--lattice", "{}"], {"delta": 0, "n": 3},
            "invariant factors must be positive", id="zero-factor",
        ),
        pytest.param(["normalize", "{}", "--n", "1"], QUAD, "needs n >= 2", id="normalize-n-1"),
        pytest.param(["classify", "{}", "--n", "1"], QUAD, "needs n >= 2", id="classify-n-1"),
        pytest.param(
            ["slopes", "{}", "--origin", "0,0"], {"vertices": [[0, 0]], "basis": [[2, 0], [0, 1]]},
            "unimodular", id="basis-not-unimodular",
        ),
        pytest.param(
            ["slopes", "{}", "--origin", "0,0"], {"vertices": [], "basis": [[1, 0], [0, 1]]},
            "at least one vertex", id="no-vertices",
        ),
        pytest.param(
            ["slopes", "{}", "--origin", "1"], {"vertices": [[0, 0]], "basis": [[1, 0], [0, 1]]},
            "--origin must be x,y", id="origin-one-number",
        ),
    ],
)
def test_invalid_input_is_usage_error(files, capsys, command, payload, message):
    tmp, write = files
    path = write("input.json", payload)
    assert run([path if arg == "{}" else arg for arg in command]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and message in err


# Arbitrary JSON with small ints, so that no generated polygon or lattice is
# expensive, and with the readers' own keys among the dict keys.  Random
# values almost never pass the readers, so near-valid objects of small int
# pairs are mixed in to reach the geometry behind them too.
_small = st.integers(-6, 6)
_json = st.recursive(
    st.none() | st.booleans() | _small | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(
        st.sampled_from(["vertices", "delta", "n", "matrix", "basis"]) | st.text(max_size=4),
        inner,
        max_size=4,
    ),
    max_leaves=16,
)
_pair = st.lists(_small, min_size=2, max_size=2)
json_values = _json | st.fixed_dictionaries(
    {},
    optional={
        "vertices": st.lists(_pair | _json, max_size=8),
        "basis": st.lists(_pair, min_size=2, max_size=2) | _json,
        "matrix": st.lists(_pair, min_size=2, max_size=2) | _json,
        "delta": _small | _json,
        "n": _small | _json,
    },
)


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(["analyze", "{}"], id="analyze"),
        pytest.param(["classify", "{}", "--n", "3"], id="classify"),
        pytest.param(["check-bounds", "{}", "--lattice", "z2.json", "--n", "3"], id="check-bounds"),
        pytest.param(["slopes", "{}", "--origin", "0,0"], id="slopes"),
        pytest.param(["verify", "--lattice", "{}", "--box", "0,2,0,2"], id="verify"),
    ],
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=json_values)
def test_fuzzed_json_input(tmp_path, command, payload):
    (tmp_path / "z2.json").write_text(json.dumps({"delta": 1, "n": 1}))
    bad = tmp_path / "fuzz.json"
    bad.write_text(json.dumps(payload))
    argv = [str(bad) if arg == "{}" else str(tmp_path / arg) if arg.endswith(".json") else arg for arg in command]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
