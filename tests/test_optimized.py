"""The library's invariants are explicit checks, so ``python -O`` (which
strips ``assert`` statements) must not change what the CLI does."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latfree

SRC = Path(latfree.__file__).resolve().parents[1]
QUAD = {"vertices": [[1, -1], [4, 1], [2, 4], [-1, 2]]}


def test_no_assert_statements_in_library():
    for path in sorted((SRC / "latfree").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements on lines {lines}"


def test_no_unused_imports_in_library():
    # __init__.py imports to re-export, so it is left out
    for path in sorted((SRC / "latfree").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(imported - used)
        assert not unused, f"{path.name} imports {unused} but never uses them"


def test_no_unused_private_definitions_in_library():
    # a module-level _name function or class must be referenced somewhere in
    # the package, as a name or an attribute; its own definition does not count
    defined, used = [], set()
    for path in sorted((SRC / "latfree").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [
            (path.name, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = [f"{module}:{name}" for module, name in defined if name not in used]
    assert not dead, f"private definitions never referenced in latfree: {dead}"


def test_no_private_names_imported_from_slopes():
    # each slope check takes the profile or the maximal slopes it reads, so
    # no other module needs a private form of it
    imports = [
        f"{path.name}:{alias.name}"
        for path in sorted((SRC / "latfree").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.module == "slopes" and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not imports, f"private names imported from latfree.slopes: {imports}"


def _cli(flags: list[str], args: list[str]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "latfree.cli", *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    # the verify summary reports its wall time
    out = "".join(line for line in proc.stdout.splitlines(keepends=True) if not line.startswith("elapsed:"))
    return proc.returncode, out


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("optimized")
    paths = {}
    for name, obj in {"quad": QUAD, "z2": {"delta": 1, "n": 1}, "lat22": {"delta": 2, "n": 2}}.items():
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "{quad}", "--n", "3"],
        ["check-bounds", "{quad}", "--lattice", "{z2}", "--n", "3"],
        ["verify", "--lattice", "{lat22}", "--box", "-1,3,-1,3"],
        ["enumerate", "--lattice", "{lat22}", "--box", "-1,3,-1,3", "--min-vertices", "4"],
    ],
    ids=["classify", "check-bounds", "verify", "enumerate"],
)
def test_cli_under_python_O_matches(inputs, args):
    args = [arg.format(**inputs) for arg in args]
    plain = _cli([], args)
    optimized = _cli(["-O"], args)
    assert plain[0] == 0 and plain[1]
    assert optimized == plain


def test_mistyped_marker_fails_collection(tmp_path):
    # an unregistered mark is an error, so a typo of ``slow`` cannot put a
    # slow replay into the default run
    test = tmp_path / "test_typo.py"
    test.write_text("import pytest\n\n\n@pytest.mark.slwo\ndef test_typo():\n    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(SRC.parent / "pyproject.toml"), "--rootdir", str(tmp_path), str(test)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "'slwo' not found in `markers`" in proc.stdout
