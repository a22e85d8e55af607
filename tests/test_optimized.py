"""The library's invariants are explicit checks, so ``python -O`` (which
strips ``assert`` statements) must not change what the CLI does."""

import ast
import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latfree

SRC = Path(latfree.__file__).resolve().parents[1]
PERFBENCH = SRC.parent / "perfbench"
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


def _read_names(tree: ast.AST) -> collections.Counter:
    # how often each name is read, as a Name or an Attribute
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_export_has_a_caller():
    # a name that latfree/__init__.py exports must be read somewhere in the
    # package (its own module included, its definition not) or by the
    # benchmark; a public name with no caller is deleted or moved to tests
    init = ast.parse((SRC / "latfree" / "__init__.py").read_text())
    exported = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    callers = [p for p in sorted((SRC / "latfree").glob("*.py")) if p.name != "__init__.py"]
    callers += sorted(PERFBENCH.glob("*.py"))
    assert len(callers) > 7, "perfbench/ not found beside src/"
    used = set().union(*(_read_names(ast.parse(path.read_text())) for path in callers))
    unused = [name for name in exported if name not in used]
    assert not unused, f"latfree exports {unused} but nothing in src/latfree or perfbench/ reads them"


def test_every_public_method_has_a_caller():
    # the same rule for a public method, property or classmethod of a class
    # in the package: it must be read in src/latfree outside its own
    # definition, or by the benchmark
    library = sorted((SRC / "latfree").glob("*.py"))
    reads = sum(
        (_read_names(ast.parse(path.read_text())) for path in library + sorted(PERFBENCH.glob("*.py"))),
        collections.Counter(),
    )
    unused = [
        f"{path.name}:{cls.name}.{node.name}"
        for path in library
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and reads[node.name] == _read_names(node)[node.name]
    ]
    assert not unused, f"public methods that nothing in src/latfree or perfbench/ reads: {unused}"


def _defaulted_params(body: list, cls: str | None = None) -> list:
    # (callee name, parameter, positional index or None) for every parameter
    # with a default; a method's index leaves out self or cls, and a class's
    # __init__ or __new__ goes by the class's name, as its callers call it
    out = []
    for node in body:
        if isinstance(node, ast.ClassDef):
            out += _defaulted_params(node.body, node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = cls if cls and node.name in ("__init__", "__new__") else node.name
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            bound = 1 if cls and not static else 0
            positional = node.args.posonlyargs + node.args.args
            for i in range(len(positional) - len(node.args.defaults), len(positional)):
                out.append((name, positional[i].arg, i - bound))
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    out.append((name, arg.arg, None))
            out += _defaulted_params(node.body)
    return out


def _passed_params(path: Path) -> set:
    # (callee name, what a call passes): a positional index, a keyword, "*"
    # for a starred argument or None for a ** mapping
    passed = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for i, arg in enumerate(node.args):
            passed.add((name, "*" if isinstance(arg, ast.Starred) else i))
        passed |= {(name, kw.arg) for kw in node.keywords}
    return passed


def test_every_option_has_a_setter():
    # a defaulted parameter that no call in src/latfree or perfbench/ passes
    # is an option nothing sets: its default is the only value it ever has
    library = sorted((SRC / "latfree").glob("*.py"))
    options = [
        option
        for path in library
        for option in _defaulted_params(ast.parse(path.read_text(), filename=str(path)).body)
    ]
    callers = library + sorted(PERFBENCH.glob("*.py"))
    passed = set().union(*(_passed_params(path) for path in callers))
    unset = [
        f"{name}({param})"
        for name, param, index in options
        if not {(name, param), (name, index), (name, "*"), (name, None)} & passed
    ]
    assert not unset, f"options that nothing in src/latfree or perfbench/ sets: {unset}"


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


def _appended_clauses(module: str) -> list[ast.expr]:
    tree = ast.parse((SRC / "latfree" / module).read_text())
    return [
        node.args[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "append"
        and getattr(node.func.value, "id", None) == "failures"
    ]


def test_every_slope_clause_has_a_firing_case():
    # test_slopes.py fires each clause a slope check can fail; a clause
    # added to slopes.py without a case there would go untested
    from test_slopes import CLAUSE_CASES

    args = _appended_clauses("slopes.py")
    assert all(isinstance(arg, ast.Constant) for arg in args), "clause names must be literals"
    assert {arg.value for arg in args} == set(CLAUSE_CASES)


def test_every_pipeline_clause_has_a_firing_case():
    # test_verify.py fires each clause of verify.py; an f-string clause such
    # as f"slope_bound_{k}" is matched by its literal prefix
    from test_verify import PIPELINE_CASES

    def matches(name, clause):
        literal, prefix = clause
        return name.startswith(literal) if prefix else name == literal

    clauses = []
    for arg in _appended_clauses("verify.py"):
        prefix = isinstance(arg, ast.JoinedStr)
        literal = arg.values[0] if prefix else arg
        assert isinstance(literal, ast.Constant), "clause names must be literals or literal prefixes"
        clauses.append((literal.value, prefix))
    assert [c for c in clauses if not any(matches(name, c) for name in PIPELINE_CASES)] == []
    assert [name for name in PIPELINE_CASES if not any(matches(name, c) for c in clauses)] == []


def _cli(flags: list[str], args: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "latfree.cli", *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    # the verify summary reports its wall time
    out = "".join(line for line in proc.stdout.splitlines(keepends=True) if not line.startswith("elapsed:"))
    return proc.returncode, out, proc.stderr


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("optimized")
    paths = {}
    objs = {
        "quad": QUAD,
        "z2": {"delta": 1, "n": 1},
        "lat22": {"delta": 2, "n": 2},
        "slope": {"vertices": [[-2, 4], [2, -2]], "basis": [[1, 0], [0, 1]]},
        # in type II position for n = 3, holding (3, 0), (3, 3) and (0, 3)
        "held": {"vertices": [[-1, 2], [1, -1], [5, 1], [3, 3], [1, 4]]},
        # type II for n = 5 with vertices in a (1, 5)-lattice
        "b2": {"vertices": [[-1, 3], [2, -1], [6, 2], [3, 6]]},
        "lat15": {"matrix": [[-2, -5], [1, 0]]},
    }
    for name, obj in objs.items():
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
        ["normalize", "{quad}", "--n", "3"],
        ["analyze", "{quad}"],
        # a proper lattice, so the ledger and the sublattice bound run
        ["slopes", "{slope}", "--origin", "0,0", "--lattice", "{lat22}"],
        ["extremal", "--delta", "3", "--n", "3"],
    ],
    ids=["classify", "check-bounds", "verify", "enumerate", "normalize", "analyze", "slopes", "extremal"],
)
def test_cli_under_python_O_matches(inputs, args):
    args = [arg.format(**inputs) for arg in args]
    plain = _cli([], args)
    optimized = _cli(["-O"], args)
    assert plain[0] == 0 and plain[1]
    assert optimized == plain


@pytest.mark.parametrize(
    "args, code, out, err",
    [
        # slab normalization meets the point (3, 0) of 3Z^2 in its freeness test
        (["check-bounds", "{held}", "--lattice", "{z2}", "--n", "3"], 1,
         "", "error: polygon not lattice-free\n"),
        # b = 2, so the pipeline checks the vertex lattice's large steps
        (["check-bounds", "{b2}", "--lattice", "{lat15}", "--n", "5"], 0,
         "type:            II_5\ncheck type_vertex_bound: ok\ncheck type_ii_bound_pipeline: ok\n", ""),
    ],
    ids=["held-corners", "large-steps"],
)
def test_check_bounds_under_python_O_matches(inputs, args, code, out, err):
    args = [arg.format(**inputs) for arg in args]
    plain = _cli([], args)
    assert plain == (code, out, err)
    assert _cli(["-O"], args) == plain


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
