"""Checks on the package source itself, read with ``ast``."""

import ast
import importlib
import pathlib
import subprocess
import sys
import types

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "flagmn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that the module never reads."""
    bound = []
    for node in ast.walk(tree):
        # ``import a.b`` binds a; ``from __future__`` binds nothing
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_unused_import_is_caught():
    tree = ast.parse("import os\nimport re\nfrom x import y as z\nre.compile(z)\n")
    assert _unused_imports(tree) == ["os"]


def _private_definitions(tree: ast.Module) -> list[str]:
    """The private functions, classes and constants a module defines at top
    level (dunder names aside)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [
                t.id
                for target in targets
                for t in ast.walk(target)
                if isinstance(t, ast.Name)
            ]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _read_names(tree: ast.Module, modules: set[str]) -> set[str]:
    """The names a module reads, imports or takes off a package module; a
    top-level definition reading its own name (recursion) does not count."""
    read = set()
    for stmt in tree.body:
        here = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                here.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    here.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                here.update(a.name for a in node.names)
        here.discard(getattr(stmt, "name", None))
        read |= here
    return read


def _unused_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """module.name for each private top-level name no module of the package
    reads (matched by name)."""
    read = set().union(*(_read_names(t, set(trees)) for t in trees.values()))
    return [
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in read
    ]


def test_no_unused_private_name():
    trees = {
        p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")
    }
    assert _unused_private_names(trees) == []


def test_unused_private_name_is_caught():
    trees = {
        "a": ast.parse(
            "_USED = 1\n"
            "_UNUSED: int = 2\n"
            "def _loop(n):\n"
            "    return _loop(n - 1)\n"
            "class _Spare:\n"
            "    pass\n"
            "def _via_module():\n"
            "    pass\n"
            "def _via_import():\n"
            "    pass\n"
            "__all__ = []\n"
        ),
        "b": ast.parse(
            "from . import a\n"
            "from .a import _via_import as f\n"
            "print(_USED, a._via_module(), f())\n"
        ),
    }
    assert _unused_private_names(trees) == ["a._UNUSED", "a._loop", "a._Spare"]


# the value protocol is stated once, in perm._Record; Permutation and QElement,
# the dict keys of every product, keep their own with a cached hash
PROTOCOL_OWNERS = {"_Record", "Permutation", "QElement"}


def _stray_protocol(tree: ast.Module) -> list[str]:
    """Class.name for each __eq__ or __hash__ a class other than the owners
    defines or assigns."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or cls.name in PROTOCOL_OWNERS:
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [
                    t.id
                    for t in ast.walk(node)
                    if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
                ]
            else:
                continue
            found += [f"{cls.name}.{n}" for n in names if n in ("__eq__", "__hash__")]
    return found


def test_value_protocol_is_stated_once():
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")]
    assert [name for tree in trees for name in _stray_protocol(tree)] == []


def test_stray_protocol_is_caught():
    tree = ast.parse(
        "class Permutation:\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "class Word(_Record):\n"
        "    def __hash__(self):\n"
        "        return 0\n"
        "    def __repr__(self):\n"
        "        return 'Word()'\n"
        "    class Letter:\n"
        "        __eq__ = object.__eq__\n"
        "        __hash__: object = None\n"
        "def __eq__(a, b):\n"
        "    return a is b\n"
    )
    want = ["Word.__hash__", "Letter.__eq__", "Letter.__hash__"]
    assert _stray_protocol(tree) == want


# each module builds only on the modules before it
LAYERS = (
    "perm",
    "kbruhat",
    "qbruhat",
    "schubert",
    "qschubert",
    "operators",
    "verification",
    "cli",
)


def _package_imports(tree: ast.Module) -> list[str]:
    """The flagmn modules a module imports, at any depth (ast.walk order)."""
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # ``from .m import x`` reads flagmn.m.x, ``from . import m`` flagmn.m
            base = f"flagmn.{node.module or ''}" if node.level else node.module or ""
            dotted += [f"{base.rstrip('.')}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            dotted += [a.name for a in node.names]
    return [name.split(".")[1] for name in dotted if name.startswith("flagmn.")]


def test_layers_name_every_module():
    assert sorted(LAYERS) == [p.stem for p in MODULES]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_follow_the_layers(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    rank = LAYERS.index(path.stem)
    later = [m for m in _package_imports(tree) if LAYERS.index(m) >= rank]
    assert later == []


def test_late_import_is_caught():
    tree = ast.parse(
        "from .perm import identity\n"
        "import flagmn.cli\n"
        "def f():\n"
        "    from .qbruhat import QElement\n"
        "    from . import schubert\n"
        "    from flagmn.operators import act\n"
        "import os\n"
    )
    assert _package_imports(tree) == ["perm", "cli", "qbruhat", "schubert", "operators"]


# stdlib modules ``import flagmn`` must not load: the package needs no
# dataclasses, and json, traceback and difflib are imported where they run
DEFERRED = {"dataclasses", "inspect", "json", "traceback", "difflib", "argparse"}


def test_import_loads_no_deferred_module():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC.parent)!r})\n"
        "bare = set(sys.modules)\n"
        "import flagmn\n"
        "package = set(sys.modules)\n"
        "import flagmn.cli\n"
        "print(sorted(package - bare))\n"
        "print(sorted(set(sys.modules) - package))\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    by_package, by_cli = (set(ast.literal_eval(line)) for line in out.splitlines())
    # the release gate loads with the CLI or on first use, not with the package
    assert "flagmn.verification" not in by_package
    assert {"flagmn.verification", "flagmn.cli"} <= by_cli
    assert by_package & DEFERRED == set()
    assert "difflib" not in by_cli and "json" not in by_cli


def test_package_serves_the_gate_names_on_first_use():
    import flagmn
    from flagmn import verification

    assert flagmn.run_checks is verification.run_checks
    assert flagmn.CheckResult is verification.CheckResult
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        flagmn.no_such_name


def _aliases(module: types.ModuleType) -> list[tuple[str, str]]:
    """The pairs (first name, later name) in ``module.__all__`` that name one
    object."""
    first: dict[int, str] = {}
    pairs = []
    for name in module.__all__:
        key = id(getattr(module, name))
        if key in first:
            pairs.append((first[key], name))
        else:
            first[key] = name
    return pairs


@pytest.mark.parametrize("name", ["flagmn"] + [f"flagmn.{p.stem}" for p in MODULES])
def test_public_names_are_distinct_objects(name):
    # one public name per thing: an alias hides calls from a tracer that
    # patches one of the names
    assert _aliases(importlib.import_module(name)) == []


def test_alias_is_caught():
    module = types.ModuleType("m")
    module.f = module.g = lambda: None
    module.h = lambda: None
    module.__all__ = ["f", "h", "g"]
    assert _aliases(module) == [("f", "g")]


def test_statement_coverage_counts_the_statements_never_run():
    from statement_coverage import statements, unrun

    source = (
        '"""module docstring"""\n'  # 1
        "@decorator\n"  # 2
        "def f(x):\n"  # 3
        '    """docstring"""\n'  # 4
        "    global g\n"  # 5
        "    y: int\n"  # 6
        "    if x:\n"  # 7
        "        return (\n"  # 8
        "            1)\n"  # 9
        "    return 2\n"  # 10
    )
    # no code for docstrings, global and a bare annotation in a function
    assert statements(source) == [(2, 10), (7, 9), (8, 9), (10, 10)]
    assert unrun(source, {3, 7, 10}) == [8]
    # any line of a statement counts, the continuation of an expression too
    assert unrun(source, {9}) == [10]
