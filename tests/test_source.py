"""Checks on the package source itself, read with ``ast``."""

import ast
import pathlib

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
