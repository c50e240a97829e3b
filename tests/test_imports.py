"""Every name a module of ``voxseg`` imports is used in that module, every
public name a module defines is used somewhere in the program, only
``voxseg.monitor`` splits a command line or starts a process, only
``volume.check_same_grid`` compares two spacings, only
``pipeline._stage_image`` passes ``save_nifti`` a gzip level, and
no module but ``voxseg.tta`` calls ``np.flip`` or reads ``.reverse``, so
that a flip is undone in one place."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "voxseg"
# the trees whose code counts as a caller; tests do not
PROGRAM = ("src", "scripts", "perfbench")
# public names kept with no caller in the program, each with its reason
UNCALLED_ALLOWED = {
    "apply_flip_prob",  # criterion 5: flipping a probability map is an involution
}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    assert _unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]


# __init__.py is left out: its imports are the package's public API
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _public_definitions(source: str) -> list[str]:
    """Top-level public functions, classes and constants of a module."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def _references(source: str) -> set[str]:
    """Names a module reads, looks up as attributes, or imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _uncalled(modules: dict[str, str], callers: list[str], allowed=()) -> list[str]:
    used = set(allowed).union(*map(_references, callers))
    return [f"{name}: {n}" for name, source in modules.items()
            for n in _public_definitions(source) if n not in used]


def test_scan_finds_an_uncalled_name():
    module = "LIMIT = 3\ndef used():\n    return LIMIT\ndef spare():\n    pass\n"
    assert _uncalled({"m.py": module}, [module, "from m import used\n"]) == ["m.py: spare"]


def test_every_public_name_has_a_caller():
    # __init__.py only re-exports, so its imports are not callers
    callers = [p.read_text() for tree in PROGRAM for p in sorted((ROOT / tree).rglob("*.py"))
               if p != SRC / "__init__.py"]
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    uncalled = _uncalled(modules, callers, UNCALLED_ALLOWED)
    assert not uncalled, "no caller in src/, scripts/ or perfbench/: " + ", ".join(uncalled)


def _launch_sites(source: str) -> list[str]:
    """Every import of subprocess and every shlex.split call in ``source``;
    a call is named with the top-level definition it sits in."""
    sites = []
    for top in ast.parse(source).body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "module"
        for node in ast.walk(top):
            if (isinstance(node, ast.Import) and any(a.name == "subprocess" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "subprocess"):
                sites.append("import subprocess")
            elif isinstance(node, ast.ImportFrom) and node.module == "shlex":
                sites += [f"from shlex import {a.name}" for a in node.names if a.name == "split"]
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "shlex.split":
                sites.append(f"shlex.split in {where}")
    return sites


def test_scan_finds_launch_sites():
    source = ("import shlex, subprocess\nfrom shlex import split\n"
              "class C:\n    def f(self):\n        return shlex.split('a')\n")
    assert _launch_sites(source) == ["import subprocess", "from shlex import split", "shlex.split in C"]


def test_only_monitor_splits_or_launches_commands():
    found = {p.name: _launch_sites(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: sites for name, sites in found.items() if sites} == {
        "monitor.py": ["import subprocess", "shlex.split in split_command"],
    }


def _close_to_callers(source: str) -> list[str]:
    """The top-level definition around each ``.close_to(...)`` call in ``source``."""
    callers = []
    for top in ast.parse(source).body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "module"
        callers += [where for node in ast.walk(top) if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute) and node.func.attr == "close_to"]
    return callers


def test_scan_finds_close_to_callers():
    source = ("def f(a, b):\n    return a.close_to(b)\n"
              "class C:\n    def g(self, b):\n        return self.s.close_to(b) or close_to(b)\n")
    assert _close_to_callers(source) == ["f", "C"]


def test_only_check_same_grid_compares_spacings():
    # the spacing tolerance is applied in one place, so every grid check agrees
    found = {p.name: _close_to_callers(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: where for name, where in found.items() if where} == {"volume.py": ["check_same_grid"]}


def _level_callers(source: str) -> list[str]:
    """The top-level definition around each ``save_nifti`` call in
    ``source`` that passes a level, by keyword or as a third argument."""
    callers = []
    for top in ast.parse(source).body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "module"
        callers += [where for node in ast.walk(top) if isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] == "save_nifti"
                    and (len(node.args) > 2 or any(k.arg in ("level", None) for k in node.keywords))]
    return callers


def test_scan_finds_level_callers():
    source = ("def f(v, p):\n    save_nifti(v, p)\n    save_nifti(v, p, level=0)\n"
              "def g(v, p):\n    nifti.save_nifti(v, p, 9)\n"
              "def h(v, p, **kw):\n    save_nifti(v, p, **kw)\n")
    assert _level_callers(source) == ["f", "g", "h"]


def test_only_staged_tta_flips_pass_a_gzip_level():
    # the level argument exists for one measured caller; it is not a knob
    found = {p.relative_to(ROOT).as_posix(): _level_callers(p.read_text())
             for tree in PROGRAM for p in sorted((ROOT / tree).rglob("*.py"))}
    assert {path: where for path, where in found.items() if where} == {
        "src/voxseg/pipeline.py": ["_stage_image"],
    }


def _flip_sites(source: str) -> list[str]:
    """Each ``np.flip`` call and ``.reverse`` read in ``source``, named with
    the top-level definition it sits in."""
    sites = []
    for top in ast.parse(source).body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "module"
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.flip", "numpy.flip"):
                sites.append(f"np.flip in {where}")
            elif isinstance(node, ast.Attribute) and node.attr == "reverse" and isinstance(node.ctx, ast.Load):
                sites.append(f".reverse in {where}")
    return sites


def test_scan_finds_flip_sites():
    source = ("import numpy as np\ndef f(a, s):\n    return np.flip(a, axis=0)\n"
              "class C:\n    def g(self, a, s):\n        return a[s.reverse]\n"
              "r = numpy.flip(x)\n")
    assert _flip_sites(source) == ["np.flip in f", ".reverse in C", "np.flip in module"]


def test_only_tta_undoes_a_flip():
    found = {p.name: _flip_sites(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "tta.py"}
    assert {name: sites for name, sites in found.items() if sites} == {}
