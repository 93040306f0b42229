"""Two rules over every module of the package, read from its syntax tree in
the way `test_kernels.py` keeps the kernels out of it: no module imports a
name it never reads, and none runs `itertools.product` or
`itertools.permutations`, the exhaustive searches that belong to the
references in `tests/oracles.py`."""

import ast
from pathlib import Path

import dvintercept

SRC = Path(dvintercept.__file__).parent

# imported and never read on purpose: perfbench/tracing.py patches these
# names in the modules that import them
TRACER_PATCH_POINTS = {("strategy.py", "distance_avoiding"),
                       ("interception.py", "check_admissible")}

EXHAUSTIVE = {"product", "permutations"}


def _modules():
    """The package's modules but `__init__`, whose imports are re-exports."""
    return [path for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"]


def _unread_imports(path):
    """(line, name) of every name an import in the module at `path` binds
    and no expression of it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for line, name in bound if name not in read)


def _exhaustive_uses(path):
    """(line, source text) of every import of `itertools.product` or
    `itertools.permutations` and every attribute read of them through a
    name bound to `itertools`, in the module at `path`."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for a in node.names if a.name == "itertools"}
    for node in ast.walk(tree):
        hit = (isinstance(node, ast.ImportFrom) and node.module == "itertools"
               and any(a.name in EXHAUSTIVE for a in node.names)
               or isinstance(node, ast.Attribute) and node.attr in EXHAUSTIVE
               and isinstance(node.value, ast.Name) and node.value.id in aliases)
        if hit:
            yield node.lineno, ast.get_source_segment(text, node)


def test_no_module_imports_a_name_it_never_reads():
    found = [(path.name, line, name) for path in _modules()
             for line, name in _unread_imports(path)
             if (path.name, name) not in TRACER_PATCH_POINTS]
    assert found == []


def test_every_tracer_patch_point_is_still_imported_unread():
    # the keep-list names no import that is gone or has a reader
    assert {(path.name, name) for path in _modules()
            for _, name in _unread_imports(path)} == TRACER_PATCH_POINTS


def test_no_module_runs_an_exhaustive_search():
    found = [(path.name, line, stmt) for path in _modules()
             for line, stmt in _exhaustive_uses(path)]
    assert found == []


def test_guards_see_every_import_form(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("\n".join([
        "from __future__ import annotations",
        "import os", "import numpy.linalg", "import numpy as np",
        "from . import graph", "from .graph import INF", "from .graph import Graph as G",
        "from dvintercept import (cli, selection)",
        "import itertools", "import itertools as it",
        "from itertools import permutations as perms, islice",
        "from itertools import product",
        "print(selection, islice)",
        "itertools.product(a, b)", "it.permutations(a)", "itertools.combinations(a, 2)",
    ]) + "\n")
    assert _unread_imports(mod) == [
        (2, "os"), (3, "numpy"), (4, "np"), (5, "graph"), (6, "INF"), (7, "G"),
        (8, "cli"), (11, "perms"), (12, "product")]
    assert sorted(_exhaustive_uses(mod)) == [
        (11, "from itertools import permutations as perms, islice"),
        (12, "from itertools import product"),
        (14, "itertools.product"), (15, "it.permutations")]
