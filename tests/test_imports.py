"""No module of the package imports a name it never uses.

No linter ships with the test environment, so this walks each module's
syntax tree. A line marked `# noqa: F401` may import a name it does not
use (perfbench's tracer rebinds such names by module attribute); every name
the tracer rebinds must stay where it looks for it, and every name and
keyword the benchmark's workloads take from the library must still exist.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "acrestore"
# the package modules perfbench/workloads.py calls through their attributes
LIBRARY_MODULES = ("acpf", "fileio", "lpac", "scenarios", "train", "wls")


def unused_imports(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path) == []


def test_check_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import json\nimport os  # noqa: F401\nimport sys\n\nprint(sys.argv)\n")
    assert unused_imports(module) == ["module.py:1: json"]


def test_every_traced_site_is_an_attribute_of_its_owner():
    # the tracer reads each site from its owner's __dict__, so a rename or a
    # dropped import in the library would break the traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _name, _after in tracer.SITES
               if attr not in owner.__dict__]
    assert tracer.SITES and missing == []


def library_uses(path: Path) -> list[tuple[str, str, list[str]]]:
    """(module, attribute, keywords) for every attribute the file reads off a
    library module; keywords are those of a call made through it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    keywords = {id(node.func): [k.arg for k in node.keywords if k.arg]
                for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return [(node.value.id, node.attr, keywords.get(id(node), []))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in LIBRARY_MODULES]


def test_every_library_name_the_benchmark_uses_exists():
    # workloads.py is parsed, not run, so a name or keyword the library
    # renames or drops fails here and not only in the benchmark's own tests
    uses = library_uses(ROOT / "perfbench" / "workloads.py")
    assert uses
    broken = []
    for module_name, attr, keywords in uses:
        module = importlib.import_module(f"acrestore.{module_name}")
        if not hasattr(module, attr):
            broken.append(f"{module_name}.{attr}")
        elif keywords:
            try:
                inspect.signature(getattr(module, attr)).bind_partial(**dict.fromkeys(keywords))
            except TypeError as exc:
                broken.append(f"{module_name}.{attr}: {exc}")
    assert broken == []
