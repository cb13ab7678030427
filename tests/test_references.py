"""Every `module.name` that the package's sources and README.md mention, for
an ellrank module, names something that module has: a renamed or deleted
function leaves no stale pointer in the prose that explains it."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ellrank"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("__"))
# a module name not itself read off a longer dotted name, then one attribute
REFERENCE = re.compile(r"(?<![\w.])(ellrank|%s)\.([A-Za-z_]\w*)" % "|".join(MODULES))


def _references():
    for path in sorted(PACKAGE.glob("*.py")) + [ROOT / "README.md"]:
        for match in REFERENCE.finditer(path.read_text(encoding="utf-8")):
            module, name = match.groups()
            if name != "py":  # a file name, not an attribute
                yield path.relative_to(ROOT), module, name


def _resolves(module: str, name: str) -> bool:
    full = "ellrank" if module == "ellrank" else f"ellrank.{module}"
    if hasattr(importlib.import_module(full), name):
        return True
    try:  # a submodule not imported yet
        importlib.import_module(f"{full}.{name}")
    except ImportError:
        return False
    return True


def test_every_module_reference_resolves():
    refs = set(_references())
    assert len(refs) > 40  # the scan finds the references the sources make
    stale = sorted(f"{path}: {module}.{name}" for path, module, name in refs
                   if not _resolves(module, name))
    assert stale == []
