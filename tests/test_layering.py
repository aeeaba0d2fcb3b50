"""The package's modules import only downward, in one fixed order.

The scan covers every import statement in a module, including imports
inside functions and `from . import x`, because an import deferred into a
function body is still a dependency (and the usual way to hide a cycle).
"""

import ast
from pathlib import Path

import pytest

import glaisher

# Lowest first; a module may import only modules that precede it.
ORDER = ("integrands", "quadrature", "specfun", "estimator", "bench", "cli")
PACKAGE = Path(glaisher.__file__).parent


def imported_names(source: str) -> set:
    """Dotted names that source imports; relative imports resolve into glaisher."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "glaisher" if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def imported_modules(source: str) -> set:
    """Names in ORDER that source imports from the glaisher package."""
    found = set()
    for name in imported_names(source):
        parts = name.split(".")
        if parts[0] == "glaisher" and len(parts) > 1 and parts[1] in ORDER:
            found.add(parts[1])
    return found


def test_order_names_every_module():
    assert {p.stem for p in PACKAGE.glob("*.py")} == {*ORDER, "__init__"}


def test_scan_sees_deferred_and_package_imports():
    source = (
        "from . import cli\n"
        "import glaisher.bench\n"
        "def f():\n"
        "    from .specfun import log_gamma_plus_one\n"
        "    from glaisher.estimator import ln_a\n"
        "    import dataclasses\n"
        "    from typing import Optional\n"
    )
    assert imported_modules(source) == {"cli", "bench", "specfun", "estimator"}
    assert {"dataclasses", "typing"} <= {n.split(".")[0] for n in imported_names(source)}


@pytest.mark.parametrize("module", (*ORDER, "__init__"))
def test_no_dataclasses_or_typing(module):
    # Plain records are namedtuples, and annotations are lazy.
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    top_level = {name.split(".")[0] for name in imported_names(source)}
    assert not top_level & {"dataclasses", "typing"}


@pytest.mark.parametrize("module", ORDER)
def test_imports_only_lower_modules(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    allowed = set(ORDER[: ORDER.index(module)])
    assert imported_modules(source) <= allowed
