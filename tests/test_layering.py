"""The package's modules import only downward, in one fixed order, and the
CLI computes no verdict of its own, reads no private attribute and writes
its output at one place.

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


def ordering_comparisons(source: str, outside: str) -> list:
    """Line numbers of <, <=, > and >= in source, except inside def outside."""
    tree = ast.parse(source)
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == outside:
            skip.update(id(n) for n in ast.walk(node))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and id(node) not in skip
        and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
    ]


def test_scan_sees_ordering_comparisons():
    source = (
        "def _validate(a):\n"
        "    return a < 1\n"
        "def run(a, b):\n"
        "    ok = a <= 4.0 * b and a == b\n"
        "    return 'pass' if a >= b else 'FAIL'\n"
    )
    assert ordering_comparisons(source, "_validate") == [4, 5]


def test_cli_compares_only_its_arguments():
    # Verdicts (compare's spread limit, check's thresholds) are the
    # estimator's; the CLI checks its arguments' ranges in _validate and
    # formats what the estimator returns.
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert ordering_comparisons(source, "_validate") == []


def private_attributes(source: str) -> list:
    """(line, name) of every attribute in source whose name starts with one underscore."""
    return [
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
    ]


def test_scan_sees_private_attributes():
    source = (
        "actions = parser._actions\n"
        "name = type(parser).__name__\n"
        "flags = [a.option_strings for a in actions]\n"
        "store = isinstance(a, argparse._StoreAction)\n"
    )
    assert private_attributes(source) == [(1, "_actions"), (4, "_StoreAction")]


def test_cli_reads_no_private_attribute():
    # The CLI uses argparse through its public methods only.
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert private_attributes(source) == []


def test_cli_reads_no_argparse_action():
    # cli._COMMANDS states the CLI and argparse is built from it, so no
    # option is read back out of argparse's actions.
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    read = {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}
    assert not read & {"option_strings", "dest", "type", "choices", "default", "required",
                       "nargs", "get_default"}


def callers(source: str, name: str) -> list:
    """Qualified names of the functions in source that call name, once per call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == name):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_scan_sees_callers():
    source = (
        "class P:\n"
        "    def print_help(self):\n"
        "        _emit(self.format_help(), None)\n"
        "def run(args):\n"
        "    return _emit(g(_emit), 1) or emit(2) or x._emit(3)\n"
        "_emit(4)\n"
    )
    assert callers(source, "_emit") == ["P.print_help", "run", ""]


def test_cli_writes_at_one_place():
    # Commands return their report; main writes it, and help is written the
    # same way, so every write shares one I/O error path.
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert sorted(callers(source, "_emit")) == ["_Parser.print_help", "main"]
