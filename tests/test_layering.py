"""Import layering of the package, read from the source: the kernel layers
(algebra, minkowski) and the cycle layer import nothing above them, and the
brute-force oracles use no more than the algebra they check."""

import ast
import pathlib

import pytest

import ottoqft

SOURCES = sorted(pathlib.Path(ottoqft.__file__).parent.glob("*.py"))


def _package_imports(path: pathlib.Path) -> set[str]:
    """The ottoqft modules a source file imports, relatively or absolutely."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ottoqft."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("ottoqft."))
    return {name.split(".")[0] for name in found}


IMPORTS = {path.stem: _package_imports(path) for path in SOURCES}


@pytest.mark.parametrize("module, allowed", [
    ("algebra", set()),
    ("minkowski", {"algebra"}),
    ("cycle", {"algebra"}),
    ("oracle", {"algebra"}),
])
def test_layer_imports(module, allowed):
    assert IMPORTS[module] <= allowed


def test_scan_sees_the_package_imports():
    # the scan reads relative imports: sweeps uses the kernel and the config layer
    assert {"config", "cycle", "minkowski"} <= IMPORTS["sweeps"]
