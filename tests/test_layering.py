"""Import layering of the package, read from the source: the kernel layers
(algebra, minkowski) and the cycle layer import nothing above them, the
brute-force oracles use no more than the algebra they check, config is a
leaf, and the package namespace resolves its public names lazily."""

import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import ottoqft

SOURCES = sorted(pathlib.Path(ottoqft.__file__).parent.glob("*.py"))
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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

# module -> the package modules it may import; every module has a row
LAYERS = {
    "__init__": set(),  # its names resolve through importlib, on first use
    "algebra": set(),
    "minkowski": {"algebra"},
    "cycle": {"algebra"},
    "oracle": {"algebra"},
    "config": set(),
    "verification": {"algebra", "config", "cycle", "minkowski", "oracle"},
    "sweeps": {"config", "cycle", "minkowski"},
    "cli": {"config", "oracle", "sweeps", "verification"},
}

# the public names, in order, as the package stated them when each was
# imported eagerly
PUBLIC = [
    "MomentSet", "QuasiFreeKernel", "TwoPointKernel", "WeylMoments",
    "InvalidKernelError", "KernelContractError", "KernelInconsistencyError",
    "moment_set_from_kernel", "weyl_moments",
    "p_after_first", "contraction_factor", "p_after_second",
    "InteractionEvent", "CycleConfig", "WorkReport", "DegenerateCycleError",
    "theta", "cyclic_initial_population", "extracted_work",
    "positive_work_condition", "stroke_ledger",
    "MinkowskiParams", "dawson", "minkowski_moments", "figure4a_curve",
    "FockParams", "QuadratureSpec", "TruncationError", "QuadratureConvergenceError",
    "single_mode_kernel", "simulate_cycle_fock", "verify_weyl_moments",
    "quadrature_minkowski_moments",
    "run_verification", "run_verify",
    "__version__",
]


@pytest.mark.parametrize("module, allowed", LAYERS.items())
def test_layer_imports(module, allowed):
    assert IMPORTS[module] <= allowed


def test_every_module_has_a_layer():
    assert set(IMPORTS) == set(LAYERS)


def test_scan_sees_the_package_imports():
    # the scan reads relative imports: sweeps uses the kernel and the config layer
    assert {"config", "cycle", "minkowski"} <= IMPORTS["sweeps"]


def test_importing_the_package_or_config_loads_no_numpy():
    script = (
        "import json, sys\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'ottoqft'))\n"
        "import ottoqft\n"
        "package = loaded()\n"
        "import ottoqft.config\n"
        "print(json.dumps([package, loaded()]))\n"
    )
    src = str(pathlib.Path(ottoqft.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert json.loads(done.stdout) == [["ottoqft"], ["ottoqft", "ottoqft.config"]]


def test_public_names_keep_their_order():
    assert ottoqft.__all__ == PUBLIC


@pytest.mark.parametrize("name", [name for name in PUBLIC if name != "__version__"])
def test_public_name_is_its_modules_object(name):
    value = getattr(ottoqft, name)
    module = importlib.import_module(value.__module__)
    assert module.__name__.startswith("ottoqft.")
    assert name in module.__all__
    assert getattr(module, name) is value


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ottoqft.no_such_name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ottoqft import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert namespace["__version__"] == ottoqft.__version__


def test_readme_library_snippet_runs(capsys):
    text = README.read_text(encoding="utf-8")
    snippet = re.search(r"## Library use\s+```python\n(.*?)```", text, re.S).group(1)
    exec(snippet, {})
    w_ext, pwc = capsys.readouterr().out.split()
    assert float(w_ext) != 0.0 and pwc in ("True", "False")
