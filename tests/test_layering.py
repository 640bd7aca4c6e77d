"""Import layering of the package, read from the source: the kernel layers
(algebra, minkowski) and the cycle layer import nothing above them, the
brute-force oracles use no more than the algebra they check, the record base
is a leaf and config imports only it, and the package namespace resolves its
public names lazily.  Fresh processes show what each command loads."""

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
from ottoqft import cli, sweeps

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
    "record": set(),  # the frozen-record base of every public record type
    "algebra": {"record"},
    "minkowski": {"algebra", "record"},
    "cycle": {"algebra", "record"},
    "oracle": {"algebra", "record"},
    "config": {"record"},
    "verification": {"algebra", "config", "cycle", "minkowski", "oracle", "record"},
    "sweeps": {"algebra", "config", "cycle", "minkowski"},  # the kernel's float namespace
    # verify loads verification through cli._import, by name: no import statement
    "cli": {"config", "sweeps"},
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
    "FockParams", "TruncationError", "QuadratureConvergenceError",
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


def _python(script, **env):
    """The JSON that script prints, run in a fresh interpreter on this checkout's
    package.  OPENBLAS_NUM_THREADS is what env says, never inherited: importing
    ottoqft.cli sets it in this process."""
    src = str(pathlib.Path(ottoqft.__file__).parents[1])
    base = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**base, **env}, timeout=60, check=True)
    return json.loads(done.stdout)


def test_importing_the_package_or_config_loads_no_numpy():
    script = (
        "import json, sys\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'ottoqft'))\n"
        "import ottoqft\n"
        "package = loaded()\n"
        "import ottoqft.config\n"
        "print(json.dumps([package, loaded()]))\n"
    )
    assert _python(script) == [["ottoqft"], ["ottoqft", "ottoqft.config", "ottoqft.record"]]


# runs a command through cli.main, with its stdout set aside, in a process that goes on
# to report its state: cli.run, the python -m entry, would end the process
RUN_CLI = (
    "import contextlib, io, sys\n"
    "from ottoqft import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    status = cli.main({argv!r})\n"
)
# then prints the exit status and which of the modules named in LOADED are loaded
LOADED = ("ottoqft.oracle", "ottoqft.sweeps", "ottoqft.verification", "dataclasses", "numpy",
          "numpy.random", "argparse", "gettext", "locale")
REPORT_LOADED = "print(json.dumps([status, [name for name in {loaded!r} if name in sys.modules]]))\n"

TINY_CURVE = ("mode = curve-tau2\nomega1 = 1.0\nomega2 = 3.0\ntau1 = 0.0\nlambda1 = 100.0\n"
              "lambda2 = 1.0\ntau2_start = 0.5\ntau2_stop = 8.0\ntau2_count = {count}\n"
              "output = {out}\n")
TINY_GRID = ("mode = grid-couplings\nomega1 = 1.0\nomega2 = 3.0\ntau1 = 0.0\ntau2 = 1.5\n"
             "lambda1_start = 0.5\nlambda1_stop = 100.0\nlambda1_count = {count}\n"
             "lambda2_start = 0.0\nlambda2_stop = 3.0\nlambda2_count = 5\noutput = {out}\n")
POINT = ["point", "--set", "omega1=1", "--set", "omega2=3", "--set", "tau1=0",
         "--set", "tau2=1.5", "--set", "lambda1=100", "--set", "lambda2=1"]


def _argv(command, tmp_path):
    """The command line of a named run: a one-chunk or a two-chunk curve or grid
    sweep, a point, a point that fails (nu1 underflows), a light verify, or a verify
    whose override fails."""
    if command.startswith(("sweep", "grid")):
        template, count = {
            "sweep": (TINY_CURVE, 5), "sweep-2-chunks": (TINY_CURVE, sweeps._CHUNK + 1),
            "grid": (TINY_GRID, 7), "grid-2-chunks": (TINY_GRID, sweeps._CHUNK // 5 + 1),
        }[command]
        config = tmp_path / "run.cfg"
        config.write_text(template.format(count=count, out=tmp_path / "out.csv"), encoding="utf-8")
        return ["sweep", "--config", str(config)]
    return {"point": POINT, "point-error": [*POINT, "--set", "lambda1=122"],
            "verify": ["verify", "--set", "cases=1"],
            "verify-error": ["verify", "--set", "seed=-1"]}[command]


@pytest.mark.parametrize("command, status, loaded", [
    # no command loads the modules of a parser of argv.  A one-chunk sweep or a point
    # loads neither NumPy nor the oracles, their checks or dataclasses: it runs on
    # Python floats
    ("sweep", 0, ["ottoqft.sweeps"]),
    ("grid", 0, ["ottoqft.sweeps"]),  # 7 x 5 points
    ("point", 0, ["ottoqft.sweeps"]),
    ("point-error", 1, ["ottoqft.sweeps"]),
    ("sweep-2-chunks", 0, ["ottoqft.sweeps", "numpy"]),
    ("grid-2-chunks", 0, ["ottoqft.sweeps", "numpy"]),  # 410 x 5 points
    # loaded when it runs, without the sweeps; its seeded draws come from the
    # standard library's random
    ("verify", 0, ["ottoqft.oracle", "ottoqft.verification", "numpy"]),
    ("verify-error", 1, []),  # its overrides are read before it loads anything
])
def test_each_command_loads_only_what_it_runs(tmp_path, command, status, loaded):
    script = "import json\n" + RUN_CLI.format(argv=_argv(command, tmp_path))
    assert _python(script + REPORT_LOADED.format(loaded=LOADED)) == [status, loaded]


@pytest.mark.parametrize("command", ["point", "sweep", "grid", "verify"])
def test_one_process_commands_never_fork(tmp_path, command):
    # a point, a one-chunk sweep and verify run in one process, where they leave the
    # process's CPUs alone: with os.fork and os.sched_setaffinity raising, each still exits 0
    script = ("import json, os\n"
              "def refuse(*args):\n"
              "    raise AssertionError('forked or placed')\n"
              "os.fork = os.sched_setaffinity = refuse\n"
              + RUN_CLI.format(argv=_argv(command, tmp_path)))
    assert _python(script + "print(json.dumps(status))\n") == 0


# records OPENBLAS_NUM_THREADS and whether the cyclic collector is on as numpy is
# first imported, if it is, and both again at the end with whether any objects are frozen
WATCH_NUMPY = (
    "import gc, importlib.abc, json, os, sys\n"
    "state = lambda: [os.environ.get('OPENBLAS_NUM_THREADS'), gc.isenabled()]\n"
    "seen = []\n"
    "class Watch(importlib.abc.MetaPathFinder):\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'numpy' and not seen:\n"
    "            seen.append(state())\n"
    "sys.meta_path.insert(0, Watch())\n"
    "{statement}\n"
    "print(json.dumps(seen + [state() + [gc.get_freeze_count() > 0]]))\n"
)
# a library sweep of two chunks
LIBRARY_SWEEP = ("import ottoqft.config, ottoqft.sweeps\n"
                 "ottoqft.sweeps.run_sweep(ottoqft.config.parse_config({config!r}))")


# [OPENBLAS_NUM_THREADS, collector on] as numpy loads (None: it does not); at the
# end, also [frozen]
@pytest.mark.parametrize("statement, caller, at_numpy, at_end", [
    # a CLI run on arrays loads NumPy on one BLAS thread with the collector off,
    # then freezes what its imports made and switches the collector back on
    ("verify", None, ["1", False], ["1", True, True]),
    ("sweep-2-chunks", None, ["1", False], ["1", True, True]),
    ("verify", "3", ["3", False], ["3", True, True]),  # the caller's setting wins
    ("import gc; gc.disable()\nverify", None,  # so does a disabled collector
     ["1", False], ["1", False, True]),
    # importing the CLI, or a run on floats, loads no NumPy and leaves the threads
    # alone; the imports are frozen all the same
    ("import ottoqft.cli", None, None, [None, True, True]),
    ("sweep", None, None, [None, True, True]),
    ("import gc; gc.disable()\nsweep", None, None, [None, False, True]),
    # a library call on arrays changes nothing
    ("library", None, [None, True], [None, True, False]),
])
def test_blas_threads_and_collector_are_set_before_numpy_loads(tmp_path, statement, caller,
                                                               at_numpy, at_end):
    *head, command = statement.split("\n")
    if command in ("verify", "sweep", "sweep-2-chunks"):
        command = RUN_CLI.format(argv=_argv(command, tmp_path))
    elif command == "library":
        command = LIBRARY_SWEEP.format(config=TINY_CURVE.format(count=sweeps._CHUNK + 1, out="x.csv"))
    env = {} if caller is None else {"OPENBLAS_NUM_THREADS": caller}
    seen = _python(WATCH_NUMPY.format(statement="\n".join([*head, command])), **env)
    assert seen == ([at_numpy] if at_numpy else []) + [at_end]


def test_kernel_namespaces_expose_the_same_names():
    # the kernel is one code over either namespace: a name on one path only would
    # fail the first time the other path runs it
    from ottoqft.algebra import _POINT, _arrays

    assert sorted(vars(_POINT)) == sorted(vars(_arrays()))


def _names_errstate(node: ast.AST) -> bool:
    return getattr(node, "attr", getattr(node, "id", None)) == "errstate"


def test_errstate_is_opened_in_one_function():
    # every array entry point reaches NumPy through algebra._on_arrays, which alone
    # sets NumPy's floating-point error state: the package names errstate once, there
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert sum(map(_names_errstate, (n for tree in trees.values() for n in ast.walk(tree)))) == 1
    assert [(module, function.name) for module, tree in trees.items()
            for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
            and any(map(_names_errstate, ast.walk(function)))] == [("algebra", "_on_arrays")]


def test_a_kernel_given_xp_uses_only_that_namespace():
    # a function taking xp forms every term in it: one namespace per call, so
    # no such function reaches the float path's _POINT on its own, nor the builtin
    # sum, which from CPython 3.12 adds Python floats with compensation, arrays without
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    kernels = {(module, function.name): function for module, tree in trees.items()
               for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
               and "xp" in (a.arg for a in function.args.args)}
    assert {"_moments", "_dawson", "_exp", "_exp_scaled", "_products", "_population_columns",
            "_cycle", "_ledger", "_evaluate"} <= {name for _, name in kernels}
    assert [key for key, function in kernels.items() if any(
        getattr(node, "id", None) in ("_POINT", "sum") for node in ast.walk(function))] == []


def test_two_functions_call_the_population_kernel():
    # the array kernel's ledger and the scalar API's one helper: each scalar
    # function reaches _population_columns through _point_columns
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert sorted((module, function.name) for module, tree in trees.items()
                  for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
                  and any(isinstance(node, ast.Call)
                          and getattr(node.func, "id", None) == "_population_columns"
                          for node in ast.walk(function))
                  ) == [("algebra", "_point_columns"), ("cycle", "_ledger")]


def test_verify_and_the_oracles_call_no_builtin_max():
    # max(0.0, nan) is 0.0: the builtin max drops a NaN that follows its first value,
    # and a check whose deviations it folded passed on a NaN.  Deviations are reduced
    # by np.max, which keeps one.  The scan sees builtin calls: min(block, count - k),
    # verify's block size, is one
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    builtins = {(module, node.func.id) for module in ("verification", "oracle")
                for node in ast.walk(trees[module])
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert ("verification", "min") in builtins
    assert {module for module, name in builtins if name == "max"} == set()


def _called_name(node: ast.AST) -> str | None:
    """The name a call node calls, bare or as an attribute; None for any other node."""
    return getattr(node.func, "id", getattr(node.func, "attr", None)) if isinstance(node, ast.Call) else None


def test_the_fock_evolution_calls_no_closed_form():
    # the evolution stays independent of the closed forms it checks: in oracle.py,
    # weyl_moments is called only by verify_weyl_moments, to compare, and
    # moment_set_from_kernel only there and by quadrature_minkowski_moments, which
    # returns moment sets; no population map or kernel helper is called at all
    tree = ast.parse(next(p for p in SOURCES if p.stem == "oracle").read_text(encoding="utf-8"))
    callers = {}
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            for name in map(_called_name, ast.walk(function)):
                callers.setdefault(name, set()).add(function.name)
    assert callers["weyl_moments"] == {"verify_weyl_moments"}
    assert callers["moment_set_from_kernel"] == {"verify_weyl_moments", "quadrature_minkowski_moments"}
    called = set(map(_called_name, ast.walk(tree)))
    assert {name for name in called if name and name.startswith("p_after_")} == set()
    assert called & {"contraction_factor", "_products", "_population_columns", "_exp"} == set()


def _record_classes(trees) -> dict[str, ast.ClassDef]:
    """name -> class of every class in trees derived from Record, directly or not."""
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    found, count = {}, -1
    while count < len(found):
        count = len(found)
        found.update((node.name, node) for node in classes
                     if {getattr(base, "id", None) for base in node.bases} & {"Record", *found})
    return found


def _defines_init(statement: ast.stmt) -> bool:
    targets = getattr(statement, "targets", [statement])  # an assignment, or a def
    return any(getattr(target, "name", getattr(target, "id", None)) == "__init__"
               for target in targets)


def test_records_bind_through_their_generated_init():
    # Record.__init_subclass__ generates each record's __init__ with eval, so that
    # Python binds a record's arguments: no record defines an __init__ of its own,
    # and no other module evaluates code
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    records = _record_classes(trees.values())
    assert {"Axis", "MomentSet", "CycleConfig", "MinkowskiParams", "CheckResult"} <= set(records)
    assert [name for name, node in records.items() if any(map(_defines_init, node.body))] == []
    assert {module for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("eval", "exec")
            } == {"record"}


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


def _exit_codes(text):
    # {code: meaning} of the first "Exit codes: 0 success, 1 ..." sentence in text
    sentence = re.search(r"Exit codes:(.*?)\.\s", text, re.S).group(1)
    return dict(item.split(" ", 1) for item in " ".join(sentence.split()).split(", "))


def test_readme_exit_codes_are_the_cli_docstring_codes():
    codes = _exit_codes(cli.__doc__)
    assert codes == _exit_codes(README.read_text(encoding="utf-8"))
    assert list(codes) == ["0", "1", "2", "3", "129", "130", "143"]


def test_the_process_ends_in_two_places():
    # os._exit skips every cleanup of the interpreter: the command line calls it in run,
    # once main has flushed its output, and in _document's forked child, nowhere else
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    calls = {node for tree in trees.values() for node in ast.walk(tree) if _called_name(node) == "_exit"}
    functions = [node for node in ast.walk(trees["cli"]) if isinstance(node, ast.FunctionDef)]
    assert calls == {node for function in functions if function.name in ("run", "_document")
                     for node in ast.walk(function) if node in calls}
    assert {function.name for function in functions
            if calls & set(ast.walk(function))} == {"run", "_document"}


def test_the_script_ends_as_python_m_does():
    pyproject = README.with_name("pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^ottoqft = "(.*)"$', pyproject, re.M).group(1) == "ottoqft.cli:run"


def test_the_sweeps_resolve_after_a_bare_cli_import():
    # the command line loads sweeps only for sweep and point; the package still names it
    script = ("import json, sys\n"
              "import ottoqft, ottoqft.cli\n"
              "before = 'ottoqft.sweeps' in sys.modules\n"
              "print(json.dumps([before, ottoqft.sweeps.run_sweep.__module__,\n"
              "                  'numpy' in sys.modules]))\n")
    assert _python(script) == [False, "ottoqft.sweeps", False]
