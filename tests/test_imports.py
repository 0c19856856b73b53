"""numpy and yaml load only in the functions that use them; scipy never.

Importing multcp, simulating a scenario and policing a trace need none of
the numeric stack; each check runs in a fresh interpreter, because this
test process has numpy loaded already.  Two checks read the module ASTs
instead: no module imports scipy, and the package defines one exception
class.
"""

import ast
import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from multcp.policing import Declaration, write_declarations_csv, write_trace_csv
from multcp.tcp import TraceRecord

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("numpy", "scipy", "yaml")


def loaded_after(code: str) -> set[str]:
    """Names of numpy, scipy and yaml modules loaded once `code` has run."""
    probe = code + (
        "\nimport json, sys"
        f"\nprint(json.dumps(sorted(m for m in sys.modules"
        f" if m.split('.')[0] in {HEAVY!r})))")
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def top_level(modules: set[str]) -> set[str]:
    return {m.split(".")[0] for m in modules}


def test_importing_every_module_loads_no_numeric_stack_or_yaml():
    loaded = loaded_after(
        "import importlib, pkgutil, multcp\n"
        "for m in pkgutil.iter_modules(multcp.__path__):\n"
        "    importlib.import_module('multcp.' + m.name)")
    assert loaded == set()


@pytest.fixture
def police_files(tmp_path):
    trace = tmp_path / "trace.csv"
    decls = tmp_path / "decls.csv"
    w = 40.0
    records = []
    for k in range(6):
        records.append(TraceRecord(k * 10**8, 0, "loss-detected", w, w * 0.75,
                                   None))
        w = w * 0.75 + 5.0
    write_trace_csv(records, trace)
    write_declarations_csv([Declaration(0, 2.0, 0, 10**9)], decls)
    return trace, decls


def test_simulate_and_police_load_no_numeric_stack(police_files):
    trace, decls = police_files
    simulate = loaded_after(
        "from multcp import cli\n"
        "assert cli.main(['simulate', 'demos/two_flow.yaml']) == 0")
    assert top_level(simulate) & {"numpy", "scipy"} == set()
    police = loaded_after(
        "from multcp import cli\n"
        f"assert cli.main(['police', '--trace', {str(trace)!r},"
        f" '--declarations', {str(decls)!r}]) == 0")
    assert top_level(police) & {"numpy", "scipy"} == set()


def test_wpf_allocate_and_fairness_check_load_numpy_but_no_scipy(tmp_path):
    net = tmp_path / "net.yaml"
    net.write_text("capacities: {a: 1.0, b: 2.0}\nroutes: [[a], [a, b], [b]]\n")
    for code in (
            "from multcp.fairness import Network, wpf_allocate\n"
            "net = Network({'a': 1.0, 'b': 2.0}, (('a',), ('a', 'b'), ('b',)))\n"
            "assert wpf_allocate(net, [1.0, 1.0, 1.0]).converged",
            "from multcp import cli\n"
            f"assert cli.main(['fairness-check', {str(net)!r},"
            " '--allocate', 'wpf']) == 0"):
        loaded = top_level(loaded_after(code))
        assert "numpy" in loaded and "scipy" not in loaded, code


def test_no_module_imports_scipy():
    for path in sorted((ROOT / "src" / "multcp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), \
                (path.name, node.lineno)


def test_the_package_defines_one_exception_class():
    # bad input raises the builtin ValueError; only a run that fails has
    # a class of its own
    bases = {}      # "module.Class" -> the last part of each base's name
    for path in sorted((ROOT / "src" / "multcp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                bases[f"{path.stem}.{node.name}"] = {
                    ast.unparse(base).split(".")[-1] for base in node.bases}
    errors = {name for name, value in vars(builtins).items()
              if isinstance(value, type) and issubclass(value, BaseException)}
    found = set()
    for _ in bases:     # one pass per class reaches the end of any chain
        found |= {cls for cls, names in bases.items() if names & errors}
        errors |= {cls.split(".")[-1] for cls in found}
    assert found == {"engine.SimulationError"}
