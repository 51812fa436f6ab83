"""The package resolves its exported names on first use: importing one
module compiles that module alone, and every exported name is still there.
Each check runs in a fresh interpreter, whose `sys.modules` no other test
has filled."""

import json
import subprocess
import sys

import pytest

from test_cli import child_env
from test_layout import EXPORTED

# bound by `from dworkcong import *` when `__init__` imported every module
MODULES = "apery congruence ghost laurent padic polyparse polytope unitroot".split()


def fresh(code):
    """The JSON that `code` prints, run in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=child_env())
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def loaded_after(code):
    """The package's modules in `sys.modules` once `code` has run."""
    return set(fresh(f"import sys, json\n{code}\n"
                     "print(json.dumps([m for m in sys.modules"
                     " if m.partition('.')[0] == 'dworkcong']))"))


@pytest.mark.parametrize("module", ["apery", "polytope", "padic", "budget"])
def test_a_module_loads_alone(module):
    # each loads itself, and at most the price list, which imports no module of the package
    loaded = loaded_after(f"import dworkcong.{module}")
    assert {"dworkcong", f"dworkcong.{module}"} <= loaded
    assert loaded <= {"dworkcong", f"dworkcong.{module}", "dworkcong.budget"}


def test_a_unit_root_sweep_loads_no_polynomial_module():
    # pricing p**K goes through the price list, not through laurent
    loaded = loaded_after("import dworkcong.unitroot\n"
                          "dworkcong.unitroot.unit_root_sweep(5, 2)")
    assert loaded == {f"dworkcong{m}" for m in ["", ".apery", ".budget", ".padic", ".unitroot"]}


def test_exported_names_resolve_to_their_modules():
    checks = fresh("""
import importlib, json, dworkcong
listed = dir(dworkcong)  # before any name is resolved
laurent = dworkcong.laurent  # before any import binds it
names = sorted(dworkcong._MODULE)
same = [getattr(dworkcong, name) is getattr(
    importlib.import_module('dworkcong.' + dworkcong._MODULE[name]), name) for name in names]
kept = [name in vars(dworkcong) for name in names]  # resolved once, then plain globals
try:
    dworkcong.no_such_name
    unknown = None
except AttributeError as error:
    unknown = str(error)
print(json.dumps({'names': names, 'same': same, 'kept': kept, 'unknown': unknown, 'dir': listed,
                  'laurent': laurent is importlib.import_module('dworkcong.laurent')}))
""")
    assert sorted(checks["names"] + ["__version__"]) == sorted(EXPORTED)
    assert all(checks["same"]) and all(checks["kept"])
    assert checks["unknown"] == "module 'dworkcong' has no attribute 'no_such_name'"
    assert set(EXPORTED) <= set(checks["dir"])
    assert checks["laurent"]  # a module, reached as an attribute of the package


def test_star_import_binds_every_exported_name():
    bound = fresh("from dworkcong import *\nimport json\nprint(json.dumps(sorted(globals())))")
    assert set(EXPORTED) | set(MODULES) <= set(bound)
