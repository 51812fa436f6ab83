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


@pytest.mark.parametrize("module", ["apery", "polytope", "padic"])
def test_a_module_loads_alone(module):
    loaded = fresh(f"import sys, json, dworkcong.{module}\n"
                   "print(json.dumps(sorted(m for m in sys.modules"
                   " if m.partition('.')[0] == 'dworkcong')))")
    assert loaded == ["dworkcong", f"dworkcong.{module}"]


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
