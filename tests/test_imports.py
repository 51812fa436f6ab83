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


def test_fractions_load_only_for_a_query_that_is_not_an_int():
    # the CLI's geometry reads integer points alone, so a start skips `fractions`
    checks = fresh("""
import contextlib, io, json, sys
before = 'fractions' in sys.modules
from dworkcong.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(['newton', '--poly', '(1+x1)*(1+x2)*(1+x1+x2)/(x1*x2)', '--d', '2']),
             main(['check', 'c2', '--p', '3', '--s', '2'])]
after_cli = 'fractions' in sys.modules
from dworkcong.polytope import newton_polytope
from dworkcong.polyparse import parse_poly
inside = newton_polytope(parse_poly('x1+x1^-1', 1)).contains((0.5,), strict=True)
print(json.dumps({'before': before, 'codes': codes, 'after_cli': after_cli,
                  'inside': inside, 'after_query': 'fractions' in sys.modules}))
""")
    assert checks["codes"] == [0, 0] and checks["inside"] and checks["after_query"]
    assert checks["before"] or not checks["after_cli"]
