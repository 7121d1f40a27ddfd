import ast
import importlib
import pathlib
import pkgutil

import pytest

import hyplab
from hyplab.coefficients import PROFILES

MODULES = sorted(info.name for info in pkgutil.iter_modules(hyplab.__path__))


def test_every_module_is_listed():
    assert len(MODULES) >= 12


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    mod = importlib.import_module(f"hyplab.{name}")
    exported = mod.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, missing
    namespace = {}
    exec(f"from hyplab.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_calls_mollify_with_t_by_keyword():
    # perfbench/tracer.py counts a mollify call's points from its ``t``
    # keyword (or a fourth positional argument, which mollify does not take),
    # so a positional t makes a traced benchmark pass raise IndexError
    calls = []
    for path in sorted(pathlib.Path(hyplab.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "mollify":
                calls.append(f"{path.name}:{node.lineno}")
                assert len(node.args) <= 2 and "t" in {k.arg for k in node.keywords}, calls[-1]
    assert calls


def test_profile_names_are_compared_only_where_a_profile_is_decided():
    # CoefficientSpec.__post_init__ turns a profile into its time term, which
    # every other place asks; the loss sweep varies the log-power gamma by
    # definition, so it looks for that profile by name
    names = set(PROFILES)
    sites = {}
    for path in sorted(pathlib.Path(hyplab.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        # ast.walk is breadth first, so a nested function's name overwrites its outer one
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))]:
            for node in ast.walk(scope):
                operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
                if any(isinstance(v, ast.Constant) and v.value in names for v in operands):
                    sites[(path.name, node.lineno, node.col_offset)] = getattr(scope, "name", "<module>")
    assert {(where[0], scope) for where, scope in sites.items()} == {
        ("coefficients.py", "__post_init__"),
        ("cli.py", "_oscillating_index"),
    }, sorted(sites.items())
