"""Every name the benchmark harness binds in the package still resolves.

``perfbench/tracing.py`` wraps functions by (module, attribute), and the
harness's scripts and tests import names from the package.  A name removed
from the package would otherwise show only as an AttributeError in the
harness's own tests.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def imported_names():
    """(file, module, name) of every ``from chainflux... import name`` under perfbench/."""
    found = []
    for path in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "chainflux"):
                found += [(path.relative_to(PERFBENCH).as_posix(), node.module, alias.name)
                          for alias in node.names]
    return found


TRACING = load_tracing()
TRACED = [(module, attr) for module, attr, _ in TRACING.LAYER_FUNCTIONS + TRACING.SWEEP_FUNCTIONS]
IMPORTED = imported_names()


def test_the_harness_binds_and_imports_package_names():
    assert any(module.startswith("chainflux") for module, _ in TRACED)
    assert IMPORTED


@pytest.mark.parametrize("module, attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_every_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


@pytest.mark.parametrize("path, module, name", IMPORTED,
                         ids=[f"{p}:{m}.{n}" for p, m, n in IMPORTED])
def test_every_imported_name_resolves(path, module, name):
    # as ``from module import name`` does: an attribute, else a submodule
    if not hasattr(importlib.import_module(module), name):
        importlib.import_module(f"{module}.{name}")
