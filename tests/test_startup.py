"""Start-up: each CLI command imports only what it runs, the packages
keep their public names, and the package imports nothing beyond the
standard library and NumPy.

Every package below but ``repro.interconnect`` (one small submodule,
which every artefact loads) resolves its exports on first use (PEP 562,
through :func:`repro.lazy.lazy_exports`), so an analytic artefact never
loads the cycle-level DRAM model.  The import checks run ``python -m
repro`` in a fresh interpreter, since this test process has imported
most of the package already.
"""

import ast
import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = (
    "repro",
    "repro.bench",
    "repro.core",
    "repro.dram",
    "repro.interconnect",
    "repro.system",
)

#: Top-level modules the package may import besides the standard library:
#: NumPy, the one dependency CI installs for it, and the package itself.
DEPENDENCIES = {"numpy", "repro"}

#: Modules of the cycle-level model that no analytic command may load.
CYCLE_LEVEL = ("repro.dram.controller", "repro.dram.cache")

#: Every command but figures 11 and 12: each runs in-process.
IN_PROCESS = [
    *(("figure", n) for n in ("3", "4", "13", "14", "15", "16")),
    ("table", "3"),
    ("evaluate", "NCF"),
    ("ablations",),
]


@functools.cache
def imported_modules(*argv: str) -> frozenset[str]:
    """Every module ``python -m repro <argv>`` imports, read from
    ``-X importtime``, which lists each import on stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return frozenset(
        line.rpartition("|")[2].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    )


class TestImportBoundary:
    @pytest.mark.parametrize(
        "argv",
        [("figure", "15"), ("figure", "3"), ("table", "3"), ("evaluate", "NCF"), ("list",)],
        ids=" ".join,
    )
    def test_analytic_command_skips_cycle_level_model(self, argv):
        modules = imported_modules(*argv)
        assert "repro.cli" in modules  # the listing really covers the run
        assert sorted(modules & set(CYCLE_LEVEL)) == []

    def test_cycle_level_figure_loads_the_controller(self):
        """The checks here can fail: a cycle-level figure imports the
        controller and the process pool."""
        modules = imported_modules("figure", "11", "--quick")
        assert {"repro.dram.controller", "repro.parallel"} <= modules

    @pytest.mark.parametrize("argv", IN_PROCESS, ids=" ".join)
    def test_only_the_cycle_level_figures_load_the_pool(self, argv):
        modules = imported_modules(*argv)
        assert "repro.cli" in modules
        assert "repro.parallel" not in modules


@pytest.mark.parametrize("name", PACKAGES)
class TestPublicApi:
    def test_every_export_resolves(self, name):
        package = importlib.import_module(name)
        for export in package.__all__:
            assert getattr(package, export) is not None, export

    def test_every_export_is_listed(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_every_export(self, name):
        package = importlib.import_module(name)
        namespace = {}
        exec(f"from {name} import *", namespace)
        assert set(package.__all__) <= set(namespace)

    def test_unknown_attribute_names_itself(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=f"{name}.*no_such_export"):
            package.no_such_export


def undeclared_imports(root: Path) -> list[str]:
    """``path: module`` for every absolute import under ``root`` whose
    top-level name is neither standard library nor in DEPENDENCIES."""
    allowed = set(sys.stdlib_module_names) | DEPENDENCIES
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.relative_to(root.parent).as_posix()}: {name}"
                for name in names
                if name.partition(".")[0] not in allowed
            ]
    return found


def test_package_imports_only_declared_dependencies():
    assert undeclared_imports(SRC / "repro") == []


def test_top_level_quickstart_names():
    from repro import TensorDimmRuntime, TensorNode, evaluate_all, workload

    from repro.core.runtime import TensorDimmRuntime as runtime_class
    from repro.core.tensornode import TensorNode as node_class
    from repro.system.design_points import evaluate_all as evaluate_all_fn

    assert TensorNode is node_class and TensorDimmRuntime is runtime_class
    assert evaluate_all is evaluate_all_fn
    assert workload("NCF").name == "NCF"
