"""Start-up: each CLI command imports only what it runs, and the lazily
exporting packages keep their public names.

The packages below resolve their exports on first use (PEP 562, through
:func:`repro.lazy.lazy_exports`), so an analytic artefact never loads the
cycle-level DRAM model.  The import checks run ``python -m repro`` in a
fresh interpreter, since this test process has imported most of the
package already.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LAZY_PACKAGES = (
    "repro",
    "repro.bench",
    "repro.core",
    "repro.dram",
    "repro.interconnect",
    "repro.system",
)

#: Modules of the cycle-level model that no analytic command may load.
CYCLE_LEVEL = ("repro.dram.controller", "repro.dram.cache")


def imported_modules(*argv: str) -> set[str]:
    """Every module ``python -m repro <argv>`` imports, read from
    ``-X importtime``, which lists each import on stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return {
        line.rpartition("|")[2].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }


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
        """The check above can fail: a cycle-level figure does import it."""
        assert "repro.dram.controller" in imported_modules("figure", "11", "--quick")


@pytest.mark.parametrize("name", LAZY_PACKAGES)
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


def test_top_level_quickstart_names():
    from repro import TensorDimmRuntime, TensorNode, evaluate_all, workload

    from repro.core.runtime import TensorDimmRuntime as runtime_class
    from repro.core.tensornode import TensorNode as node_class
    from repro.system.design_points import evaluate_all as evaluate_all_fn

    assert TensorNode is node_class and TensorDimmRuntime is runtime_class
    assert evaluate_all is evaluate_all_fn
    assert workload("NCF").name == "NCF"
