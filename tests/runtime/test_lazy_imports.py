"""Import closure of the runtime packages and their lazy re-exports.

``repro.runtime``, ``repro.runtime.net`` and ``repro.runtime.sharding``
resolve their public names on first access (PEP 562), so a shard server that
imports :mod:`repro.runtime.net.server` loads only the shard code.  The
closure checks run in fresh interpreters, because this process has long since
imported everything.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

PACKAGES = ("repro.runtime", "repro.runtime.net", "repro.runtime.sharding")


def _fresh(code):
    """Run ``code`` in a new interpreter; returns its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_NO_NUMPY", None)
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


_LOADED = """
import json, sys
print(json.dumps({
    "repro": sorted(m for m in sys.modules if m.startswith("repro")),
    "numpy": "numpy" in sys.modules,
}))
"""


class TestImportClosure:
    def test_shard_server_loads_only_the_shard_code(self):
        loaded = _fresh("import repro.runtime.net.server\n" + _LOADED)
        assert not loaded["numpy"]
        modules = loaded["repro"]
        unwanted = (
            "repro.dataflow",
            "repro.runtime.df_simulator",
            "repro.runtime.streaming",
            "repro.runtime.recovery",
            "repro.runtime.net.gateway",
        )
        assert [m for m in modules if m.startswith(unwanted)] == []
        assert len(modules) <= 30, modules

    def test_sequential_run_never_imports_numpy(self):
        loaded = _fresh(
            "from repro.api import RuntimeConfig, run\n"
            "from repro.gamma.stdlib import min_element, values_multiset\n"
            "run(min_element(), values_multiset(range(50)),"
            " config=RuntimeConfig(engine='sequential'))\n" + _LOADED
        )
        assert not loaded["numpy"]

    def test_a_name_loads_its_submodule_on_first_access(self):
        loaded = _fresh(
            "import sys, repro.runtime\n"
            "before = 'repro.runtime.streaming' in sys.modules\n"
            "repro.runtime.StreamingGammaRuntime\n"
            "import json\n"
            "print(json.dumps([before, 'repro.runtime.streaming' in sys.modules]))"
        )
        assert loaded == [False, True]


def _definitions(package):
    """``{name: object}`` for every top-level name the package's submodules define."""
    root = importlib.import_module(package)
    found = {}
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if getattr(value, "__module__", info.name) == info.name:
                found.setdefault(name, value)
    return found


@pytest.mark.parametrize("package", PACKAGES)
class TestLazySurface:
    def test_every_name_is_the_defining_submodules_object(self, package):
        module = importlib.import_module(package)
        defined = _definitions(package)
        for name in module.__all__:
            assert name in defined, name
            assert getattr(module, name) is defined[name], name

    def test_star_import_binds_every_name(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)

    def test_dir_lists_every_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name  # noqa: B018
        assert not hasattr(module, "no_such_name")
