"""The package namespace: each public name is its defining module's object,
and a module loads on the first use of one of its names."""

import importlib
import os
import subprocess
import sys

import pytest

import hypforms


def test_every_public_name_is_its_defining_modules_object():
    for name in hypforms.__all__:
        module = importlib.import_module(f"hypforms.{hypforms._MODULE_OF[name]}")
        assert getattr(hypforms, name) is getattr(module, name), name
        defined_in = getattr(getattr(module, name), "__module__", module.__name__)
        assert defined_in == module.__name__, name
    assert set(hypforms.__all__) <= set(dir(hypforms))


def test_an_unknown_name_raises_attribute_error_so_submodules_still_import():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hypforms.no_such_name
    from hypforms import cli
    assert cli.__name__ == "hypforms.cli"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hypforms import *", namespace)
    assert [n for n in hypforms.__all__ if namespace.get(n) is not getattr(hypforms, n)] == []


def test_a_bare_import_loads_each_module_on_first_use():
    # a new interpreter, so that no module a test imported counts
    script = (
        "import sys\n"
        "import hypforms\n"
        "loaded = lambda: ','.join(sorted(m for m in sys.modules if m.startswith('hypforms')))\n"
        "print(loaded())\n"
        "print(hypforms.core.MAX_DEGREE, loaded())\n"
        "print(hypforms.families.__name__, loaded())\n"
        "from hypforms import *\n"
        "print(len(hypforms.__all__), sum(n in globals() for n in hypforms.__all__))\n"
    )
    src = os.path.dirname(os.path.dirname(hypforms.__file__))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == [
        "hypforms",
        "100 hypforms,hypforms.core",
        "hypforms.families hypforms,hypforms.core,hypforms.families",
        "48 48",
    ]
