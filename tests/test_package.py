"""The package namespace: what `import besselstruve` loads, and its names."""

import importlib
import os
import subprocess
import sys

import pytest

import besselstruve

# the layers that load on first use of one of their names
LAZY_LAYERS = ("operators", "verifier")


def fresh_interpreter(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that finds this package."""
    src = os.path.dirname(os.path.dirname(besselstruve.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_only_the_eager_layers():
    # the package, and then the command's module, which loads the lazy
    # layers inside the subcommands that use them
    out = fresh_interpreter(
        "import sys, besselstruve\n"
        "lazy = ('besselstruve.operators', 'besselstruve.verifier', 'mpmath')\n"
        "print(*(m for m in lazy + ('besselstruve.cli',) if m in sys.modules))\n"
        "import besselstruve.cli\n"
        "print(*(m for m in lazy if m in sys.modules))")
    assert out.splitlines() == ["", ""]


def test_first_use_loads_the_defining_layer():
    out = fresh_interpreter(
        "import sys, besselstruve\n"
        "besselstruve.hadamard\n"
        "print('besselstruve.operators' in sys.modules, "
        "'besselstruve.verifier' in sys.modules, "
        "'hadamard' in vars(besselstruve))")
    assert out.split() == ["True", "False", "True"]


@pytest.mark.parametrize("name", [n for n in besselstruve.__all__
                                  if n != "__version__"])
def test_every_name_is_the_defining_modules_object(name):
    obj = getattr(besselstruve, name)
    assert obj.__module__.startswith("besselstruve.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_the_lazy_layers_define_22_names():
    operators = importlib.import_module("besselstruve.operators")
    verifier = importlib.import_module("besselstruve.verifier")
    assert len(set(besselstruve.__all__)
               & (set(operators.__all__) | set(verifier.__all__))) == 22


@pytest.mark.parametrize("layer", LAZY_LAYERS)
def test_lazy_layers_are_attributes(layer):
    assert getattr(besselstruve, layer) is importlib.import_module(
        f"besselstruve.{layer}")


def test_dir_and_star_import_cover_all():
    assert set(besselstruve.__all__) <= set(dir(besselstruve))
    namespace = {}
    exec("from besselstruve import *", namespace)
    for name in besselstruve.__all__:
        assert namespace[name] is getattr(besselstruve, name)


@pytest.mark.parametrize("name", ["no_such_name", "SUITE_NAMES", "cli_main"])
def test_unknown_name_raises_the_standard_error(name):
    with pytest.raises(AttributeError) as info:
        getattr(besselstruve, name)
    assert str(info.value) == f"module 'besselstruve' has no attribute {name!r}"
    assert not hasattr(besselstruve, name)
