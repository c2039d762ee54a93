"""Where the GELU's erf comes from: scipy's compiled ufunc module, loaded without
running `scipy.special`'s package `__init__`, and bit-identical to `scipy.special.erf`.

Each import order runs in a fresh interpreter, since the test process has long
since imported both `ppst.nn` and `scipy.special`."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from ppst import nn

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh_python(code, tmp_path):
    """Run `code` in a new interpreter that imports ppst from this checkout, with
    `x.npy` and `out.npy` in `tmp_path`; return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def sweep():
    """Signed zeros, infinities, NaN, subnormals, the float neighbours of +-1 and
    +-8, a grid over |x| <= 40 and 10^5 scaled normals."""
    tiny = np.finfo(np.float64).smallest_subnormal
    normal = np.finfo(np.float64).tiny
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 3 * tiny, -3 * tiny,
               normal / 2, -normal / 2, normal, -normal]
    neighbours = [np.nextafter(v, to) for v in (1.0, -1.0, 8.0, -8.0)
                  for to in (np.inf, -np.inf)] + [1.0, -1.0, 8.0, -8.0]
    grid = np.linspace(-40.0, 40.0, 16001)
    normals = np.random.default_rng(26).standard_normal(100_000) * 4.0
    return np.concatenate([special, neighbours, grid, normals])


def gelu(x):
    with np.errstate(invalid="ignore"):      # x * cdf(x) at -inf is NaN
        return nn.get_activation("gelu")(x, backward=False)[0]


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_erf_is_bit_identical_to_scipy_special():
    x = sweep()
    assert np.isnan(x).sum() == 1 and (np.abs(x[np.isfinite(x)]) <= 40).all()
    assert same_bits(nn.erf(x), erf(x))


def test_import_cli_loads_no_scipy_special(tmp_path):
    out = fresh_python("import sys, ppst.cli\n"
                       "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))",
                       tmp_path)
    assert out.split() == ["['scipy.special._special_ufuncs']"]


@pytest.mark.parametrize("first", ["ppst.nn", "scipy.special"])
def test_either_import_order_gives_scipy_special_erf(tmp_path, first):
    """The compiled module is initialised once: `scipy.special` reuses the one
    `ppst.nn` loaded, and `ppst.nn` uses the one `scipy.special` loaded."""
    x = sweep()
    np.save(tmp_path / "x.npy", x)
    second = "scipy.special" if first == "ppst.nn" else "ppst.nn"
    out = fresh_python(
        "import importlib, sys\nimport numpy as np\n"
        "name = 'scipy.special._special_ufuncs'\n"
        f"importlib.import_module({first!r})\n"
        "print('scipy.special' in sys.modules)\n"
        "loaded = sys.modules[name]\n"
        f"importlib.import_module({second!r})\n"
        "from ppst import nn\nimport scipy.special\n"
        "print(sys.modules[name] is loaded, nn.erf is scipy.special.erf is loaded.erf)\n"
        "np.save('out.npy', nn.erf(np.load('x.npy')))", tmp_path)
    assert out.split() == [str(first == "scipy.special"), "True", "True"]
    assert same_bits(np.load(tmp_path / "out.npy"), erf(x))


def test_fallback_without_the_compiled_module(tmp_path):
    """A scipy with no `_special_ufuncs` (older releases): `ppst.nn` takes
    `scipy.special.erf`, and the GELU's bits are the same."""
    x = sweep()
    np.save(tmp_path / "x.npy", x)
    out = fresh_python(
        "import importlib.machinery, sys\nimport numpy as np\n"
        "finder = importlib.machinery.PathFinder\nreal = finder.find_spec\n"
        "def find_spec(name, path=None, target=None):\n"
        "    if name.endswith('_special_ufuncs'):\n"
        "        finder.find_spec = real    # absent for ppst.nn only; scipy needs it\n"
        "        return None\n"
        "    return real(name, path, target)\n"
        "finder.find_spec = find_spec\n"
        "from ppst import nn\n"
        "print(finder.find_spec is real, 'scipy.special' in sys.modules)\n"
        "with np.errstate(invalid='ignore'):\n"
        "    np.save('out.npy', nn.get_activation('gelu')(np.load('x.npy'), False)[0])",
        tmp_path)
    assert out.split() == ["True", "True"]
    assert same_bits(np.load(tmp_path / "out.npy"), gelu(x))


def test_an_already_loaded_scipy_special_is_used_as_it_is(tmp_path):
    """With `scipy.special` imported first, `ppst.nn` neither looks up nor loads
    the compiled module again: both loader calls raise here, and its erf is
    scipy.special's own object."""
    out = fresh_python(
        "import importlib.machinery, importlib.util\nimport scipy.special\n"
        "finder = importlib.machinery.PathFinder\nreal = finder.find_spec\n"
        "def find_spec(name, path=None, target=None):\n"
        "    if name.endswith('_special_ufuncs'):\n"
        "        raise AssertionError('looked up ' + name)\n"
        "    return real(name, path, target)\n"
        "def module_from_spec(spec):\n"
        "    raise AssertionError('loaded ' + spec.name)\n"
        "finder.find_spec = find_spec\nimportlib.util.module_from_spec = module_from_spec\n"
        "from ppst import nn\n"
        "print(nn.erf is scipy.special.erf)", tmp_path)
    assert out.split() == ["True"]
