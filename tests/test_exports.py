"""The package's public names are consistent: every name a module lists in
__all__ exists, every name pieces_lab/__init__.py imports is public in its
module, and the names and options taken out of the API stay out.  Importing
the package loads numpy and scipy.linalg, not the scipy modules that only a
few functions use."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pieces_lab

INIT = Path(pieces_lab.__file__)
MODULES = sorted(p.stem for p in INIT.parent.glob("*.py")
                 if p.stem != "__init__" and "__all__" in p.read_text())


def _package_imports():
    """(module, name) of every `from .module import name` in __init__.py."""
    tree = ast.parse(INIT.read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"pieces_lab.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_imports_are_public():
    imports = _package_imports()
    assert imports and {m for m, _ in imports} <= set(MODULES)
    private = [(m, name) for m, name in imports
               if name not in importlib.import_module(f"pieces_lab.{m}").__all__]
    assert not private


def _scipy_modules_loaded(code):
    """The scipy modules, to two name levels, that a fresh interpreter
    holds after running code, which imports the package from this tree."""
    code += ("\nimport sys\n"
             "print(pieces_lab.__file__)\n"
             "print(' '.join(m for m in sys.modules if m.startswith('scipy')))")
    path = os.pathsep.join(filter(None, [str(INIT.parent.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path)).stdout.split("\n")
    assert out[0] == str(INIT)
    return {".".join(m.split(".")[:2]) for m in out[1].split()}


def test_import_leaves_other_scipy_modules_unloaded():
    # the functions that need them import these when called
    lazy = ("scipy.integrate", "scipy.optimize", "scipy.special",
            "scipy.interpolate")
    loaded = _scipy_modules_loaded("import pieces_lab")
    assert "scipy.linalg" in loaded
    assert not loaded & set(lazy)


def test_iterative_block_solve_loads_no_sparse_module():
    # a dim-1000 (1, 1, 1) block takes the package's own LOBPCG
    loaded = _scipy_modules_loaded(
        "import pieces_lab\n"
        "iv = [(0.0, 5.6), (6.1, 6.3), (12.9, 5.2)]\n"
        "pieces_lab.exact_ground_state_small(iv, 3, pieces_lab.BoxPotential(),"
        " M=10)")
    assert "scipy.sparse" not in loaded


# (module, attribute path) of names taken out of the API
REMOVED_NAMES = [
    ("manybody", "TwoElectronIntegrals"),
    ("manybody", "CIState.orbital_list"),
    ("manybody", "solve_piece_qbody"),
    ("manybody", "occupation_block_energy"),
    ("manybody", "CIState.occupation"),
    ("twobody", "pair_matrix_element"),
    ("twobody", "free_pair_state"),
    ("rdm", "DensityMatrix.index"),
    ("manybody", "wedge"),
    ("manybody", "DIMENSION_CAP"),
    ("twobody", "TwoBodySolution.evaluate"),
    ("twobody", "TwoBodySolution.density"),
    ("twobody", "TwoBodySolution.antisym_coeff_matrix"),
    ("quadrature", "sine_modes"),
]

# (module, function, parameter) of options no caller set, taken out
REMOVED_OPTIONS = [
    ("spectrum", "free_energy_per_particle_empirical", "return_levels"),
    ("manybody", "exact_ground_state_small", "cap"),
    ("twobody", "gamma_via_K", "R"),
    ("twobody", "gamma_via_K", "N"),
    ("rdm", "trace_norm_distance", "P"),
    ("optstate", "cross_piece_bound_check", "i"),
    ("optstate", "cross_piece_bound_check", "j"),
    ("optstate", "neighbor_energy_ladder", "gap"),
    ("potential", "f_Z", "eps"),
    ("potential", "check_HU", "x_max"),
    ("potential", "TabulatedPotential", "tail_majorant"),
    ("twobody", "gamma_via_fit", "M"),
    ("twobody", "gamma_via_fit", "rtol"),
    ("spectrum", "rescale_check", "rtol"),
    ("quadrature", "_u_panels", "max_cycles"),
    ("optstate", "build_psi_opt", "mu"),
    ("optstate", "banded_particle_count", "mu"),
    ("optstate", "asymptotics_check", "mu"),
]


@pytest.mark.parametrize("module,path", REMOVED_NAMES, ids=lambda v: v)
def test_removed_names_stay_removed(module, path):
    obj = importlib.import_module(f"pieces_lab.{module}")
    *parents, name = path.split(".")
    for part in parents:
        obj = getattr(obj, part)
    assert not hasattr(obj, name)
    assert name not in dir(pieces_lab)


@pytest.mark.parametrize("module,func,option", REMOVED_OPTIONS, ids=lambda v: v)
def test_removed_options_stay_removed(module, func, option):
    f = getattr(importlib.import_module(f"pieces_lab.{module}"), func)
    assert option not in inspect.signature(f).parameters
