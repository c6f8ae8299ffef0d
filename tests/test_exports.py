"""The package's public names are consistent: every name a module lists in
__all__ exists and has a caller in the package or its benchmark, every
name pieces_lab/__init__.py imports is public in its module, and the names
and options taken out of the API stay out.  Importing the package, and
the calls the benchmark workloads make, load numpy and no scipy module."""

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
PERFBENCH = INIT.parent.parent.parent / "perfbench"
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


# public names that only the acceptance criteria or a planned caller use
KEPT_WITHOUT_CALLER = {
    "block_overlap": "criterion 7 measures block orthogonality with it",
    "coefficient_distance_bound": "criterion 9 checks the trace-norm bound with it",
    "fill_free_ground_state": "ROADMAP item 2 gives it a caller in asymptotics_check",
}


def _referenced_names(path):
    """The identifiers a file's code uses: names, attributes, and string
    constants (perfbench/spans.py reaches its targets by getattr), leaving
    out imports, definitions and the strings of __all__."""
    tree = ast.parse(path.read_text())
    exports = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
               and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
               for node in ast.walk(stmt.value)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in exports):
            names.add(node.value)
    return names


def test_public_names_have_callers():
    files = [*INIT.parent.glob("*.py"), *PERFBENCH.glob("*.py")]
    used = set().union(*map(_referenced_names, files))
    public = {name for m in MODULES
              for name in importlib.import_module(f"pieces_lab.{m}").__all__}
    assert set(KEPT_WITHOUT_CALLER) <= public
    assert sorted(public - used - set(KEPT_WITHOUT_CALLER)) == []


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
    # free_energy_per_particle_theoretical imports its own when called
    assert _scipy_modules_loaded("import pieces_lab") == set()


def test_workload_calls_load_no_scipy_module():
    # one call of each kind that the benchmark workloads make, and tail_Z
    # and a bound check; the (1, 1, 1) block of the exact ground state has
    # dim 1000 and takes the package's own LOBPCG
    loaded = _scipy_modules_loaded(
        "import pieces_lab\n"
        "pl = pieces_lab\n"
        "U = pl.BoxPotential(1.0, 1.0)\n"
        "pl.solve_two_body(U, 8.0, M=12)\n"
        "gamma = pl.gamma_via_K(U)\n"
        "pl.gamma_via_fit(U, [10.0, 20.0, 40.0])\n"
        "pl.asymptotics_check(pl.sample_pieces(3, 2e4, 1.0), 0.05, U, gamma)\n"
        "iv = [(0.0, 5.6), (6.1, 6.3), (12.9, 5.2)]\n"
        "_, _, state, _ = pl.exact_ground_state_small(iv, 3, U, M=10)\n"
        "pl.rdm1(state), pl.rdm2(state)\n"
        "far = [(0.0, 5.6), (65.6, 6.3)]\n"
        "_, pair = pl.solve_block(far, (2, 0), U, M=8, n_states=1)\n"
        "_, single = pl.solve_block(far, (0, 1), U, M=8, n_states=1)\n"
        "_, direct = pl.solve_block(far, (2, 1), U, M=8, n_states=1)\n"
        "f1, _ = pl.factorized_rdm([pair[0], single[0]])\n"
        "pl.trace_norm_distance(f1.matrix, pl.rdm1(direct[0]).matrix)\n"
        "pl.subadditivity_check(iv[:2], 2, [(30.0, 5.0)], 1, U, M=6)\n"
        "pl.tail_Z(pl.ExponentialPotential(1.0, 1.0), 0.5)\n"
        "pl.cross_piece_bound_check(U, 6.0, 8.0, 0.5, '12')")
    assert loaded == set()


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
    ("potential", "TabulatedPotential"),
    ("potential", "TruncatedPotential"),
    ("potential", "ResidualPotential"),
    ("potential", "split_principal"),
    ("potential", "check_HU"),
    ("potential", "f_Z"),
    ("potential", "InteractionPotential.moment"),
    ("spectrum", "rescale_check"),
    ("manybody", "kinetic_lower_bound"),
    ("twobody", "gamma_star"),
    ("potential", "InteractionPotential.scale_mu"),
    ("potential", "BoxPotential.scaled"),
    ("potential", "ExponentialPotential.scaled"),
    ("potential", "PolynomialPotential.scaled"),
    ("rdm", "DensityMatrix.order"),
    ("optstate", "_gtsv"),
    ("optstate", "_not_a_knot_spline"),
    ("optstate", "_pair_energy_spline"),
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
    ("twobody", "gamma_via_fit", "M"),
    ("twobody", "gamma_via_fit", "rtol"),
    ("quadrature", "_u_panels", "max_cycles"),
    ("optstate", "build_psi_opt", "mu"),
    ("optstate", "banded_particle_count", "mu"),
    ("optstate", "asymptotics_check", "mu"),
    ("_eigen", "_lowest_eigenpairs", "max_iter"),
    ("rdm", "DensityMatrix", "order"),
]


# an instance of each class that once held a removed instance attribute,
# which hasattr on the class cannot see
INSTANCES = {"DensityMatrix": lambda: pieces_lab.DensityMatrix([(0, 1)], [[1.0]])}


@pytest.mark.parametrize("module,path", REMOVED_NAMES, ids=lambda v: v)
def test_removed_names_stay_removed(module, path):
    obj = importlib.import_module(f"pieces_lab.{module}")
    *parents, name = path.split(".")
    for part in parents:
        obj = getattr(obj, part)
    assert not hasattr(obj, name)
    if parents and parents[-1] in INSTANCES:
        assert not hasattr(INSTANCES[parents[-1]](), name)
    assert name not in dir(pieces_lab)


@pytest.mark.parametrize("module,func,option", REMOVED_OPTIONS, ids=lambda v: v)
def test_removed_options_stay_removed(module, func, option):
    f = getattr(importlib.import_module(f"pieces_lab.{module}"), func)
    assert option not in inspect.signature(f).parameters
