import numpy as np
import pytest

from pieces_lab.potential import (BoxPotential, ExponentialPotential,
                                  TabulatedPotential)
from pieces_lab.twobody import (_solve, astar_xstar, free_pair_state,
                                gamma_star, gamma_via_K, gamma_via_fit,
                                pair_matrix_element, solve_two_body)


def test_free_pair_state():
    ell = 4.0
    phi, E = free_pair_state(1, 2, ell)
    assert E == pytest.approx(np.pi ** 2 * 5.0 / 16.0)
    # antisymmetry and normalization on a grid
    x = np.linspace(0, ell, 201)
    X, Y = np.meshgrid(x, x)
    vals = phi(X, Y)
    assert np.allclose(vals, -phi(Y, X), atol=1e-12)
    norm = np.trapezoid(np.trapezoid(vals ** 2, x, axis=1), x)
    assert norm == pytest.approx(1.0, abs=1e-3)


def test_pair_matrix_element_symmetric():
    U = BoxPotential(1.0, 1.0)
    a = pair_matrix_element(U, 5.0, (1, 2), (1, 3))
    b = pair_matrix_element(U, 5.0, (1, 3), (1, 2))
    assert a == pytest.approx(b, rel=1e-12)


def test_zero_potential_ground_state():
    sol = solve_two_body(BoxPotential(0.0, 1.0), 6.0, M=10)
    assert sol.energy == pytest.approx(np.pi ** 2 * 5.0 / 36.0, rel=1e-12)


def test_variational_upper_bound_and_monotonicity():
    U = BoxPotential(1.0, 1.0)
    free = np.pi ** 2 * 5.0 / 100.0
    e_small = solve_two_body(U, 10.0, M=8).energy
    e_big = solve_two_body(U, 10.0, M=16).energy
    assert free < e_big <= e_small + 1e-12  # interaction raises the energy
    # basis growth can only lower the Galerkin minimum


def test_solution_density_trace():
    U = BoxPotential(1.0, 1.0)
    sol = solve_two_body(U, 8.0, M=12)
    x = np.linspace(0, 8.0, 4001)
    assert np.trapezoid(sol.density(x), x) == pytest.approx(2.0, abs=1e-6)


def test_solve_cache_keeps_tables_apart():
    # tables are cached by object; a freed table's id, which the allocator
    # soon hands to a new object, must not select the freed table's solve
    grid = np.linspace(0.0, 1.0, 101)
    U1 = TabulatedPotential(grid, np.ones_like(grid))
    e1 = solve_two_body(U1, 6.0, M=12, rtol=1e-4).energy
    freed = id(U1)
    del U1
    tables = [TabulatedPotential(grid, 5.0 * np.ones_like(grid))
              for _ in range(20)]
    U5 = next((U for U in tables if id(U) == freed), tables[0])
    e5 = solve_two_body(U5, 6.0, M=12, rtol=1e-4).energy
    assert e1 == pytest.approx(1.43119, abs=1e-5)
    assert e5 == pytest.approx(1.57685, abs=1e-5)


def test_solve_cache_keys_normalized_values():
    # gamma_via_fit spells out M and rtol and passes numpy ells: the same
    # solve as the defaulted call on an equal potential
    _solve.cache_clear()
    first = solve_two_body(BoxPotential(1.0, 1.0), 6.0)
    again = solve_two_body(BoxPotential(1.0, 1.0), 6, M=24, rtol=1e-6)
    assert again is first
    info = _solve.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_one_body_rdm_properties():
    U = BoxPotential(1.0, 1.0)
    sol = solve_two_body(U, 8.0, M=12)
    G = sol.one_body_rdm()
    w = np.linalg.eigvalsh(G)
    assert np.trace(G) == pytest.approx(2.0, abs=1e-10)
    assert w.min() > -1e-12 and w.max() <= 1.0 + 1e-12


def test_energy_expansion_leading_term():
    U = BoxPotential(1.0, 1.0)
    for ell in (40.0, 80.0):
        E = solve_two_body(U, ell, M=24).energy
        assert abs(E * ell ** 2 - 5 * np.pi ** 2) / (5 * np.pi ** 2) < 0.05


def test_gamma_routes_agree_box():
    U = BoxPotential(1.0, 1.0)
    gk = gamma_via_K(U)
    gf = gamma_via_fit(U, [20.0, 40.0, 80.0])
    assert abs(gf - gk) / gk < 0.05


def test_gamma_kernel_frozen_value():
    # independently cross-checked by (a) the analytic diagonalization of the
    # kernel on a unit box (eigenvalues 2/((k+1/2) pi)^2 against the profile
    # expansion), and (b) a finite-difference eigensolve of the two-body
    # problem restricted to the antisymmetric triangle with Richardson
    # extrapolation; both give 13.71 for the unit box
    assert gamma_via_K(BoxPotential(1.0, 1.0)) == pytest.approx(13.7131, abs=2e-3)


def test_gamma_small_coupling_limit():
    # gamma(alpha U)/alpha -> (5 pi^2 / 2) * int u^2 U du as alpha -> 0;
    # for the unit box the integral is 2/3
    alpha = 1e-3
    U = BoxPotential(alpha, 1.0)
    lim = 2.5 * np.pi ** 2 * (2.0 / 3.0)
    assert gamma_via_K(U) / alpha == pytest.approx(lim, rel=1e-3)


def _free_pair_interaction(U, edges, ell, n=64):
    """ell^3 <phi_(1,2), U(ell (x - y)) phi_(1,2)> on the unit square.

    Plain Gauss-Legendre in u = ell (x - y) (panels at `edges`) and in y
    over the strip where both x and y lie in [0, 1]; dx dy = du dy / ell.
    """
    t, w = np.polynomial.legendre.leggauss(n)
    edges = np.asarray(edges, dtype=np.float64)
    a, b = edges[:-1, None], edges[1:, None]
    u = (0.5 * (b - a) * t + 0.5 * (a + b)).ravel()
    wu = (0.5 * (b - a) * w).ravel()
    lo = np.maximum(0.0, -u / ell)[:, None]
    hi = np.minimum(1.0, 1.0 - u / ell)[:, None]
    y = lo + 0.5 * (hi - lo) * (t + 1.0)
    x = y + u[:, None] / ell
    phi = np.sqrt(2.0) * (np.sin(np.pi * x) * np.sin(2 * np.pi * y)
                          - np.sin(2 * np.pi * x) * np.sin(np.pi * y))
    inner = np.sum(0.5 * (hi - lo) * w * phi ** 2, axis=1)
    return ell ** 2 * float(np.sum(wu * U(u) * inner))


@pytest.mark.parametrize("family, m2, edges", [
    (BoxPotential, 2.0 / 3.0, [-1.0, 0.0, 1.0]),
    (ExponentialPotential, 4.0, np.linspace(-40.0, 40.0, 17)),
])
def test_gamma_small_coupling_first_order_oracle(family, m2, edges):
    # first-order perturbation on the free pair ground state: with
    # W = s1 s2' - s2 s1' = -4 pi sin^3(pi x) on [0, 1], the expectation
    # ell^3 <U(ell (x - y))> tends to (1/2) int W^2 * int u^2 U
    # = (5 pi^2 / 2) * m2, with m2 = int u^2 U (2/3 unit box, 4 unit exp)
    first_order = _free_pair_interaction(family(1.0, 1.0), edges, 5000.0)
    assert first_order == pytest.approx(2.5 * np.pi ** 2 * m2, rel=1e-5)
    alpha = 1e-3
    slope = gamma_via_K(family(alpha, 1.0)) / alpha
    assert slope == pytest.approx(first_order, rel=1e-3)


def test_astar_xstar_gamma_star():
    A, x = astar_xstar(8 * np.pi ** 2, 1.0)
    assert A == pytest.approx(1.0)
    assert x == pytest.approx(1.0 - np.exp(-1.0))
    assert gamma_star(8 * np.pi ** 2, 1.0) == pytest.approx(1.0 - np.exp(-1.0))
    assert gamma_star(0.0, 1.0) == 0.0


def test_exponential_family_sanity():
    U = ExponentialPotential(1.0, 1.0)
    gk = gamma_via_K(U)
    assert gk > 0
    sol = solve_two_body(U, 20.0, M=20)
    assert sol.energy > np.pi ** 2 * 5.0 / 400.0
