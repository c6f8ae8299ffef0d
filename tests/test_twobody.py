import numpy as np
import pytest
from scipy.linalg import eigh

from pieces_lab import twobody
from pieces_lab.potential import (BoxPotential, ExponentialPotential,
                                  PolynomialPotential, TabulatedPotential)
from pieces_lab.quadrature import pair_reduced_matrix
from pieces_lab.twobody import (TwoBodySolution, _solve, astar_xstar,
                                gamma_star, gamma_via_K, gamma_via_fit,
                                solve_two_body)
from position_space import density, pair_amplitude

_GRID = np.linspace(0.0, 1.5, 151)
FAMILIES = {"box": BoxPotential(1.0, 1.0),
            "exp": ExponentialPotential(1.0, 1.0),
            "poly": PolynomialPotential(1.0, 5.0, 1.0),
            "table": TabulatedPotential(_GRID, np.exp(-2.0 * _GRID ** 2))}


def _two_parity_pairs(M, D, K):
    """The band basis with both reflection sectors: all (i, j), i < j, with
    j <= M or j - i <= D, j <= K."""
    return [(i, j) for i in range(1, K)
            for j in range(i + 1, min(K, max(i + D, M)) + 1)]


def _hamiltonian(U, ell, pairs):
    i, j = np.array(pairs).T
    free = np.pi ** 2 * (i * i + j * j) / ell ** 2
    return pair_reduced_matrix(U, ell, pairs) + np.diag(free), i, j, free


def _reference_solve(U, ell, M=24, rtol=1e-6):
    """The (D, K) refinement loop of the solver on the two-parity basis:
    converged (D, K), energy, and the 1-RDM over the sine modes."""
    D = 8
    K = int(max(M + 8, 40, 3.0 * ell))
    while True:
        K_big = int(np.ceil(1.4 * K))
        pairs = _two_parity_pairs(M, D + 4, K_big)
        H, i, j, free = _hamiltonian(U, ell, pairs)
        sub = (j <= M) | ((j - i <= D) & (j <= K))
        w, v = eigh(H[np.ix_(sub, sub)], subset_by_index=[0, 0])
        e0, c0 = w[0], v[:, 0]
        r = H[np.ix_(~sub, sub)] @ c0
        de = float(np.sum(r * r / (free[~sub] - e0)))
        if de <= rtol * abs(e0):
            A = np.zeros((K_big, K_big))
            A[i[sub] - 1, j[sub] - 1] = c0 / np.sqrt(2.0)
            A[j[sub] - 1, i[sub] - 1] = -c0 / np.sqrt(2.0)
            return (D, K), e0 - de, 2.0 * A @ A.T
        D, K = D + 4, K_big


def test_free_pair_state():
    # the one-pair solution is the free state phi_(1,2)
    ell = 4.0
    pair = TwoBodySolution(ell, [(1, 2)], np.pi ** 2 * 5.0 / ell ** 2,
                           np.ones(1), 0.0)
    # antisymmetry and normalization on a grid
    x = np.linspace(0, ell, 201)
    X, Y = np.meshgrid(x, x)
    vals = pair_amplitude(pair, X.ravel(), Y.ravel()).reshape(X.shape)
    swapped = pair_amplitude(pair, Y.ravel(), X.ravel()).reshape(X.shape)
    assert np.allclose(vals, -swapped, atol=1e-12)
    norm = np.trapezoid(np.trapezoid(vals ** 2, x, axis=1), x)
    assert norm == pytest.approx(1.0, abs=1e-3)


def test_pair_matrix_element_symmetric():
    U = BoxPotential(1.0, 1.0)
    a = pair_reduced_matrix(U, 5.0, [(1, 2), (1, 3)])[0, 1]
    b = pair_reduced_matrix(U, 5.0, [(1, 3), (1, 2)])[0, 1]
    assert a == pytest.approx(b, rel=1e-12)


def test_pair_matrix_element_is_pair_matrix_entry():
    # the larger matrix has the same top mode (6), hence the same table
    U = ExponentialPotential(1.0, 1.0)
    pairs = _two_parity_pairs(6, 6, 6)
    V = pair_reduced_matrix(U, 5.0, pairs)
    for ij, kl in (((2, 6), (1, 4)), ((1, 2), (3, 6)), ((4, 6), (4, 6))):
        entry = V[pairs.index(ij), pairs.index(kl)]
        assert pair_reduced_matrix(U, 5.0, [ij, kl])[0, 1] == pytest.approx(
            entry, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_reflection_sectors_decouple(name):
    # U even: <U phi_ij, phi_kl> = 0 unless i + j and k + l share parity
    pairs = _two_parity_pairs(12, 12, 40)
    V = pair_reduced_matrix(FAMILIES[name], 7.3, pairs)
    odd = np.array([(j - i) % 2 == 1 for i, j in pairs])
    assert odd.sum() == len(twobody.band_pair_list(12, 12, 40))
    assert np.abs(V[np.ix_(odd, ~odd)]).max() <= 1e-12 * np.abs(V).max()


@pytest.mark.parametrize("name", ["box", "exp", "poly"])
def test_even_sector_lies_above_ground_state(name):
    for ell in (3.3, 12.0, 30.0):
        pairs = _two_parity_pairs(24, 12, int(max(40, 3.0 * ell)))
        H, i, j, _ = _hamiltonian(FAMILIES[name], ell, pairs)
        odd = (j - i) % 2 == 1
        e_odd = eigh(H[np.ix_(odd, odd)], eigvals_only=True,
                     subset_by_index=[0, 0])[0]
        e_even = eigh(H[np.ix_(~odd, ~odd)], eigvals_only=True,
                      subset_by_index=[0, 0])[0]
        assert e_even > e_odd


@pytest.mark.parametrize("name", ["box", "exp", "poly"])
def test_odd_sector_solve_matches_two_parity_solve(name):
    U = FAMILIES[name]
    for ell in (3.3, 12.0, 40.7):
        DK, energy, G = _reference_solve(U, ell)
        sol = solve_two_body(U, ell)
        assert (sol.trace[-1].D, sol.trace[-1].K) == DK
        assert sol.energy == pytest.approx(energy, rel=1e-10)
        assert np.abs(sol.one_body_rdm() - G[:sol.M, :sol.M]).max() <= 1e-12
        assert all((j - i) % 2 == 1 for i, j in sol.pairs)


@pytest.mark.parametrize("name", ["box", "exp", "poly"])
def test_stage_eigenproblem_is_sub_block_of_full_matrix(name, monkeypatch):
    # each stage builds only the sub-basis columns of V; its eigenproblem
    # is bit for bit the sub-block of the full lexicographic H
    U = FAMILIES[name]
    seen = []
    ground_state = twobody._ground_state
    monkeypatch.setattr(twobody, "_ground_state",
                        lambda H: (seen.append(H.copy()), ground_state(H))[1])
    for ell in (3.3, 12.0, 40.7):
        seen.clear()
        sol = _solve.__wrapped__(U, ell, 24, 1e-6)
        assert len(seen) == len(sol.trace)
        for H_sub, stage in zip(seen, sol.trace):
            pairs = twobody.band_pair_list(24, stage.D + 4, int(np.ceil(1.4 * stage.K)))
            H, i, j, _ = _hamiltonian(U, ell, pairs)
            sub = (j <= 24) | ((j - i <= stage.D) & (j <= stage.K))
            assert np.array_equal(H_sub, H[np.ix_(sub, sub)])


def test_solve_trace_records_stages():
    sol = solve_two_body(BoxPotential(1.0, 1.0), 12.0)
    assert sol.trace and sol.residual == sol.trace[-1].de
    assert sol.trace[-1].dim == len(sol.pairs)
    assert all(s.seconds >= 0.0 for s in sol.trace)
    assert [s.D for s in sol.trace] == [8 + 4 * k for k in range(len(sol.trace))]
    hand_built = type(sol)(sol.ell, sol.pairs, sol.energy, sol.coeffs,
                           sol.residual)
    assert hand_built.trace == ()


def test_dimension_cap_checked_before_first_stage(monkeypatch):
    # at ell = 2000 the first enlarged basis has about 50k odd-sector pairs
    def assemble(*args):
        raise AssertionError("assembled a matrix over the cap")

    monkeypatch.setattr(twobody, "pair_reduced_matrix", assemble)
    with pytest.raises(ArithmeticError, match="dimension cap"):
        solve_two_body(BoxPotential(1.0, 1.0), 2000.0)


def test_dimension_cap_counts_dense_bytes(monkeypatch):
    # at ell = 700 the first enlarged basis has 17640 odd-sector pairs, a
    # 2.3 GiB dense V: over the 2 GiB cap, though under 30000 pairs
    def assemble(*args):
        raise AssertionError("assembled a matrix over the cap")

    assert len(twobody.band_pair_list(24, 12, 2940)) == 17640
    monkeypatch.setattr(twobody, "pair_reduced_matrix", assemble)
    with pytest.raises(ArithmeticError, match="dimension cap"):
        solve_two_body(BoxPotential(1.0, 1.0), 700.0)


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
    rho = density(sol.one_body_rdm(), sol.ell, x)
    assert np.trapezoid(rho, x) == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("ell", [-5.0, 0.0, float("nan"), float("inf")])
def test_solve_rejects_length_not_positive_finite(ell):
    # -5 would otherwise solve the free problem at ell = 5, 0 and nan fail
    # inside the eigensolver, and inf overflows
    with pytest.raises(ValueError, match="positive and finite"):
        solve_two_body(BoxPotential(1.0, 1.0), ell, M=8)


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
    # a call that spells out M and rtol and passes an int ell: the same
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


def test_gamma_fit_solves_only_the_top_three_lengths(monkeypatch):
    U = BoxPotential(1.0, 1.0)
    solved = []
    solve = twobody.solve_two_body
    monkeypatch.setattr(twobody, "solve_two_body",
                        lambda U, ell: (solved.append(ell), solve(U, ell))[1])
    gamma = gamma_via_fit(U, [40.0, 5.0, 20.0, 10.0])
    assert sorted(solved) == [10.0, 20.0, 40.0]
    assert gamma == gamma_via_fit(U, [10.0, 20.0, 40.0])
    # repeats are fitted once: the top three distinct lengths
    solved.clear()
    assert gamma_via_fit(U, [40.0, 20.0, 40.0, 10.0, 10.0]) == gamma
    assert solved == [10.0, 20.0, 40.0]


@pytest.mark.parametrize("ells", [[20.0, 20.0, 20.0], [10.0, 20.0, 20.0]])
def test_gamma_fit_needs_three_distinct_lengths(ells):
    # repeated lengths leave the two-parameter fit underdetermined
    with pytest.raises(ValueError, match="3 distinct"):
        gamma_via_fit(BoxPotential(1.0, 1.0), ells)


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
