import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pieces_lab.manybody import solve_block
from pieces_lab.potential import BoxPotential
from pieces_lab.rdm import (_bucket_rdm, antisymmetrized_product,
                            coefficient_distance_bound,
                            factorized_rdm, pair_index, rdm1, rdm2,
                            trace_norm_distance)
from pieces_lab.twobody import solve_two_body

U = BoxPotential(1.0, 1.0)


def _pair(ell, M=10):
    return solve_two_body(U, ell, M=M)


def test_rdm1_trace_and_positivity():
    sol = _pair(8.0)
    g1 = rdm1(sol)
    assert g1.trace == pytest.approx(2.0, abs=1e-10)
    w = g1.eigenvalues()
    assert w.min() > -1e-12 and w.max() <= 1.0 + 1e-12


def test_rdm2_trace():
    sol = _pair(8.0)
    g2 = rdm2(sol)
    assert g2.trace == pytest.approx(1.0, abs=1e-10)  # n(n-1)/2 = 1


def test_rdm_traces_ci_state():
    intervals = [(0.0, 7.0), (8.5, 6.0)]
    _, states = solve_block(intervals, (2, 1), U, M=6, n_states=1)
    g1, g2 = rdm1(states[0]), rdm2(states[0])
    assert g1.trace == pytest.approx(3.0, abs=1e-10)
    assert g2.trace == pytest.approx(3.0, abs=1e-10)  # 3 * 2 / 2


@pytest.mark.parametrize("intervals,Q", [
    ([(0.0, 7.0)], (1,)), ([(0.0, 7.0)], (3,)),
    ([(0.0, 7.0), (7.5, 6.0)], (1, 1)), ([(0.0, 7.0), (8.5, 6.0)], (2, 1)),
    ([(0.0, 7.0), (7.0, 6.0), (13.5, 5.0)], (1, 1, 1)),
    ([(0.0, 7.0), (7.0, 6.0), (13.5, 5.0)], (1, 0, 2)),
])
def test_grouped_rdm_matches_buckets(intervals, Q):
    _, states = solve_block(intervals, Q, U, M=6, n_states=1)
    for order, fn in ((1, rdm1), (2, rdm2)):
        got, ref = fn(states[0]), _bucket_rdm(states[0], order)
        assert got.modes == ref.modes
        assert np.abs(got.matrix - ref.matrix).max() <= 1e-14


def test_slater_two_rdm_identity():
    # for a single Slater determinant, gamma2 = A(gamma1) exactly
    z = BoxPotential(0.0, 1.0)
    sol = solve_two_body(z, 6.0, M=8)
    g1, g2 = rdm1(sol), rdm2(sol)
    A = antisymmetrized_product(g1.matrix, g1.modes)
    # align pair bases
    idx = {pq: i for i, pq in enumerate(A.modes)}
    P = np.array([[idx[pq] == j for j in range(len(A.modes))]
                  for pq in g2.modes], dtype=float)
    assert np.allclose(g2.matrix, P @ A.matrix @ P.T, atol=1e-12)


def test_factorization_disjoint_pieces():
    s1 = _pair(7.0)
    intervals = [(0.0, 9.0)]
    _, states = solve_block(intervals, (1,), U, M=6, n_states=1)
    # tag collision: both live on piece 0 -> error
    with pytest.raises(ValueError):
        factorized_rdm([s1, s1])


def test_factorization_matches_direct():
    intervals = [(0.0, 7.0), (58.0, 6.0)]  # far apart: product state exact
    _, sa = solve_block(intervals, (2, 0), U, M=8, n_states=1)
    _, sab = solve_block(intervals, (2, 1), U, M=8, n_states=1)
    ga1, ga2 = rdm1(sab[0]), rdm2(sab[0])
    # sub-states: the pair in piece 0 and the single in piece 1
    _, sb = solve_block(intervals, (0, 1), U, M=8, n_states=1)
    f1, f2 = factorized_rdm([sa[0], sb[0]])
    # align and compare
    d1 = trace_norm_distance(ga1.matrix, _aligned(f1, ga1))
    d2 = trace_norm_distance(ga2.matrix, _aligned(f2, ga2))
    assert d1 < 1e-9 and d2 < 1e-9


def _aligned(dm, ref):
    idx = {m: i for i, m in enumerate(dm.modes)}
    P = np.zeros((len(ref.modes), len(dm.modes)))
    for i, m in enumerate(ref.modes):
        P[i, idx[m]] = 1.0
    return P @ dm.matrix @ P.T


def test_pair_index_order():
    modes = [(0, 1), (0, 2), (1, 1)]
    pairs = pair_index(modes)
    assert pairs == [((0, 1), (0, 2)), ((0, 1), (1, 1)), ((0, 2), (1, 1))]


def test_trace_norm_triangle_and_symmetry():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(6, 6)); A = A + A.T
    B = rng.normal(size=(6, 6)); B = B + B.T
    C = rng.normal(size=(6, 6)); C = C + C.T
    assert trace_norm_distance(A, B) == pytest.approx(trace_norm_distance(B, A))
    assert trace_norm_distance(A, C) <= (trace_norm_distance(A, B)
                                         + trace_norm_distance(B, C) + 1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_rdm_distance_coefficient_bound(seed):
    rng = np.random.default_rng(seed)
    ell = float(rng.uniform(5.0, 10.0))
    sol = solve_two_body(U, ell, M=8)
    # perturb the coefficient vector and renormalize
    eps = rng.normal(size=sol.coeffs.shape) * 10.0 ** rng.uniform(-6, -1)
    other = type(sol)(sol.ell, sol.pairs,
                      sol.energy, sol.coeffs + eps, sol.residual)
    other.coeffs /= np.linalg.norm(other.coeffs)
    dist = np.linalg.norm(sol.coeffs - other.coeffs)
    g_a, g_b = rdm1(sol), rdm1(other)
    d = trace_norm_distance(g_a.matrix, _aligned(g_b, g_a))
    assert d <= coefficient_distance_bound(sol.coeffs, other.coeffs) + 1e-12
    assert coefficient_distance_bound(sol.coeffs, other.coeffs) == \
        pytest.approx(4.0 * dist)
