import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pieces_lab.manybody import solve_block
from pieces_lab.potential import BoxPotential
from pieces_lab.rdm import (DensityMatrix, antisymmetrized_product,
                            coefficient_distance_bound,
                            factorized_rdm, pair_index, rdm1, rdm2,
                            trace_norm_distance)
from pieces_lab.twobody import TwoBodySolution, band_pair_list, solve_two_body

U = BoxPotential(1.0, 1.0)


# ---------------------------------------------------------------------------
# reference implementations: RDMs by dict buckets of determinants, and the
# antisymmetrized product and factorization written as per-entry loops


def _remove(det, orbs):
    rest = list(det)
    sign = 1
    for o in orbs:
        sign *= (-1) ** rest.index(o)
        rest.remove(o)
    return tuple(rest), sign


def _det_amplitudes(state):
    """(sorted mode list, {sorted determinant: coeff}) of a state."""
    if hasattr(state, "basis"):  # CIState
        modes = sorted(state.basis.orbitals)
        amps = {}
        for det, c in zip(state.basis.determinants, state.coeffs):
            if c != 0.0:
                sdet = tuple(sorted(det))
                amps[sdet] = amps.get(sdet, 0.0) + float(c)
        return modes, amps
    modes = [(0, k) for k in range(1, state.M + 1)]  # TwoBodySolution
    amps = {((0, i), (0, j)): float(c)
            for (i, j), c in zip(state.pairs, state.coeffs) if c != 0.0}
    return modes, amps


def _bucket_rdm(state, order):
    """Order-1 or order-2 RDM: determinants bucketed by their
    (n - order)-subsets, each bucket adding its outer product."""
    modes, amps = _det_amplitudes(state)
    labels = modes if order == 1 else pair_index(modes)
    idx = {m: i for i, m in enumerate(labels)}
    gamma = np.zeros((len(labels), len(labels)))
    buckets = {}
    for det, c in amps.items():
        for rm in itertools.combinations(det, order):
            rest, sign = _remove(det, rm)
            buckets.setdefault(rest, []).append((rm if order == 2 else rm[0], sign * c))
    for entries in buckets.values():
        for (a, ca), (b, cb) in itertools.product(entries, entries):
            gamma[idx[a], idx[b]] += ca * cb
    return DensityMatrix(labels, gamma)


def _loop_antisymmetrized_product(gamma, modes):
    pairs = pair_index(modes)
    midx = {m: i for i, m in enumerate(modes)}
    G = np.asarray(gamma, dtype=float)
    out = np.zeros((len(pairs), len(pairs)))
    for a, (p, q) in enumerate(pairs):
        for b, (r, s) in enumerate(pairs):
            out[a, b] = (G[midx[p], midx[r]] * G[midx[q], midx[s]]
                         - G[midx[p], midx[s]] * G[midx[q], midx[r]])
    return DensityMatrix(pairs, out)


def _loop_factorized_rdm(substates):
    parts = [(rdm1(s), rdm2(s)) for s in substates]
    modes = [m for g1, _ in parts for m in g1.modes]
    midx = {m: i for i, m in enumerate(modes)}
    G = np.zeros((len(modes), len(modes)))
    for g1, _ in parts:
        for a, ma in enumerate(g1.modes):
            for b, mb in enumerate(g1.modes):
                G[midx[ma], midx[mb]] += g1.matrix[a, b]
    total = _loop_antisymmetrized_product(G, modes)
    pairs = total.modes
    pidx = {pq: i for i, pq in enumerate(pairs)}
    M2 = total.matrix.copy()
    for g1, g2 in parts:
        local = _loop_antisymmetrized_product(g1.matrix, g1.modes)
        for a, pa in enumerate(local.modes):
            for b, pb in enumerate(local.modes):
                M2[pidx[pa], pidx[pb]] -= local.matrix[a, b]
        for a, pa in enumerate(g2.modes):
            for b, pb in enumerate(g2.modes):
                M2[pidx[pa], pidx[pb]] += g2.matrix[a, b]
    return DensityMatrix(modes, G), DensityMatrix(pairs, M2)


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


def _random_two_body(seed):
    """A TwoBodySolution with random normalized coefficients on a random
    band basis, some of them exactly zero as outside a converged sub-basis."""
    rng = np.random.default_rng(seed)
    M = int(rng.integers(3, 9))
    pairs = band_pair_list(M, int(rng.integers(2, 7)), M + int(rng.integers(0, 12)))
    c = rng.normal(size=len(pairs)) * (rng.uniform(size=len(pairs)) < 0.8)
    c[0] = 1.0
    return TwoBodySolution(float(rng.uniform(3.0, 10.0)), pairs, 0.0,
                           c / np.linalg.norm(c), 0.0)


@pytest.mark.parametrize("seed", range(8))
def test_two_body_rdm_matches_buckets(seed):
    sol = _pair(8.0) if seed == 0 else _random_two_body(seed)
    for order, fn in ((1, rdm1), (2, rdm2)):
        got, ref = fn(sol), _bucket_rdm(sol, order)
        assert got.modes == ref.modes
        assert np.abs(got.matrix - ref.matrix).max() <= 1e-14


def _substates(case):
    far = [(0.0, 7.0), (58.0, 6.0)]
    if case == "pair+single":  # criterion 9's sub-states
        return [solve_block(far, Q, U, M=8, n_states=1)[1][0]
                for Q in ((2, 0), (0, 1))]
    if case == "two-body+ci":
        return [_random_two_body(3), solve_block(far, (0, 2), U, M=6, n_states=1)[1][0]]
    three = [(0.0, 7.0), (7.5, 6.0), (14.0, 5.0)]
    return [solve_block(three, Q, U, M=5, n_states=1)[1][0]
            for Q in ((1, 0, 0), (0, 2, 0), (0, 0, 1))]


@pytest.mark.parametrize("case", ["pair+single", "two-body+ci", "three"])
def test_factorized_rdm_matches_loops(case):
    subs = _substates(case)
    for got, ref in zip(factorized_rdm(subs), _loop_factorized_rdm(subs)):
        assert got.modes == ref.modes
        assert np.array_equal(got.matrix, ref.matrix)


def test_antisymmetrized_product_matches_loop():
    G = np.random.default_rng(1).normal(size=(7, 7))
    modes = [(0, k) for k in range(1, 8)]
    got = antisymmetrized_product(G + G.T, modes)
    ref = _loop_antisymmetrized_product(G + G.T, modes)
    assert got.modes == ref.modes and np.array_equal(got.matrix, ref.matrix)


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
