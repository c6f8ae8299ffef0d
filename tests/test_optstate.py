import heapq

import numpy as np
import pytest
from scipy import integrate

from pieces_lab import optstate, twobody
from pieces_lab.disorder import from_lengths, sample_pieces
from pieces_lab.manybody import free_occupation_energy
from pieces_lab.optstate import (StatePlan, banded_fraction_prediction,
                                 banded_particle_count, build_psi_opt,
                                 cross_piece_bound_check, energy_of_plan,
                                 fill_free_ground_state,
                                 neighbor_energy_ladder,
                                 second_order_prediction, subadditivity_check)
from pieces_lab.potential import (BoxPotential, ExponentialPotential,
                                  PolynomialPotential)
from pieces_lab.quadrature import cosine_coefficients, cross_density_integral
from pieces_lab.spectrum import fermi_length, free_energy_per_particle_empirical
from pieces_lab.twobody import gamma_via_K, solve_two_body
from position_space import density

U = BoxPotential(1.0, 1.0)
GAMMA = gamma_via_K(U)
NAN, INF = float("nan"), float("inf")


def test_fill_free_ground_state_energy():
    cfg = sample_pieces(0, 2e4, 1.0)
    n = 500
    plan = fill_free_ground_state(cfg, n)
    assert plan.n == n and not plan.pair.any()
    occ = plan.occupied()
    e = free_occupation_energy(cfg.lengths[occ], plan.occupation[occ]) / n
    assert e == pytest.approx(free_energy_per_particle_empirical(cfg, n),
                              rel=1e-12)


def test_build_psi_opt_particle_total_and_bands():
    cfg = sample_pieces(1, 1e5, 1.0)
    rho = 0.05
    plan = build_psi_opt(cfg, rho, GAMMA)
    assert plan.n == round(rho * cfg.L)
    lo, mid, hi = (plan.thresholds[k] for k in ("lo", "mid", "hi"))
    ell, q = cfg.lengths, plan.occupation
    assert np.all((mid <= ell[plan.pair]) & (ell[plan.pair] < hi))
    assert np.all(q[plan.pair] == 2)
    assert np.all(q[(q > 0) & (lo <= ell) & (ell < mid)] == 1)


@pytest.mark.parametrize("lengths,occupation", [
    # both singles dropped, then the tied 8.0 pair at the lower index demoted
    ([8.0, 4.0, 8.0, 5.0, 9.0, 74.0], [1, 0, 2, 0, 2, 0]),
    # the shortest pair demoted
    ([8.5, 4.0, 8.0, 5.0, 9.0, 73.5], [2, 0, 1, 0, 2, 0]),
    # only the shorter single dropped
    ([4.5, 8.0, 4.0, 8.0, 75.5], [1, 2, 0, 2, 0]),
])
def test_build_psi_opt_overshoot_trim(lengths, occupation):
    cfg = from_lengths(lengths)
    plan = build_psi_opt(cfg, 0.05, GAMMA)
    assert plan.n == round(0.05 * cfg.L) == 5
    assert plan.occupation.tolist() == occupation
    assert np.array_equal(plan.pair, plan.occupation == 2)


def test_build_psi_opt_overshoot_beyond_bands():
    with pytest.raises(ValueError, match="band assignment exceeds n"):
        build_psi_opt(from_lengths([8.0, 8.5, 9.0, 8.2, 8.3, 8.0]), 0.05, GAMMA)


def test_psi_opt_bands_at_configuration_mu():
    cfg = sample_pieces(0, 2e4, 2.0)
    plan = build_psi_opt(cfg, 0.05, GAMMA)
    assert plan.thresholds["ell_rho"] == fermi_length(0.05, 2.0)
    lo, mid, hi = (plan.thresholds[k] for k in ("lo", "mid", "hi"))
    ell = cfg.lengths
    assert banded_particle_count(cfg, 0.05, GAMMA) == (
        np.sum((ell >= lo) & (ell < mid)) + 2 * np.sum((ell >= mid) & (ell < hi)))


def test_psi_opt_deterministic():
    cfg = sample_pieces(2, 5e4, 1.0)
    a = build_psi_opt(cfg, 0.05, GAMMA)
    b = build_psi_opt(cfg, 0.05, GAMMA)
    assert np.array_equal(a.occupation, b.occupation)


def test_banded_prediction_matches_count():
    rho = 0.05
    n = round(rho * 1e5)
    fr = [banded_particle_count(sample_pieces(s, 1e5, 1.0), rho, GAMMA) / n
          for s in range(300)]
    pred = banded_fraction_prediction(rho, GAMMA)
    assert abs(np.mean(fr) - pred) < 3 * np.std(fr) / np.sqrt(len(fr)) + 5 * rho ** 3


@pytest.mark.parametrize("rho,mu", [(NAN, 1.0), (INF, 1.0), (0.0, 1.0),
                                    (-0.1, 1.0), (0.1, NAN), (0.1, INF),
                                    (0.1, 0.0)])
def test_banded_fraction_prediction_refuses_bad_rho_and_mu(rho, mu):
    # a NaN rho gave a NaN fraction, as second_order_prediction refuses
    with pytest.raises(ValueError, match="rho and mu"):
        banded_fraction_prediction(rho, GAMMA, mu)


def test_second_order_prediction_value():
    # frozen closed-form spot value at mu=1, rho=0.1, gamma=8 pi^2
    assert second_order_prediction(0.1, 1.0, 8 * np.pi ** 2) == \
        pytest.approx(0.04525, abs=5e-5)
    assert second_order_prediction(0.1, 1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        second_order_prediction(-0.1, 1.0, 1.0)


@pytest.mark.parametrize("args", [(NAN, 1.0, 1.0), (0.1, NAN, 1.0),
                                  (0.1, 1.0, NAN), (0.1, 1.0, INF)])
def test_second_order_prediction_refuses_nan_and_inf(args):
    # a NaN passed the checks written as x <= 0 or x < 0 and the
    # prediction came out NaN; an infinite gamma gave inf
    with pytest.raises(ValueError):
        second_order_prediction(*args)


def test_plan_energy_above_free():
    cfg = sample_pieces(3, 5e4, 1.0)
    rho = 0.05
    n = round(rho * cfg.L)
    plan = build_psi_opt(cfg, rho, GAMMA)
    e_plan = energy_of_plan(cfg, plan, U) / n
    e_free = free_energy_per_particle_empirical(cfg, n)
    excess = e_plan - e_free
    assert 0.0 < excess < 50 * second_order_prediction(rho, 1.0, GAMMA)


def test_subadditivity_far_apart_equality():
    # one particle per region: the union optimum keeps the split, and beyond
    # the interaction range the slack vanishes, so the bound is an equality
    i1 = [(0.0, 6.0), (8.0, 5.0)]
    i2 = [(200.0, 7.0), (209.0, 4.0)]
    rep = subadditivity_check(i1, 1, i2, 1, U, M=6)
    assert rep["upper_ok"]
    assert rep["E_union"] == pytest.approx(rep["E_1"] + rep["E_2"], abs=1e-9)
    assert abs(rep["slack"]) < 1e-9


def test_subadditivity_close_slack_is_cross_integral():
    i1 = [(0.0, 6.0)]
    i2 = [(6.3, 6.0)]
    rep = subadditivity_check(i1, 1, i2, 1, U, M=8)
    assert rep["upper_ok"]
    assert rep["slack"] > 0.0  # overlapping range: strictly positive slack
    assert rep["E_union"] <= rep["E_1"] + rep["E_2"] + rep["slack"] + 1e-8


def test_cross_piece_bounds_explicit():
    V = ExponentialPotential(1.0, 1.0)
    for which in ("11far", "12"):
        rep = cross_piece_bound_check(V, 10.0, 12.0, 2.0, which)
        assert rep["lhs"] <= rep["rhs_shape"]


@pytest.mark.parametrize("which", ["12", "22"])
def test_cross_piece_bound_lhs_matches_dblquad(which):
    # the two-body densities integrate to 2, the particle count of a pair
    V = ExponentialPotential(1.0, 1.0)
    l1, l2, a = 8.0, 12.0, 1.5

    def rho(ell):
        G = solve_two_body(V, ell, M=12, rtol=1e-4).one_body_rdm()
        return lambda x: density(G, ell, x)

    rho_b = rho(l2)
    if which == "12":
        rho_a = lambda x: 2.0 / l1 * np.sin(np.pi * np.atleast_1d(x) / l1) ** 2
    else:
        rho_a = rho(l1)
    ref, _ = integrate.dblquad(
        lambda y, x: V(x - (l1 + a + y)) * rho_a(x)[0] * rho_b(y)[0],
        0, l1, 0, l2, epsabs=1e-13)
    rep = cross_piece_bound_check(V, l1, l2, a, which)
    assert rep["lhs"] == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("which", ["11far", "11close", "12", "12close", "22"])
@pytest.mark.parametrize("a", [-1.0, float("nan"), 0.0])
def test_cross_piece_bound_distance_checked(which, a):
    # a < 0 (overlapping pieces) or nan is refused for every shape, and
    # a = 0 for the shapes with a^-3; the other shapes take Z(0).  Each
    # used to raise ZeroDivisionError or TypeError, or to return ('22',
    # a < 0)
    V = ExponentialPotential(1.0, 1.0)
    if a == 0 and which in ("11close", "12close", "22"):
        rep = cross_piece_bound_check(V, 8.0, 12.0, a, which)
        assert rep["lhs"] > 0 and 0 < rep["rhs_shape"] < np.inf
    else:
        with pytest.raises(ValueError, match="distance"):
            cross_piece_bound_check(V, 8.0, 12.0, a, which)


def test_cross_piece_bound_compact_trivial():
    rep = cross_piece_bound_check(U, 10.0, 12.0, 2.0, "11far")
    assert rep["lhs"] == 0.0 and rep["ok"]


def test_neighbor_ladder_decay():
    out = neighbor_energy_ladder(U, ells=(5.0, 10.0, 20.0), M=8)
    assert out["fitted_order"] <= -4.0


def _spill_over_per_piece(occ, lengths, hi, deficit):
    """Reference: the spill-over heap built piece by piece."""
    pool = ((occ > 0) & (lengths >= hi)) | (occ == 0)
    heap = [((np.pi * (occ[j] + 1) / lengths[j]) ** 2, int(j))
            for j in np.nonzero(pool)[0]]
    heapq.heapify(heap)
    while deficit > 0 and heap:
        _, j = heapq.heappop(heap)
        occ[j] += 1
        deficit -= 1
        heapq.heappush(heap, ((np.pi * (occ[j] + 1) / lengths[j]) ** 2, j))
    return deficit


def test_spill_over_matches_per_piece_heap(monkeypatch):
    seen = []
    fill = optstate._fill_lowest

    def record(occ, lengths, idx, deficit, cap=None):
        if cap is None:  # the uncapped spill-over call
            seen.append((occ.copy(), lengths, deficit))
        return fill(occ, lengths, idx, deficit, cap)

    monkeypatch.setattr(optstate, "_fill_lowest", record)
    for seed in (0, 4, 9):  # samples whose bands and long pieces fall short
        cfg = sample_pieces(seed, 1e5, 1.0)
        plan = build_psi_opt(cfg, 0.05, GAMMA)
        occ, lengths, deficit = seen.pop()
        assert deficit > 0
        hi = plan.thresholds["hi"]
        assert _spill_over_per_piece(occ, lengths, hi, deficit) == 0
        assert np.array_equal(plan.occupation, occ)


def test_spill_over_candidates_match_full_pool_heap():
    # random pools, deficits from 1 to beyond the pool, and exact ties in
    # the first marginal level at the deficit-th place
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(40):
        n = int(rng.integers(1, 60))
        lengths = rng.choice([2.0, 3.0, 4.0, 6.0, 8.0], n) * rng.choice([1.0, 1.5], n)
        occ = rng.integers(0, 4, n) * (rng.random(n) < 0.6)
        cases.append((occ, lengths, 5.0, int(rng.integers(1, 2 * n + 2))))
    # hand-built: six empty pieces of one length, the deficit cutting the tie
    lengths = np.array([4.0, 4.0, 9.0, 4.0, 4.0, 2.0, 4.0, 4.0, 12.0])
    occ = np.array([0, 0, 1, 0, 0, 0, 0, 0, 2])
    cases += [(occ, lengths, 8.0, d) for d in range(1, 12)]
    for occ, lengths, hi, deficit in cases:
        occ_ref, occ_new = occ.astype(np.int64), occ.astype(np.int64)
        left = _spill_over_per_piece(occ_ref, lengths, hi, deficit)
        pool = np.nonzero(((occ_new > 0) & (lengths >= hi)) | (occ_new == 0))[0]
        assert optstate._fill_lowest(occ_new, lengths, pool, deficit) == left
        assert np.array_equal(occ_new, occ_ref)


def _capped_fill_by_dict(occ, lengths, pool, deficit):
    """Reference: the completion of a pool of empty pieces by repeated min
    over a dict of per-piece fill counts, at most 3 to a piece."""
    fill = dict.fromkeys(pool.tolist(), 0)
    while deficit > 0 and fill:
        j = min(fill, key=lambda i: (np.pi * (fill[i] + 1) / lengths[i]) ** 2)
        fill[j] += 1
        occ[j] += 1
        deficit -= 1
        if fill[j] >= 3:
            del fill[j]
    return deficit


def test_capped_fill_matches_dict_loop():
    # random pools of empty pieces with tied lengths, deficits from 1 to
    # beyond the capped capacity
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        lengths = rng.choice([2.0, 3.0, 4.0, 6.0, 9.0], n) * rng.choice([1.0, 1.5], n)
        occ = rng.integers(1, 3, n) * (rng.random(n) < 0.4)
        pool = np.flatnonzero((occ == 0) & (rng.random(n) < 0.8))
        deficit = int(rng.integers(1, 3 * len(pool) + 3))
        occ_ref, occ_new = occ.astype(np.int64), occ.astype(np.int64)
        left = _capped_fill_by_dict(occ_ref, lengths, pool, deficit)
        assert optstate._fill_lowest(occ_new, lengths, pool, deficit, cap=3) == left
        assert np.array_equal(occ_new, occ_ref)


def test_capped_fill_in_build_matches_dict_loop(monkeypatch):
    fill = optstate._fill_lowest
    checked = []

    def check(occ, lengths, idx, deficit, cap=None):
        if cap is None or deficit <= 0:
            return fill(occ, lengths, idx, deficit, cap)
        assert np.all(occ[idx] == 0)
        occ_ref = occ.copy()
        left = _capped_fill_by_dict(occ_ref, lengths, idx, deficit)
        out = fill(occ, lengths, idx, deficit, cap)
        assert out == left
        assert np.array_equal(occ, occ_ref)
        checked.append(deficit)
        return out

    monkeypatch.setattr(optstate, "_fill_lowest", check)
    for seed in range(4):
        for rho in (0.05, 0.15):
            build_psi_opt(sample_pieces(seed, 2e4, 1.0), rho, GAMMA)
    assert len(checked) >= 8


# ---------------------------------------------------------------------------
# the plan energy against its per-pair loop


def _loop_energy_of_plan(cfg, plan, U):
    """Reference: kinetic and pair terms piece by piece, and one
    cross-density integral per occupied pair within range, walking the
    occupied pieces in order until the gap reaches the range."""
    lengths = cfg.lengths
    occ_idx = plan.occupied()
    total = 0.0
    pair_lengths = [lengths[j] for j in occ_idx if plan.pair[j]]
    interpolant = None
    if len(pair_lengths) > 3:
        interpolant, _ = optstate._pair_band(
            U, plan.thresholds["mid"], plan.thresholds["hi"])
    for j in occ_idx:
        q, l = plan.occupation[j], lengths[j]
        if plan.pair[j]:
            total += (float(interpolant(l)) if interpolant is not None
                      else solve_two_body(U, l, M=16).energy)
        else:
            total += free_occupation_energy([l], [q])
    rng = (U.support_radius if U.support_radius is not None
           else U.effective_radius(1e-10))
    lefts, rights = cfg.lefts, cfg.rights
    c = {}
    for a_pos, j in enumerate(occ_idx):
        for k in occ_idx[a_pos + 1:]:
            gap = lefts[k] - rights[j]
            if gap >= rng:
                break  # occupied pieces are ordered; gaps only grow
            for idx in (j, k):
                if idx in c:
                    continue
                if plan.pair[idx]:  # a direct solve at the piece's length
                    G = solve_two_body(U, lengths[idx], M=16).one_body_rdm()
                else:
                    G = np.eye(plan.occupation[idx])
                c[idx] = cosine_coefficients(G)
            total += cross_density_integral(U, c[j], lengths[j], c[k],
                                            lengths[k], gap)
    return total


def _few_pair_plan():
    """Dyadic lengths, so every edge is exact: two pairs, singles, fills,
    gaps of 0, 0.5 and exactly the unit box's range 1, and one piece
    within range of two later ones."""
    lengths = [7.0, 0.5, 3.0, 1.0, 8.0, 0.25, 0.25, 3.5, 0.125, 6.0, 4.0,
               1.0, 3.0]
    occ = [2, 0, 1, 0, 2, 0, 1, 3, 0, 1, 2, 0, 1]
    pair = np.isin(np.arange(len(occ)), [0, 4])
    return from_lengths(lengths), StatePlan(occ, pair, {})


@pytest.mark.parametrize("V", [U, ExponentialPotential(1.0, 1.0)],
                         ids=["box", "exp"])
@pytest.mark.parametrize("case", ["spline", "few-pairs"])
def test_energy_of_plan_matches_pair_loop(V, case):
    if case == "spline":  # more than three pairs: the band interpolant
        cfg = sample_pieces(6, 5e3, 1.0)
        plan = build_psi_opt(cfg, 0.05, GAMMA)
        assert plan.pair.sum() > 3
    else:
        cfg, plan = _few_pair_plan()
    if case == "few-pairs" and V is U:
        assert cfg.lefts[4] - cfg.rights[2] == 1.0 == V.support_radius
    ref = _loop_energy_of_plan(cfg, plan, V)
    assert energy_of_plan(cfg, plan, V) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("V", [U, ExponentialPotential(1.0, 1.0),
                               PolynomialPotential(1.0, 5.0, 1.0)],
                         ids=["box", "exp", "poly"])
def test_pair_energy_interpolant_on_band_grids(V):
    # the interpolant energy_of_plan builds on the pair band [mid, hi) at
    # the kernel gamma, against direct solves at both ends and inside
    rng = np.random.default_rng(23)
    gamma = gamma_via_K(V)
    for rho in (0.1, 0.05, 0.02):
        *_, mid, hi = optstate._bands(rho, gamma, 1.0)
        ls = np.concatenate([[mid, hi], rng.uniform(mid, hi, 10)])
        ref = [solve_two_body(V, l, M=16).energy for l in ls]
        got = optstate._pair_band(V, mid, hi)[0](ls)
        assert got == pytest.approx(ref, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("V,tol", [(U, 2e-6), (ExponentialPotential(1.0, 1.0), 1e-11),
                                   (PolynomialPotential(1.0, 5.0, 1.0), 1e-11)],
                         ids=["box", "exp", "poly"])
def test_pair_density_interpolant_on_band_grids(V, tol):
    # the density coefficients energy_of_plan interpolates on the pair band
    # [mid, hi) at the kernel gamma, against cosine_coefficients of direct
    # solves at both ends and inside; a coefficient zero at all 12 nodes
    # (padding, or a frequency the states do not hold) stays exactly zero
    rng = np.random.default_rng(29)
    gamma = gamma_via_K(V)
    widths = []
    for rho in (0.1, 0.05, 0.02):
        *_, mid, hi = optstate._bands(rho, gamma, 1.0)
        _, dens = optstate._pair_band(V, mid, hi)
        nodes = np.polynomial.polyutils.mapdomain(
            np.polynomial.chebyshev.chebpts1(12), [-1.0, 1.0], [mid, hi])
        at_nodes = [cosine_coefficients(solve_two_body(V, l, M=16).one_body_rdm())
                    for l in nodes]
        width = max(map(len, at_nodes))
        zero = np.all([np.pad(c, (0, width - len(c))) == 0.0 for c in at_nodes], axis=0)
        ls = np.concatenate([[mid, hi], rng.uniform(mid, hi, 5)])
        got = dens(ls)
        assert got.shape == (len(ls), width)
        assert np.all(got[:, zero] == 0.0)
        for l, row in zip(ls, got):
            ref = cosine_coefficients(solve_two_body(V, l, M=16).one_body_rdm())
            assert np.max(np.abs(row[:len(ref)] - ref)) <= tol
            assert np.max(np.abs(row[len(ref):]), initial=0.0) <= tol
        widths.append((width, min(map(len, at_nodes))))
    if V is U:  # the box band at rho 0.05 mixes node widths: it is padded
        assert widths[1] == (159, 113)


@pytest.mark.parametrize("scale,outside", [(1.01, True), (0.99, False)])
def test_energy_of_plan_refuses_a_pair_outside_its_band(scale, outside):
    # four pairs take the interpolant, which is not extrapolated: a pair
    # a little past hi raises
    *_, mid, hi = optstate._bands(0.05, GAMMA, 1.0)
    cfg = from_lengths([mid, 0.5 * (mid + hi), hi, scale * hi, 1.0])
    plan = StatePlan([2, 2, 2, 2, 0], [True] * 4 + [False],
                     {"mid": mid, "hi": hi})
    if outside:
        with pytest.raises(ValueError, match="pair band"):
            energy_of_plan(cfg, plan, U)
    else:
        assert energy_of_plan(cfg, plan, U) > 0.0


def test_pair_band_cost(monkeypatch):
    # two samples on one band: 12 interpolation solves in total, densities
    # included (each a miss of the two-body cache), the second sample a hit
    # of the band cache
    calls = []

    def counted(V, ell, M=24, rtol=1e-6):
        calls.append((V, float(ell), M, rtol))
        return solve_two_body(V, ell, M, rtol)

    monkeypatch.setattr(optstate, "solve_two_body", counted)
    for seed in (11, 12):
        assert optstate.asymptotics_check(sample_pieces(seed, 2e4, 1.0), 0.05,
                                          U, GAMMA)["n"] == 1000
    assert len(calls) == len(set(calls)) == 12
    assert all(c[2] == 16 for c in calls)
    assert twobody._solve.cache_info().misses == 12
    info = optstate._pair_band.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_neighbour_pairs_match_loop_break():
    # the searched neighbour set is the loop's, including a gap equal to
    # the range, which the loop's break excludes
    cfg, plan = _few_pair_plan()
    occ = plan.occupied()
    lefts, rights = cfg.lefts[occ], cfg.rights[occ]
    ref = []
    for a in range(len(occ)):
        for b in range(a + 1, len(occ)):
            if lefts[b] - rights[a] >= 1.0:
                break
            ref.append((a, b))
    a, b, gap = optstate._neighbour_pairs(lefts, rights, 1.0)
    assert list(zip(a.tolist(), b.tolist())) == ref
    assert (0, 1) in ref and (1, 2) not in ref and (6, 7) not in ref
    assert (2, 3) in ref and (2, 4) in ref
    assert np.array_equal(gap, lefts[b] - rights[a])
