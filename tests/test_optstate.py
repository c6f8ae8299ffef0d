import heapq

import numpy as np
import pytest
from scipy import integrate

from pieces_lab import optstate
from pieces_lab.disorder import from_lengths, sample_pieces
from pieces_lab.manybody import free_occupation_energy
from pieces_lab.optstate import (StatePlan, banded_fraction_prediction,
                                 banded_particle_count, build_psi_opt,
                                 cross_piece_bound_check, energy_of_plan,
                                 fill_free_ground_state,
                                 neighbor_energy_ladder,
                                 second_order_prediction, subadditivity_check)
from pieces_lab.potential import BoxPotential, ExponentialPotential
from pieces_lab.quadrature import cross_density_integral
from pieces_lab.spectrum import fermi_length, free_energy_per_particle_empirical
from pieces_lab.twobody import gamma_via_K, solve_two_body
from position_space import density

U = BoxPotential(1.0, 1.0)
GAMMA = gamma_via_K(U)


def test_fill_free_ground_state_energy():
    cfg = sample_pieces(0, 2e4, 1.0)
    n = 500
    plan = fill_free_ground_state(cfg, n)
    assert plan.n == n
    e = energy_of_plan(cfg, plan, None) / n
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


def test_second_order_prediction_value():
    # frozen closed-form spot value at mu=1, rho=0.1, gamma=8 pi^2
    assert second_order_prediction(0.1, 1.0, 8 * np.pi ** 2) == \
        pytest.approx(0.04525, abs=5e-5)
    assert second_order_prediction(0.1, 1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        second_order_prediction(-0.1, 1.0, 1.0)


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
    spline = None
    if U is not None and len(pair_lengths) > 3:
        lmin, lmax = plan.thresholds["mid"], plan.thresholds["hi"]
        pad = max(1e-3, 0.01 * (lmax - lmin))
        spline = optstate._pair_energy_spline(U, lmin - pad, lmax + pad)
    for j in occ_idx:
        q, l = plan.occupation[j], lengths[j]
        if plan.pair[j] and U is not None:
            total += (float(spline(l)) if spline is not None
                      else solve_two_body(U, l, M=16).energy)
        else:
            total += free_occupation_energy([l], [q])
    if U is not None:
        rng = (U.support_radius if U.support_radius is not None
               else U.effective_radius(1e-10))
        lefts, rights = cfg.lefts, cfg.rights
        G = {}
        for a_pos, j in enumerate(occ_idx):
            for k in occ_idx[a_pos + 1:]:
                gap = lefts[k] - rights[j]
                if gap >= rng:
                    break  # occupied pieces are ordered; gaps only grow
                for idx in (j, k):
                    if idx in G:
                        continue
                    if plan.pair[idx]:
                        ell_bin = round(lengths[idx] * 20.0) / 20.0
                        G[idx] = solve_two_body(U, ell_bin, M=12,
                                                rtol=1e-4).one_body_rdm()
                    else:
                        G[idx] = np.eye(plan.occupation[idx])
                total += cross_density_integral(U, G[j], lengths[j], G[k],
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
    return from_lengths(lengths), StatePlan(occ, pair)


@pytest.mark.parametrize("V", [U, ExponentialPotential(1.0, 1.0)],
                         ids=["box", "exp"])
@pytest.mark.parametrize("case", ["spline", "few-pairs", "free"])
def test_energy_of_plan_matches_pair_loop(V, case):
    if case == "spline":  # more than three pairs: the pair-energy spline
        cfg = sample_pieces(6, 5e3, 1.0)
        plan = build_psi_opt(cfg, 0.05, GAMMA)
        assert plan.pair.sum() > 3
    else:
        cfg, plan = _few_pair_plan()
    if case == "few-pairs" and V is U:
        assert cfg.lefts[4] - cfg.rights[2] == 1.0 == V.support_radius
    W = None if case == "free" else V
    ref = _loop_energy_of_plan(cfg, plan, W)
    assert energy_of_plan(cfg, plan, W) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_pair_spline_matches_scipy_cubic_spline():
    # the private spline against scipy's not-a-knot CubicSpline, to the
    # bit: on random and on evenly spaced 12-node grids, at the knots (the
    # last one exactly), points inside and points in the pad beyond either end
    from scipy.interpolate import CubicSpline
    rng = np.random.default_rng(19)
    for trial in range(400):
        lo = rng.uniform(0.5, 40.0)
        x = (np.linspace(lo, lo + rng.uniform(0.1, 20.0), 12) if trial % 2
             else np.sort(rng.uniform(lo, lo + 20.0, 12)))
        y = rng.normal(size=12) * rng.uniform(1e-3, 1e3)
        pad = 0.05 * (x[-1] - x[0])
        t = np.concatenate([x, [np.nextafter(x[-1], np.inf)],
                            rng.uniform(x[0], x[-1], 40),
                            rng.uniform(x[0] - pad, x[0], 8),
                            rng.uniform(x[-1], x[-1] + pad, 8)])
        ours, ref = optstate._not_a_knot_spline(x, y), CubicSpline(x, y)
        assert np.array_equal(ours(t), ref(t))
        assert float(ours(t[-1])) == float(ref(t[-1]))


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
