import heapq

import numpy as np
import pytest
from scipy import integrate

from pieces_lab import optstate
from pieces_lab.disorder import from_lengths, sample_pieces
from pieces_lab.optstate import (banded_fraction_prediction,
                                 banded_particle_count, build_psi_opt,
                                 cross_piece_bound_check, energy_of_plan,
                                 fill_free_ground_state,
                                 neighbor_energy_ladder,
                                 second_order_prediction, subadditivity_check)
from pieces_lab.potential import BoxPotential, ExponentialPotential
from pieces_lab.spectrum import free_energy_per_particle_empirical
from pieces_lab.twobody import gamma_via_K, solve_two_body

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
    for j in plan.occupied():
        ell, q = cfg.lengths[j], plan.occupation[j]
        if plan.tags[j] == "single":
            assert lo <= ell < mid and q == 1
        elif plan.tags[j] == "pair":
            assert mid <= ell < hi and q == 2


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
    rho_b = solve_two_body(V, l2, M=12, rtol=1e-4).density
    if which == "12":
        rho_a = lambda x: 2.0 / l1 * np.sin(np.pi * np.atleast_1d(x) / l1) ** 2
    else:
        rho_a = solve_two_body(V, l1, M=12, rtol=1e-4).density
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


def _spill_over_per_piece(occ, tags, lengths, hi, deficit):
    """Reference: the spill-over heap built piece by piece."""
    pool = ((occ > 0) & (lengths >= hi)) | (occ == 0)
    heap = [((np.pi * (occ[j] + 1) / lengths[j]) ** 2, int(j))
            for j in np.nonzero(pool)[0]]
    heapq.heapify(heap)
    while deficit > 0 and heap:
        _, j = heapq.heappop(heap)
        occ[j] += 1
        tags[j] = "filled"
        deficit -= 1
        heapq.heappush(heap, ((np.pi * (occ[j] + 1) / lengths[j]) ** 2, j))
    return deficit


def test_spill_over_matches_per_piece_heap(monkeypatch):
    seen = []
    spill = optstate._spill_over

    def record(occ, tags, lengths, hi, deficit):
        seen.append((occ.copy(), list(tags), lengths, hi, deficit))
        return spill(occ, tags, lengths, hi, deficit)

    monkeypatch.setattr(optstate, "_spill_over", record)
    for seed in (0, 4, 9):  # samples whose bands and long pieces fall short
        cfg = sample_pieces(seed, 1e5, 1.0)
        plan = build_psi_opt(cfg, 0.05, GAMMA)
        occ, tags, lengths, hi, deficit = seen.pop()
        assert deficit > 0
        assert _spill_over_per_piece(occ, tags, lengths, hi, deficit) == 0
        assert np.array_equal(plan.occupation, occ)
        assert plan.tags == tags
