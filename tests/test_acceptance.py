"""Acceptance suite: one criterion per test, one [PASS]/[FAIL] line each.

Each criterion is a desk-scale statement with its tolerance fixed up front;
shared expensive objects (kernel constants, two-body ladders) are cached at
module scope.  Criterion 6 checks the weak-coupling slope of gamma against
the first-order value (5 pi^2 / 2) * int u^2 U; the derivation is in the
comment on that test.
"""

import time

import numpy as np
from scipy.stats import beta, kstest

from pieces_lab.disorder import (count_pair_clusters, count_pieces_in_range,
                                 max_piece_length, sample_pieces,
                                 sample_pieces_conditioned)
from pieces_lab.manybody import (BlockBasis, block_overlap,
                                 enumerate_occupations,
                                 exact_ground_state_small, solve_block)
from pieces_lab.optstate import (BOUND_CONSTANTS, asymptotics_check,
                                 banded_fraction_prediction,
                                 banded_particle_count,
                                 cross_piece_bound_check,
                                 neighbor_energy_ladder, subadditivity_check)
from pieces_lab.potential import BoxPotential, ExponentialPotential
from pieces_lab.rdm import (factorized_rdm, rdm1, rdm2,
                            coefficient_distance_bound, trace_norm_distance)
from pieces_lab.spectrum import (counting_function, enumerate_levels_below,
                                 fermi_energy,
                                 free_energy_per_particle_empirical,
                                 free_energy_per_particle_theoretical,
                                 ids_theoretical)
from pieces_lab.twobody import gamma_via_K, gamma_via_fit, solve_two_body
from slater_condon import Tables, slater_condon_hamiltonian

BOX = BoxPotential(1.0, 1.0)
EXP = ExponentialPotential(1.0, 1.0)
L = 1e5
MU = 1.0
SEEDS = list(range(20))


def _report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    return ok


def test_01_ids_formula():
    t0 = time.time()
    grid = np.linspace(0.05, 3.0, 50)
    theo = ids_theoretical(grid, MU)
    worst = []
    for seed in SEEDS:
        cfg = sample_pieces(seed, L, MU)
        emp = np.array([counting_function(cfg, E) for E in grid])
        worst.append(float(np.max(np.abs(emp - theo))))
    hits = sum(w <= 0.01 for w in worst)
    ok = hits >= 19 and time.time() - t0 <= 30
    assert _report(1, "integrated density of states", ok,
                   f"{hits}/20 seeds within 0.01 (worst {max(worst):.4f}), "
                   f"{time.time() - t0:.1f}s")


def test_02_fermi_quantities():
    t0 = time.time()
    worst_rt = 0.0
    for rho in (1e-3, 1e-2, 1e-1, 1.0):
        E = fermi_energy(rho, MU)
        worst_rt = max(worst_rt, abs(ids_theoretical(E, MU) - rho))
    cfg = sample_pieces(0, L, MU)
    n = round(0.1 * L)
    E_rho = fermi_energy(0.1, MU)
    table = enumerate_levels_below(cfg, 2.0 * E_rho)
    level = table.energies[n - 1]
    rel = abs(level - E_rho) / E_rho
    ok = worst_rt <= 1e-10 and rel <= 0.05 and time.time() - t0 <= 30
    assert _report(2, "Fermi energy and level", ok,
                   f"round trip {worst_rt:.2e}, n-th level off by {rel:.3%}")


def test_03_free_energy_per_particle():
    t0 = time.time()
    theo = free_energy_per_particle_theoretical(0.1, MU)
    emps = []
    for seed in SEEDS:
        cfg = sample_pieces(seed, L, MU)
        emps.append(free_energy_per_particle_empirical(cfg, round(0.1 * L)))
    rel = abs(np.mean(emps) - theo) / theo
    ok = rel <= 0.02 and time.time() - t0 <= 60
    assert _report(3, "free energy per particle", ok,
                   f"mean rel diff {rel:.3%} over 20 seeds, "
                   f"{time.time() - t0:.1f}s")


def test_04_two_body_expansion():
    t0 = time.time()
    ells = np.array([20.0, 40.0, 80.0, 160.0])
    E = np.array([solve_two_body(BOX, l).energy for l in ells])
    # E l^2 = 5 pi^2 + c / l: the fitted intercept is the leading constant
    intercept = np.polyfit(1.0 / ells, E * ells ** 2, 1)[1]
    rel = abs(intercept - 5 * np.pi ** 2) / (5 * np.pi ** 2)
    g = (E - 5 * np.pi ** 2 / ells ** 2) * ells ** 3
    stab = abs(g[-1] - g[-2]) / abs(g[-2])
    dt = time.time() - t0
    ok = rel <= 0.01 and stab <= 0.05 and dt <= 120
    assert _report(4, "two-body energy expansion", ok,
                   f"intercept off {rel:.3%}, top-rung stability {stab:.3%}, "
                   f"{dt:.0f}s")


def test_05_gamma_route_agreement():
    t0 = time.time()
    devs = {}
    for name, U, ells in (("box", BOX, [20.0, 40.0, 80.0, 160.0]),
                          ("exp", EXP, [20.0, 40.0, 80.0])):
        gk = gamma_via_K(U)
        gf = gamma_via_fit(U, ells)
        devs[name] = abs(gf - gk) / gk
    dt = time.time() - t0
    ok = all(d <= 0.05 for d in devs.values()) and dt <= 120
    assert _report(5, "gamma route agreement", ok,
                   f"box {devs['box']:.3%}, exp {devs['exp']:.3%}, {dt:.0f}s")


def test_06_small_coupling_law():
    # first order in the coupling, gamma(alpha U) ~ ell^3 <phi_(1,2),
    # U(ell (x - y)) phi_(1,2)>; on [0, 1] the pair state vanishes on the
    # diagonal like |phi| ~ |x - y| |W| / sqrt(2) with W = s1 s2' - s2 s1'
    # = -4 pi sin^3(pi x), so gamma/alpha -> (1/2) int W^2 * int u^2 U
    # = (5 pi^2 / 2) * int u^2 U, and int u^2 U = 2/3 for the unit box
    t0 = time.time()
    alpha = 1e-3
    ratio = gamma_via_K(BoxPotential(alpha, 1.0)) / alpha
    target = 2.5 * np.pi ** 2 * (2.0 / 3.0)
    rel = abs(ratio - target) / target
    ok = rel <= 0.03 and time.time() - t0 <= 30
    assert _report(6, "small-coupling constant", ok,
                   f"gamma/alpha = {ratio:.3f} vs predicted {target:.3f} "
                   f"({rel:.1%} off)")


def test_07_block_structure():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    checked = 0
    while checked < 50:
        lengths = rng.uniform(4.0, 8.0, size=3)
        gaps = rng.uniform(0.3, 1.5, size=3)
        lefts = np.concatenate([[0.0], np.cumsum(lengths + gaps)[:-1]])
        intervals = list(zip(lefts, lengths))
        n = int(rng.integers(2, 4))
        occs = enumerate_occupations(3, n, 2)
        a, b = rng.choice(len(occs), size=2, replace=False)
        _, sa = solve_block(intervals, occs[a], BOX, M=5, n_states=1)
        _, sb = solve_block(intervals, occs[b], BOX, M=5, n_states=1)
        worst = max(worst, abs(block_overlap(intervals, sa[0], BOX, sb[0])))
        checked += 1
    dt = time.time() - t0
    ok = worst < 1e-10 and dt <= 60
    assert _report(7, "cross-occupation block structure", ok,
                   f"max |<a, W b>| = {worst:.2e} over 50 pairs, {dt:.0f}s")


def test_08_exact_diagonalization_oracle():
    t0 = time.time()
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(10):
        lengths = rng.uniform(4.0, 9.0, size=2)
        gap = rng.uniform(0.2, 1.5)
        intervals = [(0.0, lengths[0]), (lengths[0] + gap, lengths[1])]
        M = 8
        blockwise, _, _, _ = exact_ground_state_small(intervals, 2, BOX, M=M)
        # un-blocked: one dense solve over every 2-particle determinant
        dets = []
        for Q in enumerate_occupations(2, 2, 2):
            dets.extend(BlockBasis(intervals, Q, M).determinants)
        dets = sorted(set(dets))
        H = slater_condon_hamiltonian(dets, Tables(intervals, BOX, M),
                                      [l for _, l in intervals])
        full = np.linalg.eigvalsh(H)[0]
        worst = max(worst, abs(blockwise - full) / abs(full))
    dt = time.time() - t0
    ok = worst <= 1e-7 and dt <= 180
    assert _report(8, "blockwise vs un-blocked diagonalization", ok,
                   f"max rel diff {worst:.2e} over 10 instances, {dt:.0f}s")


def test_09_rdm_identities():
    t0 = time.time()
    # traces on a CI state and a two-body state
    intervals = [(0.0, 7.0), (8.5, 6.0)]
    _, states = solve_block(intervals, (2, 1), BOX, M=6, n_states=1)
    g1, g2 = rdm1(states[0]), rdm2(states[0])
    trace_err = max(abs(g1.trace - 3.0), abs(g2.trace - 3.0))
    # factorized vs direct on far-separated sub-states
    far = [(0.0, 7.0), (58.0, 6.0)]
    _, pair = solve_block(far, (2, 0), BOX, M=8, n_states=1)
    _, single = solve_block(far, (0, 1), BOX, M=8, n_states=1)
    _, direct = solve_block(far, (2, 1), BOX, M=8, n_states=1)
    f1, f2 = factorized_rdm([pair[0], single[0]])
    d1, d2 = rdm1(direct[0]), rdm2(direct[0])
    fac_err = max(trace_norm_distance(d1.matrix, _aligned(f1, d1)),
                  trace_norm_distance(d2.matrix, _aligned(f2, d2)))
    # coefficient-distance bound on 100 perturbed two-body pairs
    rng = np.random.default_rng(9)
    bound_ok = True
    for _ in range(100):
        ell = float(rng.uniform(5.0, 10.0))
        sol = solve_two_body(BOX, ell, M=8)
        eps = rng.normal(size=sol.coeffs.shape) * 10.0 ** rng.uniform(-6, -1)
        other = type(sol)(sol.ell, sol.pairs, sol.energy,
                          sol.coeffs + eps, sol.residual)
        other.coeffs /= np.linalg.norm(other.coeffs)
        d = trace_norm_distance(rdm1(sol).matrix,
                                _aligned(rdm1(other), rdm1(sol)))
        bound_ok &= d <= coefficient_distance_bound(sol.coeffs,
                                                    other.coeffs) + 1e-12
    dt = time.time() - t0
    ok = trace_err <= 1e-10 and fac_err <= 1e-9 and bound_ok and dt <= 60
    assert _report(9, "reduced density matrix identities", ok,
                   f"trace err {trace_err:.1e}, factorization err "
                   f"{fac_err:.1e}, bound holds on 100 pairs: {bound_ok}, "
                   f"{dt:.0f}s")


def _aligned(dm, ref):
    idx = {m: i for i, m in enumerate(dm.modes)}
    P = np.zeros((len(ref.modes), len(dm.modes)))
    for i, m in enumerate(ref.modes):
        P[i, idx[m]] = 1.0
    return P @ dm.matrix @ P.T


def test_10_psi_opt_particle_count():
    # per-seed scatter of the count fraction is ~0.014, so a 20-seed mean
    # (s.e. ~3e-3) cannot resolve the 5 rho^3 = 6e-4 band; the mean is
    # taken over 2000 seeds instead (s.e. ~3e-4), which still finishes in
    # a few seconds; each seed's configuration serves both densities
    t0 = time.time()
    gamma = gamma_via_K(BOX)
    fr = {0.05: [], 0.1: []}
    for s in range(2000):
        cfg = sample_pieces(s, L, MU)
        for rho in fr:
            fr[rho].append(banded_particle_count(cfg, rho, gamma)
                           / round(rho * L))
    devs = {rho: abs(float(np.mean(f))
                     - banded_fraction_prediction(rho, gamma))
            for rho, f in fr.items()}
    dt = time.time() - t0
    ok = all(devs[r] <= 5 * r ** 3 for r in devs) and dt <= 60
    assert _report(10, "trial-state particle count", ok,
                   f"dev {devs[0.05]:.1e} (tol 6.3e-4) at rho=0.05, "
                   f"{devs[0.1]:.1e} (tol 5e-3) at rho=0.1, {dt:.0f}s")


def test_11_second_order_energy_ratio():
    t0 = time.time()
    gamma = gamma_via_K(BOX)
    means = {}
    for rho in (0.1, 0.05, 0.02):
        rs = [asymptotics_check(sample_pieces(s, L, MU), rho, BOX,
                                gamma)["ratio"] for s in SEEDS]
        means[rho] = float(np.mean(rs))
    dt = time.time() - t0
    trend = abs(means[0.02] - 1.0) < abs(means[0.1] - 1.0)
    ok = 0.5 <= means[0.05] <= 1.5 and trend and dt <= 600
    assert _report(11, "second-order energy ratio", ok,
                   f"means r(0.1)={means[0.1]:.3f}, r(0.05)={means[0.05]:.3f}"
                   f", r(0.02)={means[0.02]:.3f}, {dt:.0f}s")


def test_12_subadditivity():
    t0 = time.time()
    rng = np.random.default_rng(12)
    all_ok = True
    for _ in range(10):
        def region(x0):
            lengths = rng.uniform(4.0, 7.0, size=2)
            gap = rng.uniform(0.3, 1.5)
            return [(x0, lengths[0]),
                    (x0 + lengths[0] + gap, lengths[1])]
        i1 = region(0.0)
        sep = rng.uniform(0.3, 3.0)
        i2 = region(i1[-1][0] + i1[-1][1] + sep)
        n1, n2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        rep = subadditivity_check(i1, n1, i2, n2, BOX, M=6)
        all_ok &= rep["upper_ok"]
    dt = time.time() - t0
    ok = all_ok and dt <= 120
    assert _report(12, "sub-additivity with cross slack", ok,
                   f"bound held on 10 instances, {dt:.0f}s")


def test_13_cross_piece_bounds():
    t0 = time.time()
    worst = {}
    for which in BOUND_CONSTANTS:
        ratios = []
        for l1 in (8.0, 12.0, 16.0):
            for l2 in (8.0, 12.0, 16.0):
                for a in (1.5, 2.5, 4.0):
                    rep = cross_piece_bound_check(EXP, l1, l2, a, which)
                    assert rep["ok"], (which, l1, l2, a, rep["ratio"])
                    ratios.append(rep["ratio"])
        worst[which] = max(ratios) / BOUND_CONSTANTS[which]
    ladder = neighbor_energy_ladder(BOX)
    dt = time.time() - t0
    ok = (all(v <= 1.0 for v in worst.values())
          and ladder["fitted_order"] <= -4.0 and dt <= 180)
    assert _report(13, "cross-piece interaction bounds", ok,
                   f"max lhs/rhs {max(worst.values()):.2f}, neighbor decay "
                   f"order {ladder['fitted_order']:.2f}, {dt:.0f}s")


def test_14_piece_statistics():
    t0 = time.time()
    cfg = sample_pieces(14, L, MU)
    # singles: lengths in [1, 2], expectation e^-1 (1 - e^-1) per unit
    p1 = np.exp(-1.0) * (1.0 - np.exp(-1.0))
    c1 = count_pieces_in_range(cfg, 1.0, 1.0)
    z1 = abs(c1 - p1 * L) / np.sqrt(p1 * L)
    # adjacent pairs, both lengths in [1, 2]
    p2 = np.exp(-2.0) * (1.0 - np.exp(-1.0)) ** 2
    c2 = count_pair_clusters(cfg, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0)
    z2 = abs(c2 - p2 * L) / np.sqrt(p2 * L)
    # conditional lengths: first marginal of the conditioned law
    m = 5
    samples = np.array([sample_pieces_conditioned(s, 1.0, m).lengths[0]
                        for s in range(10_000)])
    pval = kstest(samples, beta(1, m - 1).cdf).pvalue
    # largest piece bound over 1e3 seeds
    bound = np.log(L) * np.log(np.log(L))
    viol = sum(max_piece_length(sample_pieces(s, L, MU)) > bound
               for s in range(1000))
    dt = time.time() - t0
    ok = (z1 <= 3.0 and z2 <= 3.0 and pval > 0.01 and viol / 1000 < 0.01
          and dt <= 120)
    assert _report(14, "piece statistics", ok,
                   f"z-scores {z1:.2f}/{z2:.2f}, KS p={pval:.3f}, "
                   f"max-piece violations {viol}/1000, {dt:.0f}s")
