"""Shows that each output check of the benchmark rejects a perturbed output.

    python3 perfbench/selftest.py

Every case takes an output of pieces_lab on a small input (or, for the
ladder fit, the expansion the fit assumes), requires the check to accept
it, perturbs it, and requires the check to reject the perturbed copy.
Prints one line per case and exits 1 if any case misbehaves.  Takes a few
seconds.
"""

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pieces_lab as pl  # noqa: E402

import oracles as o  # noqa: E402
import workloads as w  # noqa: E402

results = []


def case(name, good, bad):
    ok = good[0] and not bad[0]
    results.append(ok)
    print(f"[{'ok' if ok else 'BROKEN'}] {name}: accepts ({good[1]}); "
          f"rejects ({bad[1]})")


def main():
    # gamma-ladder
    box, box_ref = pl.BoxPotential(1.0, 1.0), o.box_u(1.0, 1.0)
    ell = 6.0
    e0 = pl.solve_two_body(box, ell, M=12, rtol=1e-4).energy
    free = w.FREE_PAIR / ell ** 2
    bracket = o.pair_bracket(box_ref, ell)
    case("rung below the free pair energy", w.check_rung(e0, ell, bracket),
         w.check_rung(free - (e0 - free), ell, bracket))
    case("rung above the phi_(1,2) bracket", w.check_rung(e0, ell, bracket),
         w.check_rung(free + 1.01 * bracket, ell, bracket))
    gk, first = pl.gamma_via_K(box), o.first_order_gamma(box_ref)
    case("gamma fit off the kernel value", w.check_box_gamma(1.01 * gk, gk, first),
         w.check_box_gamma(1.06 * gk, gk, first))
    case("gamma above the first-order constant", w.check_gamma_k(gk, first),
         w.check_gamma_k(1.01 * first, first))
    ells = np.array([10.0, 20.0, 40.0])
    energies = w.FREE_PAIR / ells ** 2 + gk / ells ** 3
    case("ladder intercept", w.check_intercept(ells, energies),
         w.check_intercept(ells, 1.02 * energies))

    # trial-energy
    L, rho = 2e5, w.TRIAL_RHO
    cfg = pl.sample_pieces(5, L, 1.0)
    n = round(rho * L)
    e_free = pl.free_energy_per_particle_empirical(cfg, n)
    ref = o.free_energy_closed_form(rho, 1.0)
    report = {"n": n, "free_energy_per_particle": e_free,
              "plan_energy_per_particle": e_free + 1e-3, "ratio": 1.0}
    case("plan particle count", w.check_trial(report, n, ref),
         w.check_trial(dict(report, n=n - 1), n, ref))
    case("plan energy below the free energy", w.check_trial(report, n, ref),
         w.check_trial(dict(report, plan_energy_per_particle=e_free - 1e-3), n, ref))
    case("free energy per particle off the closed form",
         w.check_trial(report, n, ref),
         w.check_trial(dict(report, free_energy_per_particle=1.03 * ref,
                            plan_energy_per_particle=1.04 * ref), n, ref))

    # few-body
    lengths = [5.0, 6.0]
    intervals = [(0.0, 5.0), (5.5, 6.0)]
    E, _, state, _ = pl.exact_ground_state_small(intervals, 2, box, M=6)
    g1, g2 = pl.rdm1(state), pl.rdm2(state)
    occ = g1.eigenvalues()
    good = w.check_ground(E, lengths, 2, g1.trace, g2.trace, occ)
    floor = w.lowest_levels_sum(lengths, 2)
    case("energy below the lowest levels", good,
         w.check_ground(floor - 1e-6, lengths, 2, g1.trace, g2.trace, occ))
    case("rdm1 trace", good,
         w.check_ground(E, lengths, 2, g1.trace + 1e-6, g2.trace, occ))
    case("rdm2 trace", good,
         w.check_ground(E, lengths, 2, g1.trace, g2.trace - 1e-6, occ))
    case("occupation above 1", good,
         w.check_ground(E, lengths, 2, g1.trace, g2.trace, occ + 1e-6))
    rep = pl.subadditivity_check([(0.0, 5.0)], 1, [(5.5, 6.0)], 1, box, M=6)
    args = (rep["E_union"], rep["E_1"], rep["E_2"], rep["slack"])
    case("factorization error", w.check_structure(1e-12, *args),
         w.check_structure(1e-6, *args))
    case("sub-additivity", w.check_structure(1e-12, *args),
         w.check_structure(1e-12, rep["E_1"] + rep["E_2"] + rep["slack"] + 1e-6,
                           *args[1:]))

    # piece-stats
    L = 1e5
    cfg = pl.sample_pieces(7, L, 1.0)
    x = cfg.lengths
    count = pl.count_pair_clusters(cfg, *w.PAIRS)
    expected = o.expected_pair_clusters(L, 1.0, *w.PAIRS)
    recount = o.recount_pair_clusters(x, *w.PAIRS)
    biased = count + int(7.0 * np.sqrt(expected))
    case("scan count against its recount", w.check_scan(count, recount, expected),
         w.check_scan(count + 1, recount, expected))
    case("scan count against the Poisson expectation",
         w.check_scan(count, recount, expected),
         w.check_scan(biased, biased, expected))
    grid = w.IDS_GRID
    emp = [pl.counting_function(cfg, E) for E in grid]
    ids = o.ids_closed_form(grid, 1.0)
    case("integrated density of states", w.check_ids(emp, ids),
         w.check_ids(np.asarray(emp) + 0.02, ids))
    fe = pl.free_energy_per_particle_empirical(cfg, round(w.STATS_RHO * L))
    fe_ref = o.free_energy_closed_form(w.STATS_RHO, 1.0)
    case("free energy per particle", w.check_free_energy(fe, fe_ref),
         w.check_free_energy(1.03 * fe_ref, fe_ref))
    samples = [pl.sample_pieces_conditioned(s, w.COND_L, w.COND_M).lengths
               for s in range(w.COND_SAMPLES)]
    firsts = [s[0] for s in samples]
    totals = [s.sum() for s in samples]
    counts = [len(s) for s in samples]
    good = w.check_conditioned(firsts, totals, counts, w.COND_L, w.COND_M)
    case("conditioned first-length law", good,
         w.check_conditioned([1.2 * f for f in firsts], totals, counts,
                             w.COND_L, w.COND_M))
    case("conditioned piece count", good,
         w.check_conditioned(firsts, totals, counts[:-1] + [w.COND_M - 1],
                             w.COND_L, w.COND_M))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
