"""The benchmark workloads: inputs made from a seed, timed operations, and
the checks applied to their outputs.

Each of the two workloads runs two parts one after the other in a round;
the parts are the four workloads of the benchmark's design (gamma-ladder,
trial-energy, few-body, piece-stats), paired so that a run is long enough
to average out the speed swings of a shared 2-core machine.

Each workload calls the public functions of pieces_lab through the package
namespace (``pl.name``), so that a traced run sees every call.  One round
runs the same operations in the same order for a given seed; an operation
is a rung, a seed, an instance or a scan.  Operations are timed one by one
and their checks run outside the timed region.

The checks are module-level functions returning ``(ok, detail)`` so that
selftest.py can show that each one rejects a perturbed output.
"""

import math
import time
import traceback

import numpy as np

import oracles

FREE_PAIR = 5.0 * np.pi ** 2

# Every scan count must lie within Z_MAX * sqrt(expected) of its Poisson
# expectation.  The counts of overlapping pairs and triplets are correlated,
# and their z-scores with this scale had standard deviations 1.0-1.2 over
# 100 seeds at L = 1e6 (largest |z| 3.3).
Z_MAX = 6.0


class Round:
    """Times the operations of one round and keeps their check results."""

    def __init__(self):
        self.ops = []

    def op(self, stage, name, fn, check):
        """Time fn(), then apply check to its output outside the timing.

        Returns the output, or None when fn raised.
        """
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:
            dt = time.perf_counter() - t0
            self.ops.append({"stage": stage, "name": name, "seconds": dt,
                             "raised": True, "ok": False,
                             "detail": traceback.format_exc(limit=3)})
            return None
        dt = time.perf_counter() - t0
        try:
            ok, detail = check(out)
        except Exception:
            ok, detail = False, traceback.format_exc(limit=3)
        self.ops.append({"stage": stage, "name": name, "seconds": dt,
                         "raised": False, "ok": bool(ok), "detail": detail})
        return out


# ---------------------------------------------------------------------------
# checks

def check_rung(energy, ell, bracket):
    """5 pi^2/ell^2 < E0 <= 5 pi^2/ell^2 + <phi_(1,2), U phi_(1,2)>: U >= 0
    raises the energy, and phi_(1,2) is a trial state."""
    excess = energy - FREE_PAIR / ell ** 2
    ok = 0.0 < excess <= bracket * (1.0 + 1e-10)
    return ok, f"E0 - 5pi^2/l^2 = {excess:.6e}, bracket {bracket:.6e}"


def check_box_gamma(gamma_fit, gamma_k, first_order):
    """The ladder fit and the kernel route agree within 5%, and the kernel
    value lies in (0, first-order constant]."""
    dev = abs(gamma_fit - gamma_k) / gamma_k
    ok = dev <= 0.05 and 0.0 < gamma_k <= first_order
    return ok, (f"fit {gamma_fit:.5f}, K {gamma_k:.5f} ({dev:.3%} apart), "
                f"first order {first_order:.5f}")


def check_intercept(ells, energies):
    """The intercept of E ell^2 against 1/ell is 5 pi^2 within 1%."""
    ells = np.asarray(ells, dtype=float)
    A = np.vstack([np.ones_like(ells), 1.0 / ells]).T
    (icpt, _), *_ = np.linalg.lstsq(A, np.asarray(energies) * ells ** 2,
                                    rcond=None)
    rel = abs(icpt - FREE_PAIR) / FREE_PAIR
    return rel <= 0.01, f"intercept {icpt:.5f} ({rel:.3%} off 5 pi^2)"


def check_gamma_k(gamma_k, first_order):
    ok = 0.0 < gamma_k <= first_order
    return ok, f"K {gamma_k:.5f}, first order {first_order:.5f}"


def check_trial(report, n_expected, free_ref):
    """The plan holds round(rho L) particles, its energy per particle is at
    least the free one (U >= 0), and the free energy per particle is within
    2% of the closed form."""
    e_plan = report["plan_energy_per_particle"]
    e_free = report["free_energy_per_particle"]
    rel = abs(e_free - free_ref) / free_ref
    ok = report["n"] == n_expected and e_plan >= e_free and rel <= 0.02
    return ok, (f"n {report['n']}/{n_expected}, plan {e_plan:.6f}, free "
                f"{e_free:.6f}, free off closed form {rel:.3%}, "
                f"ratio {report['ratio']:.3f}")


def lowest_levels_sum(lengths, n):
    k = np.arange(1, n + 1)
    levels = np.sort((np.pi * k[None, :] / np.asarray(lengths)[:, None]) ** 2,
                     axis=None)
    return float(levels[:n].sum())


def check_ground(energy, lengths, n, trace1, trace2, occ1):
    """E0 >= sum of the n lowest one-particle levels; tr rdm1 = n,
    tr rdm2 = n(n-1)/2, and the occupation numbers lie in [0, 1]."""
    floor = lowest_levels_sum(lengths, n)
    tol = 1e-10
    ok = (energy >= floor - tol and abs(trace1 - n) <= tol
          and abs(trace2 - n * (n - 1) / 2) <= tol
          and occ1.min() >= -tol and occ1.max() <= 1.0 + tol)
    return ok, (f"E0 {energy:.8f}, level floor {floor:.8f}, traces {trace1:.12f}/"
                f"{trace2:.12f}, occupations [{occ1.min():.2e}, "
                f"{occ1.max():.12f}]")


def check_structure(fact_err, e_union, e_1, e_2, slack):
    """Factorized and direct RDMs agree within 1e-9 in trace norm, and
    E(union) <= E(1) + E(2) + cross slack."""
    ok = fact_err <= 1e-9 and slack >= 0.0 and e_union <= e_1 + e_2 + slack + 1e-8
    return ok, (f"factorization err {fact_err:.2e}, E_union {e_union:.8f}, "
                f"E_1 + E_2 + slack = {e_1:.8f} + {e_2:.8f} + {slack:.3e}")


def check_scan(count, recount, expected):
    z = (count - expected) / math.sqrt(expected)
    ok = count == recount and abs(z) <= Z_MAX
    return ok, f"count {count}, recount {recount}, expected {expected:.1f}, z {z:+.2f}"


def check_ids(empirical, closed_form):
    worst = float(np.max(np.abs(np.asarray(empirical) - closed_form)))
    return worst <= 0.01, f"max |N_L - N| = {worst:.2e}"


def check_free_energy(empirical, closed_form):
    rel = abs(empirical - closed_form) / closed_form
    return rel <= 0.02, f"free energy {empirical:.6f} vs {closed_form:.6f} ({rel:.3%})"


def check_conditioned(first_lengths, totals, counts, L, m):
    """Every sample has m pieces summing to L; the first length has the
    Beta(1, m-1) law scaled by L, so its sample mean is L/m within 6 sd."""
    k = len(first_lengths)
    sd = L * math.sqrt((m - 1) / (m * m * (m + 1)) / k)
    z = (float(np.mean(first_lengths)) - L / m) / sd
    ok = (all(c == m for c in counts)
          and float(np.max(np.abs(np.asarray(totals) - L))) <= 1e-9 * L
          and abs(z) <= 6.0)
    return ok, f"{k} samples of {m} pieces, first-length mean z {z:+.2f}"


def _both(*results):
    return all(ok for ok, _ in results), "; ".join(d for _, d in results)


def _trace_norm(a):
    return float(np.linalg.svd(a, compute_uv=False).sum())


def _aligned(dm, ref):
    idx = {m: i for i, m in enumerate(dm.modes)}
    order = [idx[m] for m in ref.modes]
    return dm.matrix[np.ix_(order, order)]


# ---------------------------------------------------------------------------
# gamma-ladder: twobody + quadrature, two potentials

BOX_ELLS = (10.0, 20.0, 40.0)
EXP_ELLS = (5.0, 10.0)


def _jitter(rng, ells):
    # each rung moves by up to 2% so that seeds give distinct ladders of the
    # same cost
    return [float(l * (1.0 + 0.02 * rng.random())) for l in ells]


def gamma_ladder_inputs(pl, seed):
    rng = np.random.default_rng([seed, 1])
    return {"box": pl.BoxPotential(1.0, 1.0),
            "exp": pl.ExponentialPotential(1.0, 1.0),
            "box_ells": _jitter(rng, BOX_ELLS),
            "exp_ells": _jitter(rng, EXP_ELLS)}


def gamma_ladder(pl, inp, rnd):
    box_ref = oracles.box_u(1.0, 1.0)
    exp_ref = oracles.exp_u(1.0, 1.0)
    energies = []
    for ell in inp["box_ells"]:
        sol = rnd.op("a", f"box rung {ell:.4f}",
                     lambda: pl.solve_two_body(inp["box"], ell),
                     lambda s: check_rung(s.energy, ell,
                                          oracles.pair_bracket(box_ref, ell)))
        energies.append(sol.energy if sol is not None else float("nan"))
    first_order = oracles.first_order_gamma(box_ref)
    rnd.op("a", "box gamma",
           lambda: (pl.gamma_via_fit(inp["box"], inp["box_ells"]),
                    pl.gamma_via_K(inp["box"])),
           lambda g: _both(check_box_gamma(g[0], g[1], first_order),
                           check_intercept(inp["box_ells"], energies)))
    for ell in inp["exp_ells"]:
        rnd.op("b", f"exp rung {ell:.4f}",
               lambda: pl.solve_two_body(inp["exp"], ell),
               lambda s: check_rung(s.energy, ell,
                                    oracles.pair_bracket(exp_ref, ell)))


# ---------------------------------------------------------------------------
# trial-energy: optstate over twobody + quadrature caches

TRIAL_RHO = 0.05
# A sample at L = 4e5 hits nearly every 0.05-wide length bin of the pair
# band, and _pair_density caches one two-body solve per bin: the first
# sample fills the caches, and the later ones measure the per-sample work
# (the cross-density integrals) rather than how many new bins they happen to
# hit.  At this size the free energy per particle of one sample has a
# standard deviation of 0.39% over 150 seeds, a fifth of the 2% its check
# allows; at L = 2e5 it is 0.54%, and one sample in several thousand would
# fail the check for no fault of the program.
TRIAL_L = 4e5
TRIAL_WARM_SEEDS = 3


def trial_energy_inputs(pl, seed):
    return {"box": pl.BoxPotential(1.0, 1.0),
            "seeds": [1000 * seed + k for k in range(1 + TRIAL_WARM_SEEDS)]}


def trial_energy(pl, inp, rnd):
    box_ref = oracles.box_u(1.0, 1.0)
    gamma = rnd.op(None, "gamma_via_K", lambda: pl.gamma_via_K(inp["box"]),
                   lambda g: check_gamma_k(g, oracles.first_order_gamma(box_ref)))
    if gamma is None:
        return
    free_ref = oracles.free_energy_closed_form(TRIAL_RHO, 1.0)
    n_expected = round(TRIAL_RHO * TRIAL_L)
    for k, s in enumerate(inp["seeds"]):
        rnd.op("c" if k == 0 else "d", f"seed {s}",
               lambda: pl.asymptotics_check(pl.sample_pieces(s, TRIAL_L, 1.0),
                                            TRIAL_RHO, inp["box"], gamma),
               lambda r: check_trial(r, n_expected, free_ref))


# ---------------------------------------------------------------------------
# few-body: manybody + rdm, with small cross-piece quadrature tables

FEW_M = 10
FEW_N = 3
FEW_INSTANCES = 2


def few_body_inputs(pl, seed):
    rng = np.random.default_rng([seed, 3])
    instances = []
    for _ in range(FEW_INSTANCES):
        # every gap is shorter than the box range, so each neighbouring pair
        # of pieces interacts and builds its cross-piece table; instances
        # then solve the same blocks and differ little in cost
        lengths = rng.uniform(5.0, 7.0, size=3)
        gaps = rng.uniform(0.3, 0.9, size=3)
        lefts = np.concatenate([[0.0], np.cumsum(lengths[:-1] + gaps[:-1])])
        instances.append({
            "lengths": lengths,
            "intervals": [(float(a), float(l)) for a, l in zip(lefts, lengths)],
            # sub-additivity pairs the first two pieces with a second
            # two-piece region placed gaps[2] to their right
            "region2_gap": float(gaps[2]),
            "region2": rng.uniform(4.0, 7.0, size=2),
        })
    return {"box": pl.BoxPotential(1.0, 1.0), "instances": instances}


def few_body(pl, inp, rnd):
    U = inp["box"]
    for k, inst in enumerate(inp["instances"]):
        def ground():
            E, Q, state, _ = pl.exact_ground_state_small(inst["intervals"],
                                                         FEW_N, U, M=FEW_M)
            return E, pl.rdm1(state), pl.rdm2(state)

        rnd.op("a", f"instance {k} ground state", ground,
               lambda r: check_ground(r[0], inst["lengths"], FEW_N,
                                      r[1].trace, r[2].trace,
                                      r[1].eigenvalues()))

        def structure():
            l1, l2 = inst["lengths"][:2]
            far = [(0.0, float(l1)), (float(l1) + 60.0, float(l2))]
            _, pair = pl.solve_block(far, (2, 0), U, M=8, n_states=1)
            _, single = pl.solve_block(far, (0, 1), U, M=8, n_states=1)
            _, direct = pl.solve_block(far, (2, 1), U, M=8, n_states=1)
            f1, f2 = pl.factorized_rdm([pair[0], single[0]])
            d1, d2 = pl.rdm1(direct[0]), pl.rdm2(direct[0])
            err = max(_trace_norm(d1.matrix - _aligned(f1, d1)),
                      _trace_norm(d2.matrix - _aligned(f2, d2)))
            region1 = inst["intervals"][:2]
            x0 = region1[1][0] + region1[1][1] + inst["region2_gap"]
            m1, m2 = inst["region2"]
            region2 = [(x0, float(m1)), (x0 + float(m1) + 0.5, float(m2))]
            rep = pl.subadditivity_check(region1, 2, region2, 1, U, M=6)
            return err, rep

        rnd.op("b", f"instance {k} structure", structure,
               lambda r: check_structure(r[0], r[1]["E_union"], r[1]["E_1"],
                                         r[1]["E_2"], r[1]["slack"]))


# ---------------------------------------------------------------------------
# piece-stats: disorder + spectrum

STATS_L = 1e6
STATS_SEEDS = 2
STATS_RHO = 0.1
IDS_GRID = np.linspace(0.05, 3.0, 50)
COND_L, COND_M, COND_SAMPLES = 1.0, 5, 2000
# (a, b), (a, b, c, d, g, f), (ell, ell', d), (ell, ell', ell'', d); the
# last three are the windows of benchmarks/bench_kernels.py
RANGE = (1.0, 1.0)
PAIRS = (1.0, 3.0, 1.0, 3.0, 0.0, 2.0)
NEIGHBORS = (2.0, 2.0, 0.5)
TRIPLETS = (1.5, 1.5, 1.5, 0.5)


def piece_stats_inputs(pl, seed):
    return {"seeds": [1000 * seed + k for k in range(STATS_SEEDS)],
            "cond_seeds": [1000 * seed + k for k in range(COND_SAMPLES)]}


def piece_stats(pl, inp, rnd):
    mu = 1.0
    ids_ref = oracles.ids_closed_form(IDS_GRID, mu)
    free_ref = oracles.free_energy_closed_form(STATS_RHO, mu)
    for s in inp["seeds"]:
        cfg = rnd.op("c", f"sample {s}", lambda: pl.sample_pieces(s, STATS_L, mu),
                     lambda c: (abs(c.lengths.sum() - STATS_L) <= 1e-6 * STATS_L
                                and c.lengths.min() > 0.0,
                                f"{c.n_pieces} pieces"))
        if cfg is None:
            continue
        x = cfg.lengths
        rnd.op("c", f"levels {s}",
               lambda: ([pl.counting_function(cfg, E) for E in IDS_GRID],
                        pl.free_energy_per_particle_empirical(
                            cfg, round(STATS_RHO * STATS_L))),
               lambda r: _both(check_ids(r[0], ids_ref),
                               check_free_energy(r[1], free_ref)))
        for name, fn, recount, expected, args in (
                ("in_range", pl.count_pieces_in_range, oracles.recount_in_range,
                 oracles.expected_in_range, RANGE),
                ("pair_clusters", pl.count_pair_clusters,
                 oracles.recount_pair_clusters, oracles.expected_pair_clusters,
                 PAIRS),
                ("neighbor_pairs", pl.count_neighbor_pairs,
                 oracles.recount_neighbor_pairs,
                 oracles.expected_neighbor_pairs, NEIGHBORS),
                ("triplets", pl.count_triplets, oracles.recount_triplets,
                 oracles.expected_triplets, TRIPLETS)):
            rnd.op("d", f"{name} {s}", lambda: fn(cfg, *args),
                   lambda c: check_scan(c, recount(x, *args),
                                        expected(STATS_L, mu, *args)))

    def conditioned():
        return [pl.sample_pieces_conditioned(s, COND_L, COND_M).lengths
                for s in inp["cond_seeds"]]

    rnd.op("c", "conditioned", conditioned,
           lambda ls: check_conditioned([l[0] for l in ls], [l.sum() for l in ls],
                                        [len(l) for l in ls], COND_L, COND_M))


# Two workloads, each of two parts that run one after the other in a round.
# Each part keeps its own caches: the trial state solves other (ell, M,
# rtol) keys than the ladder, so its first sample still starts cold.
#   name: (parts, {stage tag: (stage name, reducer over its operations)})
WORKLOADS = {
    "gamma-trial": (
        [(gamma_ladder_inputs, gamma_ladder), (trial_energy_inputs, trial_energy)],
        {"a": ("box_ladder_s", "sum"), "b": ("exp_rungs_s", "sum"),
         "c": ("cold_seed_s", "sum"), "d": ("warm_seed_s", "median")}),
    "fewbody-stats": (
        [(few_body_inputs, few_body), (piece_stats_inputs, piece_stats)],
        {"a": ("ground_state_s", "median"), "b": ("structure_s", "median"),
         "c": ("sample_levels_s", "sum"), "d": ("scans_s", "sum")}),
}
