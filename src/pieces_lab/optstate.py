"""Trial many-fermion states over a disordered piece configuration.

Two plans are built here: the non-interacting ground state (fill the n
globally lowest levels) and the near-optimal interacting trial state whose
per-piece assignment depends only on the piece length through three
thresholds derived from the Fermi length and the two-body interaction
constant gamma:

    empty                length < l_rho - rho x*      or >= 3 l_rho
    one ground particle  [l_rho - rho x*, 2 l_rho + A*)
    interacting pair     [2 l_rho + A*,   3 l_rho)

with A* = mu gamma / 8 pi^2 and x* = 1 - exp(-A*).  The particle deficit is
completed by free levels in long pieces (preferring lengths in
[3 l_rho (1+rho), 4 l_rho)).  The plan energy adds closed-form kinetic
terms, cached interacting pair energies, and density-density cross terms
between pieces within interaction range.

Every piece density is given by its 1-RDM over the piece's Dirichlet modes
and integrated by quadrature.cross_density_integral: a free fill of q
levels has the identity I_q, a single in level i the one-hot diag(e_i), a
pair the 1-RDM of a two-body ground state, and a piece of a CI state its
block of the state's rdm1.
"""

import functools
import heapq

import numpy as np
from scipy.interpolate import CubicSpline

from .spectrum import (fermi_length, free_energy_per_particle_empirical,
                       lowest_levels)
from .twobody import astar_xstar, gamma_star, solve_two_body
from .potential import tail_Z
from .quadrature import cosine_coefficients, cross_density_integral
from .manybody import exact_ground_state_small, free_occupation_energy
from .rdm import rdm1

__all__ = [
    "StatePlan",
    "fill_free_ground_state",
    "build_psi_opt",
    "energy_of_plan",
    "banded_particle_count",
    "banded_fraction_prediction",
    "second_order_prediction",
    "asymptotics_check",
    "subadditivity_check",
    "cross_piece_bound_check",
    "neighbor_energy_ladder",
]

EMPTY, SINGLE, PAIR, FILLED = "empty", "single", "pair", "filled"


class StatePlan:
    """Per-piece assignment produced by a filling rule.

    occupation[j] particles in piece j; tags[j] in {empty, single, pair,
    filled} where 'filled' means the lowest occupation[j] free levels.
    """

    def __init__(self, occupation, tags, thresholds=None):
        self.occupation = np.asarray(occupation, dtype=np.int64)
        self.tags = list(tags)
        self.thresholds = dict(thresholds or {})
        if len(self.tags) != len(self.occupation):
            raise ValueError("tags/occupation length mismatch")

    @property
    def n(self):
        return int(self.occupation.sum())

    def occupied(self):
        return np.nonzero(self.occupation)[0]


def fill_free_ground_state(cfg, n):
    """Occupy the n globally lowest one-particle levels."""
    table = lowest_levels(cfg, n)
    occ = np.bincount(table.piece_index[:n], minlength=cfg.n_pieces)
    tags = [EMPTY if q == 0 else FILLED for q in occ]
    return StatePlan(occ, tags, {"n": n, "cutoff": float(table.energies[n - 1])})


def _bands(rho, gamma, mu):
    """Fermi length, A*, x* and the band edges lo, mid, hi."""
    ell_rho = fermi_length(rho, mu)
    A, x = astar_xstar(gamma, mu)
    return ell_rho, A, x, ell_rho - rho * x, 2.0 * ell_rho + A, 3.0 * ell_rho


def build_psi_opt(cfg, rho, gamma, mu=1.0):
    """The banded trial plan for density rho and interaction constant gamma."""
    ell_rho, A, x, lo, mid, hi = _bands(rho, gamma, mu)
    lengths = cfg.lengths
    occ = np.zeros(cfg.n_pieces, dtype=np.int64)
    tags = [EMPTY] * cfg.n_pieces
    occ[(lengths >= lo) & (lengths < mid)] = 1
    occ[(lengths >= mid) & (lengths < hi)] = 2
    for j in np.nonzero(occ)[0]:
        tags[j] = SINGLE if occ[j] == 1 else PAIR
    n = int(round(rho * cfg.L))
    deficit = n - int(occ.sum())
    if deficit < 0:
        # finite-size overshoot: both the band count and n fluctuate by
        # O(sqrt(n)), so the bands can exceed n.  Trim deterministically by
        # dropping the most expensive particles: singles in the shortest
        # occupied pieces, then pair demotions.
        singles = sorted((j for j in np.nonzero(occ)[0] if occ[j] == 1),
                         key=lambda j: lengths[j])
        while deficit < 0 and singles:
            j = singles.pop(0)
            occ[j], tags[j] = 0, EMPTY
            deficit += 1
        pairs = sorted((j for j in np.nonzero(occ)[0] if occ[j] == 2),
                       key=lambda j: lengths[j])
        while deficit < 0 and pairs:
            j = pairs.pop(0)
            occ[j], tags[j] = 1, SINGLE
            deficit += 1
        if deficit < 0:
            raise ValueError("band assignment exceeds n; rho too large for this rule")
    # completion: lowest free levels in long pieces, preferred band first with
    # a soft per-piece cap of 3; any remainder goes uncapped into the long
    # pieces (at desk scale the capped capacity ~equals the mean deficit, so
    # the cap alone is exceeded on a finite fraction of realizations)
    preferred = np.nonzero((lengths >= hi * (1.0 + rho)) & (lengths < 4.0 * ell_rho))[0]
    fallback = np.setdiff1d(np.nonzero(lengths >= hi)[0], preferred)
    for pool in (preferred, fallback):
        deficit = _fill_lowest(occ, tags, lengths, pool, deficit, cap=3)
    if deficit > 0:
        # the capped long-piece capacity ~equals the mean deficit at desk
        # scale, so about half of all realizations spill over
        deficit = _spill_over(occ, tags, lengths, hi, deficit)
    if deficit > 0:
        raise ValueError("not enough pieces to complete the particle count")
    return StatePlan(occ, tags, {
        "ell_rho": ell_rho, "A_star": A, "x_star": x,
        "lo": lo, "mid": mid, "hi": hi, "n": n, "rho": rho, "mu": mu,
    })


def _spill_over(occ, tags, lengths, hi, deficit):
    """Place the remaining deficit, uncapped, among pieces the bands left
    empty (mostly pieces just below the single band, whose first level sits
    just above the Fermi energy) and occupied pieces of length >= hi.
    Updates occ and tags in place and returns the deficit left when the
    pool runs out."""
    idx = np.nonzero(((occ > 0) & (lengths >= hi)) | (occ == 0))[0]
    return _fill_lowest(occ, tags, lengths, idx, deficit)


def _fill_lowest(occ, tags, lengths, idx, deficit, cap=None):
    """Place deficit particles one at a time on the lowest free marginal
    level (pi (occ[j] + 1) / lengths[j])^2 among the pieces idx, ties to the
    lower index, adding at most cap particles to a piece (no cap if None).
    Updates occ and tags in place and returns the deficit left when the
    pieces run out."""
    if deficit <= 0:
        return deficit
    first = (np.pi * (occ[idx] + 1) / lengths[idx]) ** 2
    if deficit < len(idx):
        # every level placed lies at or below the deficit-th smallest first
        # marginal level (each piece takes at least one), so only the pieces
        # whose first level does can take one; ties keep all of them, and
        # the heap pops in the same order
        keep = first <= np.partition(first, deficit - 1)[deficit - 1]
        idx, first = idx[keep], first[keep]
    room = np.inf if cap is None else cap
    heap = [(e, j, room) for e, j in zip(first.tolist(), idx.tolist())]
    heapq.heapify(heap)
    while deficit > 0 and heap:
        _, j, room = heapq.heappop(heap)
        occ[j] += 1
        tags[j] = FILLED
        deficit -= 1
        if room > 1:
            heapq.heappush(heap, ((np.pi * (occ[j] + 1) / lengths[j]) ** 2, j, room - 1))
    return deficit


# ---------------------------------------------------------------------------
# plan energy

@functools.cache
def _pair_energy_spline(U, lmin, lmax):
    """Cubic spline of the pair ground energy (M = 16) through 12 solves
    on [lmin, lmax], cached by value."""
    grid = np.linspace(lmin, lmax, 12)
    return CubicSpline(grid, [solve_two_body(U, l, M=16).energy for l in grid])


def energy_of_plan(cfg, plan, U):
    """Total energy of the plan state.

    Per-piece terms: closed form pi^2 k^2/l^2 sums for singles and free
    fills, interacting two-body ground energies for pairs (cubic-spline
    cache over the pair band).  Cross terms: density-density integrals
    between occupied pieces within interaction range.  A pair's density is
    that of the two-body ground state solved on the piece's 0.05-wide
    length bin (one solve per bin, shared across samples), dilated to the
    piece: the same mode coefficients, so the same 1-RDM.

    The in-range piece pairs are found array-at-a-time, each distinct
    density's cosine coefficients are computed once, and the pairs are
    integrated in one stacked cross_density_integral call per pair of mode
    counts.
    """
    lengths = cfg.lengths
    occ_idx = plan.occupied()
    q = plan.occupation[occ_idx]
    ell = lengths[occ_idx]
    is_pair = np.array([U is not None and plan.tags[j] == PAIR for j in occ_idx],
                       dtype=bool)
    total = free_occupation_energy(ell[~is_pair], q[~is_pair])
    pair_lengths = ell[is_pair]
    if len(pair_lengths) > 3:
        # key the spline by the plan's pair band (not per-sample extremes)
        # so the cache is shared across disorder realizations
        if "mid" in plan.thresholds and "hi" in plan.thresholds:
            lmin, lmax = plan.thresholds["mid"], plan.thresholds["hi"]
        else:
            lmin, lmax = pair_lengths.min(), pair_lengths.max()
        pad = max(1e-3, 0.01 * (lmax - lmin))
        total += float(np.sum(_pair_energy_spline(U, lmin - pad, lmax + pad)(pair_lengths)))
    else:
        total += sum(solve_two_body(U, l, M=16).energy for l in pair_lengths)
    if U is None:
        return total
    rng = U.effective_radius(1e-10)
    a, b, gap = _neighbour_pairs(cfg.lefts[occ_idx], cfg.rights[occ_idx], rng)
    # one solve per pair piece with a neighbour in range (cached per length
    # bin); a density is the 1-RDM of a pair's bin solution or the free fill
    # I_q of any other piece, and each distinct one gets its coefficients once
    pieces = np.unique(np.concatenate((a, b)))
    source, label = {}, np.zeros(len(occ_idx), dtype=np.int64)
    for p in pieces:
        src = (solve_two_body(U, round(ell[p] * 20.0) / 20.0, M=12, rtol=1e-4)
               if is_pair[p] else int(q[p]))
        label[p] = source.setdefault(src, len(source))
    coeffs = [cosine_coefficients(np.eye(src) if isinstance(src, int) else src.one_body_rdm())
              for src in source]
    return total + _cross_sum(U, [coeffs[d] for d in label[a]], ell[a],
                              [coeffs[d] for d in label[b]], ell[b], gap)


def _cross_sum(U, dens_a, ell_a, dens_b, ell_b, gap):
    """Sum over k of the cross-density integral between dens_a[k] on a piece
    of length ell_a[k] and dens_b[k] on a piece of length ell_b[k] at gap[k]
    to its right (densities as 1-RDMs or cosine coefficients): one stacked
    cross_density_integral per pair of mode counts."""
    ell_a, ell_b, gap = (np.asarray(v, dtype=np.float64) for v in (ell_a, ell_b, gap))
    size = np.array([(len(x), len(y)) for x, y in zip(dens_a, dens_b)]).reshape(-1, 2)
    total = 0.0
    for group in np.unique(size, axis=0):
        sel = np.nonzero((size == group).all(axis=1))[0]
        total += float(np.sum(cross_density_integral(
            U, np.array([dens_a[k] for k in sel]), ell_a[sel],
            np.array([dens_b[k] for k in sel]), ell_b[sel], gap[sel])))
    return total


def _neighbour_pairs(lefts, rights, rng):
    """Positions (a, b), a < b, of the pieces (lefts, rights sorted, disjoint)
    with gap = lefts[b] - rights[a] < rng, and those gaps, a-major.

    The gaps from one piece grow with b, so each piece's neighbours are a
    run found by np.searchsorted; the run takes one more candidate, and the
    gap < rng test decides, so that rounding in rights + rng cannot change
    the set."""
    pos = np.arange(len(lefts))
    end = np.minimum(np.searchsorted(lefts, rights + rng, side="right") + 1, len(lefts))
    count = np.maximum(end - pos - 1, 0)
    a = np.repeat(pos, count)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(count) - count, count)
    gap = lefts[b] - rights[a]
    keep = gap < rng
    return a[keep], b[keep], gap[keep]


def banded_particle_count(cfg, rho, gamma, mu=1.0):
    """Particles placed by the length bands alone (no completion):
    singles + 2 x pairs."""
    _, _, _, lo, mid, hi = _bands(rho, gamma, mu)
    lengths = cfg.lengths
    singles = int(((lengths >= lo) & (lengths < mid)).sum())
    pairs = int(((lengths >= mid) & (lengths < hi)).sum())
    return singles + 2 * pairs


def banded_fraction_prediction(rho, gamma, mu=1.0):
    """Predicted banded-count fraction 1 - r^2 (3 - x* - x*^2/2) with
    r = rho/(mu+rho) = e^{-mu l_rho}; accurate to O(rho^3) with a small
    constant (the literal rho^2 arrangement carries a ~7 rho^3 remainder)."""
    _, x = astar_xstar(gamma, mu)
    r = rho / (mu + rho)
    return 1.0 - r ** 2 * (3.0 - x - 0.5 * x ** 2)


def second_order_prediction(rho, mu, gamma):
    """Closed-form second-order energy correction per particle:
    pi^2 gamma*^mu mu^-1 rho_mu l_rho^-3, rho_mu = rho/mu."""
    if rho <= 0 or mu <= 0 or gamma < 0:
        raise ValueError("positive rho, mu and gamma >= 0 required")
    if gamma == 0:
        return 0.0
    gs = gamma_star(gamma, mu)
    ell_rho = fermi_length(rho, mu)
    return float(np.pi ** 2 * gs * (rho / mu ** 2) / ell_rho ** 3)


def asymptotics_check(cfg, rho, U, gamma, mu=1.0):
    """Measured excess energy of the trial plan against the second-order
    prediction: r = (E(plan)/n - free energy per particle) / prediction."""
    if gamma == 0 or U is None:
        return {"ratio": None, "note": "no interaction"}
    plan = build_psi_opt(cfg, rho, gamma, mu=mu)
    n = plan.n
    e_plan = energy_of_plan(cfg, plan, U) / n
    e_free = free_energy_per_particle_empirical(cfg, n)
    pred = second_order_prediction(rho, mu, gamma)
    return {
        "ratio": (e_plan - e_free) / pred,
        "plan_energy_per_particle": e_plan,
        "free_energy_per_particle": e_free,
        "prediction": pred,
        "n": n,
    }


# ---------------------------------------------------------------------------
# sub-additivity and cross-piece bounds


def _piece_rdms(state):
    """{piece: its M x M block of rdm1(state)} over the pieces a CIState
    occupies."""
    g = rdm1(state)
    piece = np.array([j for j, _ in g.modes])
    return {j: g.matrix[np.ix_(piece == j, piece == j)] for j in set(piece.tolist())}


def subadditivity_check(intervals1, n1, intervals2, n2, U, M=8):
    """E(union, n1+n2) <= E(1, n1) + E(2, n2) + density-density slack.

    The two interval lists must be disjoint regions of the line (global
    coordinates).  Returns the three energies and the slack integral.
    """
    E1, _, st1, _ = exact_ground_state_small(intervals1, n1, U, M=M)
    E2, _, st2, _ = exact_ground_state_small(intervals2, n2, U, M=M)
    Eu, _, _, _ = exact_ground_state_small(list(intervals1) + list(intervals2),
                                           n1 + n2, U, M=M)
    G1, G2 = _piece_rdms(st1), _piece_rdms(st2)
    rng = U.effective_radius(1e-12)
    near = []  # (G, ell) of the left piece, (G, ell) of the right one, gap
    for p1, (a1, l1) in enumerate(intervals1):
        for p2, (a2, l2) in enumerate(intervals2):
            if p1 not in G1 or p2 not in G2:
                continue  # an empty piece carries no density
            left, right, gap = (G1[p1], l1), (G2[p2], l2), a2 - (a1 + l1)
            if gap < 0:  # the piece of region 2 lies to the left
                left, right, gap = right, left, a1 - (a2 + l2)
            if gap < rng:
                near.append((*left, *right, gap))
    slack = _cross_sum(U, *zip(*near)) if near else 0.0
    return {
        "E_union": Eu, "E_1": E1, "E_2": E2, "slack": slack,
        "upper_ok": Eu <= E1 + E2 + slack + 1e-8,
    }


# upper constants for the cross-piece bound shapes: the '11far' and '12'
# constants are explicit; the big-O shapes carry constants fitted once on an
# exponential potential over (l1, l2) in [8, 16]^2, a in [1.5, 4], with at
# least 2x margin over the measured maximum ratio
BOUND_CONSTANTS = {"11far": 1.0, "11close": 4.0, "12": 1.0,
                   "12close": 10.0, "22": 1.0}


def cross_piece_bound_check(U, ell1, ell2, a, which):
    """Quadrature check of one cross-piece interaction bound.

    which:
      '11far'    LHS <= 2 a^-3 Z(a) / max(l1, l2)
      '11close'  LHS = O(Z(a) / (max^2 min^2))           (fitted constant)
      '12'       LHS <= 4 a^-3 Z(a) / l1
      '12close'  LHS = O(Z(a) / (l1^3 sqrt(l2)))         (fitted constant)
      '22'       LHS = O(min(1, a^-2 Z(a)) / sqrt(l1 l2)) (fitted constant)
    LHS is the density-density interaction integral between eigenstates of
    the two pieces at distance a (the one-particle ground level, 1-RDM
    [[1.0]]; '12'/'22' use the two-body ground-state density, trace 2).
    Returns dict with lhs, rhs_shape and ratio = lhs / rhs_shape.
    """
    Z = lambda x: tail_Z(U, x)
    pair = lambda ell: solve_two_body(U, ell, M=12, rtol=1e-4).one_body_rdm()
    if which in ("11far", "11close"):
        Ga, Gb = np.ones((1, 1)), np.ones((1, 1))
    elif which in ("12", "12close"):
        Ga, Gb = np.ones((1, 1)), pair(ell2)
    elif which == "22":
        Ga, Gb = pair(ell1), pair(ell2)
    else:
        raise ValueError("unknown bound check %r" % which)
    lhs = cross_density_integral(U, Ga, ell1, Gb, ell2, a)
    Za = Z(a) if a > 0 else None
    if which == "11far":
        rhs = 2.0 * a ** -3 * Za / max(ell1, ell2)
    elif which == "11close":
        rhs = Za / (max(ell1, ell2) ** 2 * min(ell1, ell2) ** 2)
    elif which == "12":
        rhs = 4.0 * a ** -3 * Za / ell1
    elif which == "12close":
        rhs = Za / (ell1 ** 3 * np.sqrt(ell2))
    else:
        rhs = min(1.0, a ** -2 * Za) / np.sqrt(ell1 * ell2) if a > 0 else 1.0 / np.sqrt(ell1 * ell2)
    if rhs > 0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if abs(lhs) < 1e-14 else np.inf
    C = BOUND_CONSTANTS[which]
    return {"which": which, "lhs": lhs, "rhs_shape": rhs, "ratio": ratio,
            "constant": C, "ok": ratio <= C}


def neighbor_energy_ladder(U, ells=(5.0, 10.0, 20.0, 40.0), M=10):
    """Two electrons in neighboring pieces [0, l] and [l + 0.5, 2l + 0.5]
    (gap 0.5): deviation of the exact ground energy from pi^2/l1^2 +
    pi^2/l2^2, with the fitted decay order in l over a doubling ladder."""
    devs = []
    for l in ells:
        iv = [(0.0, l), (l + 0.5, l)]
        E, Q, _, _ = exact_ground_state_small(iv, 2, U, M=M)
        devs.append(E - 2.0 * np.pi ** 2 / l ** 2)
    devs = np.array(devs)
    mask = devs > 0
    order = np.polyfit(np.log(np.array(ells)[mask]), np.log(devs[mask]), 1)[0] if mask.sum() >= 2 else np.nan
    return {"ells": list(ells), "deviations": devs.tolist(), "fitted_order": float(order)}
