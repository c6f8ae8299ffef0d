"""Trial many-fermion states over a disordered piece configuration.

Two plans are built here: the non-interacting ground state (fill the n
globally lowest levels) and the near-optimal interacting trial state whose
per-piece assignment depends only on the piece length through three
thresholds derived from the Fermi length at cfg.mu and the two-body
interaction constant gamma:

    empty                length < l_rho - rho x*      or >= 3 l_rho
    one ground particle  [l_rho - rho x*, 2 l_rho + A*)
    interacting pair     [2 l_rho + A*,   3 l_rho)

with A* = mu gamma / 8 pi^2 and x* = 1 - exp(-A*).  The particle deficit is
completed by free levels in long pieces (preferring lengths in
[3 l_rho (1+rho), 4 l_rho)).  A plan is the occupations plus a mask of
the pair pieces.  The plan energy adds closed-form kinetic terms,
interacting pair energies, and density-density cross terms between pieces
within interaction range.  Over three pairs, the pair energies and
densities are Chebyshev interpolants on the pair band, both from the same
12 cached two-body solves.

Every piece density enters quadrature.cross_density_integral as its cosine
coefficients, which quadrature.cosine_coefficients computes from the
piece's 1-RDM over its Dirichlet modes: the identity I_q for a free fill
of q levels, the one-hot diag(e_i) for a single in level i, the 1-RDM of
a two-body ground state for a pair (or the interpolant of its
coefficients), and its block of the state's rdm1 for a piece of a CI
state.
"""

import functools
import heapq

import numpy as np

from .spectrum import (fermi_length, free_energy_per_particle_empirical,
                       lowest_levels)
from .twobody import astar_xstar, solve_two_body
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

class StatePlan:
    """Per-piece assignment produced by a filling rule.

    occupation[j] particles in piece j; pair[j] if they are an interacting
    pair, else they fill the lowest occupation[j] free levels.
    """

    def __init__(self, occupation, pair, thresholds):
        self.occupation = np.asarray(occupation, dtype=np.int64)
        self.pair = np.asarray(pair, dtype=bool)
        self.thresholds = dict(thresholds)
        if self.pair.shape != self.occupation.shape:
            raise ValueError("pair/occupation shape mismatch")

    @property
    def n(self):
        return int(self.occupation.sum())

    def occupied(self):
        return np.nonzero(self.occupation)[0]


def fill_free_ground_state(cfg, n):
    """Occupy the n globally lowest one-particle levels."""
    table = lowest_levels(cfg, n)
    occ = np.bincount(table.piece_index, minlength=cfg.n_pieces)
    return StatePlan(occ, np.zeros(cfg.n_pieces, dtype=bool),
                     {"n": n, "cutoff": float(table.energies[-1])})


def _bands(rho, gamma, mu):
    """Fermi length, A*, x* and the band edges lo, mid, hi."""
    ell_rho = fermi_length(rho, mu)
    A, x = astar_xstar(gamma, mu)
    return ell_rho, A, x, ell_rho - rho * x, 2.0 * ell_rho + A, 3.0 * ell_rho


def build_psi_opt(cfg, rho, gamma):
    """The banded trial plan at cfg.mu for density rho and gamma."""
    ell_rho, A, x, lo, mid, hi = _bands(rho, gamma, cfg.mu)
    lengths = cfg.lengths
    single = (lengths >= lo) & (lengths < mid)
    pair = (lengths >= mid) & (lengths < hi)
    n = int(round(rho * cfg.L))
    deficit = n - int(single.sum()) - 2 * int(pair.sum())
    if deficit < 0:
        # finite-size overshoot: both the band count and n fluctuate by
        # O(sqrt(n)), so the bands can exceed n.  Trim deterministically by
        # dropping the most expensive particles: singles in the shortest
        # occupied pieces, then pair demotions (ties to the lower index).
        for band in (single, pair):
            idx = np.flatnonzero(band)
            drop = idx[np.argsort(lengths[idx], kind="stable")[:-deficit]]
            band[drop] = False
            if band is pair:
                single[drop] = True
            deficit += len(drop)
        if deficit < 0:
            raise ValueError("band assignment exceeds n; rho too large for this rule")
    occ = single + 2 * pair
    # completion: lowest free levels in long pieces, preferred band first with
    # a soft per-piece cap of 3.  At desk scale the capped capacity ~equals
    # the mean deficit, so about half of all realizations spill over: the
    # remainder goes, uncapped, to pieces the bands left empty (mostly pieces
    # just below the single band, whose first level sits just above the Fermi
    # energy) and to occupied pieces of length >= hi, never to a pair.
    in_preferred = (lengths >= hi * (1.0 + rho)) & (lengths < 4.0 * ell_rho)
    preferred = np.flatnonzero(in_preferred)
    fallback = np.flatnonzero((lengths >= hi) & ~in_preferred)
    for pool in (preferred, fallback):
        deficit = _fill_lowest(occ, lengths, pool, deficit, cap=3)
    deficit = _fill_lowest(occ, lengths,
                           np.nonzero(((occ > 0) & (lengths >= hi)) | (occ == 0))[0],
                           deficit)
    if deficit > 0:
        raise ValueError("not enough pieces to complete the particle count")
    return StatePlan(occ, pair, {
        "ell_rho": ell_rho, "A_star": A, "x_star": x,
        "lo": lo, "mid": mid, "hi": hi, "n": n, "rho": rho, "mu": cfg.mu,
    })


def _fill_lowest(occ, lengths, idx, deficit, cap=None):
    """Place deficit particles one at a time on the lowest free marginal
    level (pi (occ[j] + 1) / lengths[j])^2 among the pieces idx, ties to the
    lower index, adding at most cap particles to a piece (no cap if None).
    Updates occ in place and returns the deficit left when the pieces run
    out."""
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
        deficit -= 1
        if room > 1:
            heapq.heappush(heap, ((np.pi * (occ[j] + 1) / lengths[j]) ** 2, j, room - 1))
    return deficit


# ---------------------------------------------------------------------------
# plan energy

@functools.cache
def _pair_band(U, mid, hi):
    """The pair ground state (M = 16) on the pair band [mid, hi] from 12
    solves at the band's Chebyshev points, cached by value: the degree-11
    Chebyshev interpolant of its energy, and a function that maps pair
    lengths to the degree-11 interpolants of its density's cosine
    coefficients (one row per length).  Each node's coefficients are padded
    with zeros to the longest, so a coefficient that is zero at every node
    stays exactly zero; cross_density_integral takes its u-nodes from the
    last non-zero coefficient, so the padding costs no nodes."""
    cheb = np.polynomial.chebyshev
    # the points and the energy fit of Chebyshev.interpolate(f, 11, domain=
    # [mid, hi]), written out so that both fits share the solves
    ls = np.polynomial.polyutils.mapdomain(cheb.chebpts1(12), [-1.0, 1.0], [mid, hi])
    sols = [solve_two_body(U, l, M=16) for l in ls]
    energy = np.polynomial.Chebyshev(
        cheb.chebinterpolate(lambda _: np.array([s.energy for s in sols]), 11),
        domain=[mid, hi])
    coeffs = [cosine_coefficients(s.one_body_rdm()) for s in sols]
    width = max(map(len, coeffs))
    table = cheb.chebinterpolate(
        lambda _: np.array([np.pad(c, (0, width - len(c))) for c in coeffs]), 11)
    off, scl = energy.mapparms()

    def density(ls):
        return cheb.chebval(off + scl * np.asarray(ls), table).T

    return energy, density


def energy_of_plan(cfg, plan, U):
    """Total energy of the plan state.

    Per-piece terms: closed form pi^2 k^2/l^2 sums for singles and free
    fills, interacting two-body ground states for plan.pair.  Over three
    pairs, a pair's energy and density come from the cached interpolants of
    _pair_band on the band [mid, hi] of plan.thresholds (ValueError for a
    pair length outside it); otherwise from a direct M = 16 solve at the
    piece's length.  Cross terms: density-density integrals between occupied
    pieces within interaction range.

    The in-range piece pairs are found array-at-a-time, the pair pieces'
    cosine coefficients come from one interpolant evaluation over three
    pairs (a free fill's once per q), and the pairs are integrated in one
    stacked cross_density_integral call per pair of mode counts.
    """
    lengths = cfg.lengths
    occ_idx = plan.occupied()
    q = plan.occupation[occ_idx]
    ell = lengths[occ_idx]
    is_pair = plan.pair[occ_idx]
    total = free_occupation_energy(ell[~is_pair], q[~is_pair])
    pair_lengths = ell[is_pair]
    if len(pair_lengths) > 3:
        # key the interpolants by the plan's pair band (not per-sample
        # extremes) so the cache is shared across disorder realizations;
        # a polynomial of degree 11 is not extrapolated
        mid, hi = plan.thresholds["mid"], plan.thresholds["hi"]
        if not np.all((pair_lengths >= mid) & (pair_lengths <= hi)):
            raise ValueError(f"pair lengths outside the pair band [{mid}, {hi}]")
        energy, density = _pair_band(U, mid, hi)
        total += float(np.sum(energy(pair_lengths)))
    else:
        total += sum(solve_two_body(U, l, M=16).energy for l in pair_lengths)

        def density(ls):
            return [cosine_coefficients(solve_two_body(U, l, M=16).one_body_rdm())
                    for l in ls]
    rng = U.effective_radius(1e-10)
    a, b, gap = _neighbour_pairs(cfg.lefts[occ_idx], cfg.rights[occ_idx], rng)
    # a density is the pair state's at the piece's length or the free fill
    # I_q of any other piece, for the pieces with a neighbour in range
    near = np.zeros(len(occ_idx), dtype=bool)
    near[a] = near[b] = True
    coeffs = [None] * len(occ_idx)
    pairs = np.flatnonzero(near & is_pair)
    for p, c in zip(pairs.tolist(), density(ell[pairs])):
        coeffs[p] = c
    fills = np.flatnonzero(near & ~is_pair)
    fill = {k: cosine_coefficients(np.eye(k)) for k in set(q[fills].tolist())}
    for p in fills.tolist():
        coeffs[p] = fill[int(q[p])]
    return total + _cross_sum(U, [coeffs[i] for i in a.tolist()], ell[a],
                              [coeffs[i] for i in b.tolist()], ell[b], gap)


def _cross_sum(U, dens_a, ell_a, dens_b, ell_b, gap):
    """Sum over k of the cross-density integral between dens_a[k] on a piece
    of length ell_a[k] and dens_b[k] on a piece of length ell_b[k] at gap[k]
    to its right (densities as cosine coefficients): one stacked
    cross_density_integral per pair of mode counts."""
    ell_a, ell_b, gap = (np.asarray(v, dtype=np.float64) for v in (ell_a, ell_b, gap))
    groups = {}
    for k, size in enumerate(zip(map(len, dens_a), map(len, dens_b))):
        groups.setdefault(size, []).append(k)
    total = 0.0
    for size in sorted(groups):
        sel = groups[size]
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


def banded_particle_count(cfg, rho, gamma):
    """Particles placed by the length bands alone (no completion):
    singles + 2 x pairs."""
    _, _, _, lo, mid, hi = _bands(rho, gamma, cfg.mu)
    lengths = cfg.lengths
    singles = int(((lengths >= lo) & (lengths < mid)).sum())
    pairs = int(((lengths >= mid) & (lengths < hi)).sum())
    return singles + 2 * pairs


def banded_fraction_prediction(rho, gamma, mu=1.0):
    """Predicted banded-count fraction 1 - r^2 (3 - x* - x*^2/2) with
    r = rho/(mu+rho) = e^{-mu l_rho}; accurate to O(rho^3) with a small
    constant (the literal rho^2 arrangement carries a ~7 rho^3 remainder)."""
    if not (0 < rho < np.inf and 0 < mu < np.inf):
        raise ValueError("rho and mu must be positive and finite")
    _, x = astar_xstar(gamma, mu)
    r = rho / (mu + rho)
    return 1.0 - r ** 2 * (3.0 - x - 0.5 * x ** 2)


def second_order_prediction(rho, mu, gamma):
    """Closed-form second-order energy correction per particle:
    pi^2 gamma*^mu mu^-1 rho_mu l_rho^-3, rho_mu = rho/mu, with gamma*^mu
    the x* of astar_xstar."""
    if not (0 < rho < np.inf and 0 < mu < np.inf and gamma >= 0):
        raise ValueError("rho and mu must be positive and finite, gamma >= 0")
    if gamma == 0:
        return 0.0
    _, x = astar_xstar(gamma, mu)
    ell_rho = fermi_length(rho, mu)
    return float(np.pi ** 2 * x * (rho / mu ** 2) / ell_rho ** 3)


def asymptotics_check(cfg, rho, U, gamma):
    """Measured excess energy of the trial plan against the second-order
    prediction: r = (E(plan)/n - free energy per particle) / prediction."""
    if gamma == 0 or U is None:
        return {"ratio": None, "note": "no interaction"}
    plan = build_psi_opt(cfg, rho, gamma)
    n = plan.n
    e_plan = energy_of_plan(cfg, plan, U) / n
    e_free = free_energy_per_particle_empirical(cfg, n)
    pred = second_order_prediction(rho, cfg.mu, gamma)
    return {
        "ratio": (e_plan - e_free) / pred,
        "plan_energy_per_particle": e_plan,
        "free_energy_per_particle": e_free,
        "prediction": pred,
        "n": n,
    }


# ---------------------------------------------------------------------------
# sub-additivity and cross-piece bounds


def _piece_densities(state):
    """{piece: the cosine coefficients of its density} over the pieces a
    CIState occupies, each from the piece's M x M block of rdm1(state)."""
    g = rdm1(state)
    piece = np.array([j for j, _ in g.modes])
    return {j: cosine_coefficients(g.matrix[np.ix_(piece == j, piece == j)])
            for j in set(piece.tolist())}


def subadditivity_check(intervals1, n1, intervals2, n2, U, M=8):
    """E(union, n1+n2) <= E(1, n1) + E(2, n2) + density-density slack.

    The two interval lists must be disjoint regions of the line (global
    coordinates).  Returns the three energies and the slack integral.
    """
    E1, _, st1, _ = exact_ground_state_small(intervals1, n1, U, M=M)
    E2, _, st2, _ = exact_ground_state_small(intervals2, n2, U, M=M)
    Eu, _, _, _ = exact_ground_state_small(list(intervals1) + list(intervals2),
                                           n1 + n2, U, M=M)
    c1, c2 = _piece_densities(st1), _piece_densities(st2)
    rng = U.effective_radius(1e-12)
    near = []  # (c, ell) of the left piece, (c, ell) of the right one, gap
    for p1, (a1, l1) in enumerate(intervals1):
        for p2, (a2, l2) in enumerate(intervals2):
            if p1 not in c1 or p2 not in c2:
                continue  # an empty piece carries no density
            left, right, gap = (c1[p1], l1), (c2[p2], l2), a2 - (a1 + l1)
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

# each bound shape: whether pieces 1 and 2 hold a two-body pair (else the
# one-particle ground level), whether it has a factor a^-3 (so needs a > 0),
# and the shape in Z(a), a, l1 and l2, with min(1, a^-2 Z(a)) = 1 at a = 0
_BOUND_SHAPES = {
    "11far": (False, False, True, lambda Z, a, l1, l2: 2.0 * a ** -3 * Z / max(l1, l2)),
    "11close": (False, False, False,
                lambda Z, a, l1, l2: Z / (max(l1, l2) ** 2 * min(l1, l2) ** 2)),
    "12": (False, True, True, lambda Z, a, l1, l2: 4.0 * a ** -3 * Z / l1),
    "12close": (False, True, False, lambda Z, a, l1, l2: Z / (l1 ** 3 * np.sqrt(l2))),
    "22": (True, True, False, lambda Z, a, l1, l2:
           (min(1.0, a ** -2 * Z) if a > 0 else 1.0) / np.sqrt(l1 * l2)),
}


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
    It needs a >= 0, and a > 0 for '11far' and '12' (else ValueError).
    Returns dict with lhs, rhs_shape and ratio = lhs / rhs_shape.
    """
    if which not in _BOUND_SHAPES:
        raise ValueError("unknown bound check %r" % which)
    *pairs, inverse_cube, shape = _BOUND_SHAPES[which]
    if not (a > 0 if inverse_cube else a >= 0):
        raise ValueError(f"bound check {which!r} needs a distance "
                         f"a {'>' if inverse_cube else '>='} 0, got {a}")
    ca, cb = (cosine_coefficients(
        solve_two_body(U, ell, M=12, rtol=1e-4).one_body_rdm() if pair
        else np.ones((1, 1))) for pair, ell in zip(pairs, (ell1, ell2)))
    lhs = cross_density_integral(U, ca, ell1, cb, ell2, a)
    rhs = shape(tail_Z(U, a), a, ell1, ell2)
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
