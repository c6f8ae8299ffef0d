"""Few-fermion states over a piece configuration.

The n-particle Hamiltonian with a repulsive pair potential U is block
diagonal over occupation vectors Q (particles per piece): orbitals in
distinct pieces have disjoint supports, so any matrix element moving a
particle between pieces vanishes identically.  This module provides the
occupation bookkeeping, determinant (CI) bases within a block, the block
Hamiltonians built on the quadrature g-tensors and their lowest eigenpairs
(solve_block, for one piece as for several), and exact ground states for
tiny n.  Pieces are given as lists of (left, length) intervals.

A block Hamiltonian is assembled by pair removal.  A block's determinants
are rows of increasing indices into its orbital list, and the pair
interaction has the antisymmetrized tensor A[p,q,r,s] = g(p,q,r,s) -
g(p,q,s,r) over those orbitals, built by _antisymmetrized from the
same-piece and cross-piece g tensors of the quadrature module.  Removing
the pair at positions i < j of a determinant D leaves an (n-2)-orbital
remainder R, with sign (-1)^(i+j-1).  Two determinants that share a
remainder couple through s_D s_D' A[p,q,p',q'], and summing over all
shared remainders gives the Slater-Condon elements for 0, 1 and 2
differing orbitals.  So the removals are sorted by remainder, and each
group adds one dense block s s^T * A[p,q,p',q'] to H.  The same grouping
with one or two removals gives the RDMs of a CIState (rdm.py).
`block_overlap` couples two states, possibly of different blocks, by the
same pair removal over the union of their determinants.

A block's lowest eigenpairs come from _eigen._lowest_eigenpairs, which
the two-body stages use too: eigh below dimension 400, a numpy block
LOBPCG from 400 on.  The exact ground state visits the blocks in
ascending free filling energy, a lower bound on each block's energy since
U >= 0, and stops at the first block whose free energy exceeds the best
energy found + 1e-10, the tie tolerance; ties go to the lexicographically
smallest occupation.
"""

import itertools
import math

import numpy as np

from ._eigen import _lowest_eigenpairs
from .quadrature import cross_g_tensor, interaction_g_tensor

__all__ = [
    "enumerate_occupations",
    "kinetic_lower_bound",
    "BlockBasis",
    "CIState",
    "solve_block",
    "block_overlap",
    "exact_ground_state_small",
]

_DIMENSION_CAP = 200_000


# ---------------------------------------------------------------------------
# occupation vectors


def enumerate_occupations(n_pieces, n, cap):
    """All occupation vectors of total n over n_pieces with per-piece cap,
    in lexicographic order.

    Stars and bars: n stars and n_pieces - 1 bars in a row, piece j holding
    the stars between bars j - 1 and j.  Bar positions taken in
    lexicographic order give the vectors in lexicographic order.
    """
    if n_pieces == 0 or n < 0:
        return [()] if n == n_pieces == 0 else []
    end = n + n_pieces - 1
    occs = []
    for bars in itertools.combinations(range(end), n_pieces - 1):
        edges = (-1,) + bars + (end,)
        Q = tuple(b - a - 1 for a, b in zip(edges, edges[1:]))
        if max(Q) <= cap:
            occs.append(Q)
    return occs


def free_occupation_energy(lengths, Q):
    """Kinetic energy of filling the Q_j lowest levels in each piece."""
    lengths = np.asarray(lengths, dtype=float)
    Q = np.asarray(Q)
    P = (2 * Q + 1) * (Q + 1) * Q / 6.0  # sum of k^2, k = 1..Q
    return float(np.pi ** 2 * np.sum(P / lengths ** 2))


def kinetic_lower_bound(lengths, nu):
    """pi^2 nu^3 / (3 l_k^2 k^2) for nu particles on k pieces, lengths
    sorted ascending (l_k the largest)."""
    lengths = np.asarray(lengths, dtype=float)
    if np.any(np.diff(lengths) < 0):
        raise ValueError("lengths must be sorted ascending")
    if nu < 1:
        raise ValueError("nu must be >= 1")
    k = len(lengths)
    return float(np.pi ** 2 * nu ** 3 / (3.0 * lengths[-1] ** 2 * k ** 2))


# ---------------------------------------------------------------------------
# the antisymmetrized interaction tensor of a block


def _antisymmetrized(intervals, Q, U, M):
    """Dense A[p,q,r,s] = g(p,q,r,s) - g(p,q,s,r) over the orbitals
    (piece, k), k <= M, of the pieces with Q_j > 0, in (piece, k) order,
    where g(p, q, r, s) = int int phi_p(x) phi_q(y) U(x-y) phi_r(x) phi_s(y).

    g vanishes unless piece(p) == piece(r) and piece(q) == piece(s):
    orbitals of different pieces have disjoint supports.  So only the
    tables a Q-block can reach are built: the same-piece table of a piece
    holding at least two particles, and the cross table of each pair of
    occupied pieces closer than the range of U (beyond it g is zero).
    intervals lists (left, length) per piece; U None gives zeros.
    """
    occ = [j for j, q in enumerate(Q) if q > 0]
    G = np.zeros((M * len(occ),) * 4)
    if U is not None:
        rng = U.effective_radius(1e-12)
        blk = [slice(M * a, M * (a + 1)) for a in range(len(occ))]
        for a, ja in enumerate(occ):
            # table layout [a, b, c, d] = s_a s_b in x, s_c s_d in y, while
            # g(p, q, r, s) has p, r in x and q, s in y
            left, ell = intervals[ja]
            if Q[ja] >= 2:
                G[blk[a], blk[a], blk[a], blk[a]] = \
                    interaction_g_tensor(U, ell, M).transpose(0, 2, 1, 3)
            for b in range(a + 1, len(occ)):
                left_b, ell_b = intervals[occ[b]]
                gap = left_b - (left + ell)
                if gap < rng:
                    t = cross_g_tensor(U, ell, M, ell_b, M, gap)
                    G[blk[a], blk[b], blk[a], blk[b]] = t.transpose(0, 2, 1, 3)
                    G[blk[b], blk[a], blk[b], blk[a]] = t.transpose(2, 0, 3, 1)
    return G - G.transpose(0, 1, 3, 2)


def removals(det_index, k):
    """Every removal of k orbitals from every determinant, grouped by the
    (n-k)-orbital remainder it leaves.

    det_index is a (dim, n) array of increasing orbital indices.  Returns
    (rows, removed, sign, group), sorted by remainder: the determinant row,
    the (entries, k) removed orbitals in increasing order, the sign
    (-1)^(i_1 + ... + i_k - k(k-1)/2) of taking them out at positions
    i_1 < ... < i_k, and the remainder's group number 0, 1, ...  Within a
    group each determinant and each removed k-set occurs at most once.
    """
    dim, n = det_index.shape
    pos = np.array(list(itertools.combinations(range(n), k)),
                   dtype=np.intp).reshape(-1, k)
    # max(.., 0): no removal exists when k > n
    keep = np.array([[i for i in range(n) if i not in c] for c in pos.tolist()],
                    dtype=np.intp).reshape(len(pos), max(n - k, 0))
    rows = np.repeat(np.arange(dim), len(pos))
    removed = det_index[:, pos].reshape(len(rows), k)
    rest = det_index[:, keep].reshape(len(rows), keep.shape[1])
    sign = np.tile(1.0 - 2.0 * ((pos.sum(1) - k * (k - 1) // 2) % 2), dim)
    _, group = np.unique(rest, axis=0, return_inverse=True)
    order = np.argsort(group, kind="stable")
    return rows[order], removed[order], sign[order], group[order]


def _add_pair_interaction(H, det_index, A):
    """Add <D| sum_{i<j} U(x_i - x_j) |D'> onto H in place, for the
    determinants of det_index (rows of increasing orbital indices) and the
    antisymmetrized tensor A over those orbitals: one dense update
    s s^T * A[p, q, p', q'] per shared (n-2)-remainder (module docstring).
    """
    rows, pq, sign, group = removals(det_index, 2)
    cuts = np.flatnonzero(np.diff(group)) + 1
    for r, (p, q), s in zip(np.split(rows, cuts), np.split(pq.T, cuts, axis=1),
                            np.split(sign, cuts)):
        H[np.ix_(r, r)] += np.outer(s, s) * A[p[:, None], q[:, None], p, q]


class BlockBasis:
    """Determinant basis of a fixed-occupation block.

    orbitals lists the (piece, k), k <= M, of the pieces with Q_j > 0 in
    (piece, k) order; det_index is the (dim, n) array of each determinant's
    increasing indices into it.  The basis is the product over pieces of the
    Q_j-subsets of the first M local levels, the first piece varying
    slowest.
    """

    def __init__(self, intervals, Q, M):
        self.intervals = [(float(a), float(l)) for a, l in intervals]
        self.Q = tuple(int(q) for q in Q)
        self.M = int(M)
        if len(self.Q) != len(self.intervals):
            raise ValueError("occupation length != piece count")
        dim = 1
        for q in self.Q:
            if q > self.M:
                raise ValueError("occupation exceeds local truncation")
            dim *= math.comb(self.M, q)
        if dim > _DIMENSION_CAP:
            raise ValueError(
                "block dimension %d exceeds cap %d for Q=%s"
                % (dim, _DIMENSION_CAP, self.Q)
            )
        occ = [j for j, q in enumerate(self.Q) if q > 0]
        self.orbitals = [(j, k) for j in occ for k in range(1, self.M + 1)]
        det = np.zeros((1, 0), dtype=np.intp)
        for a, j in enumerate(occ):
            part = np.array(list(itertools.combinations(range(self.M), self.Q[j])),
                            dtype=np.intp) + self.M * a
            det = np.hstack([np.repeat(det, len(part), axis=0),
                             np.tile(part, (len(det), 1))])
        self.det_index = det
        self.lengths = np.array([l for _, l in self.intervals])

    @property
    def dim(self):
        return len(self.det_index)

    @property
    def n(self):
        return sum(self.Q)

    @property
    def determinants(self):
        """The determinants as tuples of (piece, k) orbitals."""
        return [tuple(self.orbitals[i] for i in row) for row in self.det_index.tolist()]

    def hamiltonian(self, U):
        """Block Hamiltonian: kinetic diagonal plus sum_{i<j} U(x_i - x_j),
        the pair interaction added by grouped pair removal (U None: the
        kinetic diagonal alone)."""
        ks = np.array([k for _, k in self.orbitals], dtype=float)
        ls = self.lengths[[j for j, _ in self.orbitals]]
        eps = np.pi ** 2 * ks ** 2 / ls ** 2
        H = np.diag(eps[self.det_index].sum(1))
        if self.n < 2:
            return H
        _add_pair_interaction(H, self.det_index,
                              _antisymmetrized(self.intervals, self.Q, U, self.M))
        return H


class CIState:
    """Normalized eigenstate in a BlockBasis: determinant coefficients."""

    def __init__(self, basis, coeffs, energy):
        self.basis = basis
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.energy = float(energy)
        nrm = np.linalg.norm(self.coeffs)
        if abs(nrm - 1.0) > 1e-9:
            self.coeffs = self.coeffs / nrm

    @property
    def n(self):
        return sum(self.basis.Q)


def solve_block(intervals, Q, U, M=12, n_states=2):
    """Lowest eigenpairs of the Hamiltonian restricted to occupation Q."""
    basis = BlockBasis(intervals, Q, M)
    w, v = _lowest_eigenpairs(basis.hamiltonian(U), min(n_states, basis.dim))
    return w, [CIState(basis, v[:, i], w[i]) for i in range(v.shape[1])]


def block_overlap(intervals, state_a, U, state_b, M=None):
    """<Psi_a, W Psi_b> with W = sum_{i<j} U(x_i - x_j) (kinetic part
    excluded), by grouped pair removal over the quadrature g integrals.

    Both states' determinants are mapped onto one orbital list, (piece, k)
    with k <= M over the pieces either state occupies, and W is assembled
    over their distinct determinants.  The states may belong to different
    occupation blocks of the same configuration; cross-occupation values
    vanish (each contributing integral has a pointwise-zero integrand),
    which this computes rather than assumes.
    """
    if state_a.n != state_b.n:
        raise ValueError("particle numbers differ")
    M = M or max(state_a.basis.M, state_b.basis.M)
    if M < max(state_a.basis.M, state_b.basis.M):
        raise ValueError("M is below a state's local truncation")
    Q = np.maximum(state_a.basis.Q, state_b.basis.Q)
    occ = np.flatnonzero(Q)
    dets = []
    for basis in (state_a.basis, state_b.basis):
        piece, k = np.array(basis.orbitals).T
        dets.append((M * np.searchsorted(occ, piece) + k - 1)[basis.det_index])
    rows, at = np.unique(np.vstack(dets), axis=0, return_inverse=True)
    ca, cb = np.zeros(len(rows)), np.zeros(len(rows))
    ca[at[:state_a.basis.dim]] = state_a.coeffs
    cb[at[state_a.basis.dim:]] = state_b.coeffs
    W = np.zeros((len(rows), len(rows)))
    if state_a.n >= 2:
        _add_pair_interaction(W, rows, _antisymmetrized(intervals, Q, U, M))
    return float(ca @ W @ cb)


def exact_ground_state_small(intervals, n, U, M=10):
    """Exact ground state over all occupations, for n <= 4, few pieces.

    The blocks are the occupations with at most min(n, 3) particles per
    piece (ValueError if none exists).  Each block's free filling energy
    bounds its energy from below (U >= 0), so the blocks are visited in
    ascending free energy (a stable sort: exact ties keep lexicographic
    order) and the visit stops at the first block whose free energy
    exceeds the best energy found + 1e-10, the tie tolerance.  Returns
    (energy, Q, CIState, gap) with the gap to the winning block's second
    level.  Energies within 1e-10 go to the lexicographically smallest
    occupation.
    """
    if n > 4:
        raise ValueError("exact solver limited to n <= 4")
    if len(intervals) > 8:
        raise ValueError("too many pieces; prune first")
    lengths = np.array([l for _, l in intervals])
    cap = min(n, 3)
    occs = enumerate_occupations(len(intervals), n, cap)
    if not occs:
        raise ValueError("no occupation of n = %d over %d pieces fits the "
                         "per-piece cap %d" % (n, len(intervals), cap))
    free = [free_occupation_energy(lengths, Q) for Q in occs]
    best = None
    for i in np.argsort(free, kind="stable"):
        Q = occs[i]
        if best is not None and free[i] > best[0] + 1e-10:
            break
        w, states = solve_block(intervals, Q, U, M=M, n_states=2)
        gap = float(w[1] - w[0]) if len(w) > 1 else np.inf
        cand = (float(w[0]), Q, states[0], gap)
        if best is None or cand[0] < best[0] - 1e-10:
            best = cand
        elif abs(cand[0] - best[0]) <= 1e-10 and Q < best[1]:
            best = cand
    return best
