"""Reduced density matrices of explicit few-fermion states.

All RDMs are computed by coefficient contraction in orthonormal mode bases
(piece-tagged sine levels); grid evaluation exists only for densities.
Order-1 matrices are indexed by modes (piece, k); order-2 matrices by
ordered mode pairs (p < q in the canonical mode order).
"""

import itertools

import numpy as np
from scipy.linalg import svdvals

from .manybody import removals

__all__ = [
    "DensityMatrix",
    "rdm1",
    "rdm2",
    "pair_index",
    "antisymmetrized_product",
    "factorized_rdm",
    "trace_norm_distance",
    "coefficient_distance_bound",
]


class DensityMatrix:
    """Dense symmetric RDM with its mode basis.

    modes: list of (piece, k) for order 1; list of ((piece,k),(piece,k))
    ordered pairs for order 2.
    """

    def __init__(self, modes, matrix, order):
        self.modes = list(modes)
        self.matrix = np.asarray(matrix, dtype=float)
        self.order = int(order)
        if self.matrix.shape != (len(self.modes), len(self.modes)):
            raise ValueError("matrix shape does not match mode count")
        asym = np.max(np.abs(self.matrix - self.matrix.T)) if self.matrix.size else 0.0
        if asym > 1e-12 * max(1.0, np.max(np.abs(self.matrix))):
            raise ValueError("density matrix not symmetric")
        self.matrix = 0.5 * (self.matrix + self.matrix.T)

    @property
    def trace(self):
        return float(np.trace(self.matrix))

    def eigenvalues(self):
        return np.linalg.eigvalsh(self.matrix)

    def index(self, mode):
        return self.modes.index(mode)


def _mode_order(orbitals):
    return sorted(orbitals)


def _remove(det, orbs):
    rest = list(det)
    sign = 1
    for o in orbs:
        sign *= (-1) ** rest.index(o)
        rest.remove(o)
    return tuple(rest), sign


def rdm1(state):
    """One-particle RDM gamma[p, r] = <a^dag_r a_p> by contraction."""
    if hasattr(state, "basis"):
        return _grouped_rdm(state, 1)
    return _bucket_rdm(state, 1)


def pair_index(modes):
    """Canonical ordered mode pairs (p < q) for an order-2 basis."""
    return [(p, q) for i, p in enumerate(modes) for q in modes[i + 1:]]


def rdm2(state):
    """Two-particle RDM gamma2[(p,q),(r,s)] = <a^dag_r a^dag_s a_q a_p>,
    pairs ordered p < q; trace n(n-1)/2."""
    if hasattr(state, "basis"):
        return _grouped_rdm(state, 2)
    return _bucket_rdm(state, 2)


def _bucket_rdm(state, order):
    """Order-1 or order-2 RDM by dict buckets of determinants keyed by their
    (n - order)-subsets: the path for a TwoBodySolution, and the reference
    for the CIState path."""
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
    return DensityMatrix(labels, gamma, order)


def _grouped_rdm(state, order):
    """Order-1 or order-2 RDM of a CIState from its determinant index array.

    Removing `order` orbitals from every determinant and grouping by the
    remainder, each group adds the outer product (s c)(s c)^T over the
    removed modes (or mode pairs); as rows of X, the groups give X^T X.
    """
    basis = state.basis
    modes = basis.orbitals
    rows, removed, sign, group = removals(basis.det_index, order)
    if order == 1:
        labels, col = modes, removed[:, 0]
    else:
        # position of (p, q), p < q, in pair_index order
        m = len(modes)
        p, q = removed.T
        labels, col = pair_index(modes), p * m - p * (p + 1) // 2 + q - p - 1
    X = np.zeros((group.max() + 1 if len(group) else 0, len(labels)))
    X[group, col] = sign * state.coeffs[rows]
    return DensityMatrix(labels, X.T @ X, order)


def _det_amplitudes(state):
    """Normalize a state to (sorted mode list, {sorted determinant: coeff})."""
    if hasattr(state, "basis") and hasattr(state, "coeffs"):  # CIState
        modes = _mode_order(state.orbital_list())
        amps = {}
        for det, c in zip(state.basis.determinants, state.coeffs):
            if c == 0.0:
                continue
            sdet = tuple(sorted(det))
            # determinants are produced (piece, k)-sorted already
            amps[sdet] = amps.get(sdet, 0.0) + float(c)
        return modes, amps
    if hasattr(state, "pairs") and hasattr(state, "coeffs"):  # TwoBodySolution
        M = max(j for _, j in state.pairs)
        modes = [(0, k) for k in range(1, M + 1)]
        amps = {}
        for (i, j), c in zip(state.pairs, state.coeffs):
            if c == 0.0:
                continue
            amps[((0, i), (0, j))] = float(c)
        return modes, amps
    raise TypeError("state must be a CIState or TwoBodySolution")


def antisymmetrized_product(gamma, modes):
    """Pair-basis matrix of (1/2)(Id - Ex)[gamma (x) gamma]:
    A[(p,q),(r,s)] = gamma_pr gamma_qs - gamma_ps gamma_qr.

    For a rank-k projector this is exactly the 2-RDM of the corresponding
    Slater determinant.
    """
    pairs = pair_index(modes)
    midx = {m: i for i, m in enumerate(modes)}
    G = np.asarray(gamma, dtype=float)
    out = np.zeros((len(pairs), len(pairs)))
    for a, (p, q) in enumerate(pairs):
        for b, (r, s) in enumerate(pairs):
            out[a, b] = (G[midx[p], midx[r]] * G[midx[q], midx[s]]
                         - G[midx[p], midx[s]] * G[midx[q], midx[r]])
    return DensityMatrix(pairs, out, 2)


def factorized_rdm(substates):
    """(rdm1, rdm2) of the wedge of non-interacting sub-states on disjoint
    pieces, from the sub-state RDMs alone:

        gamma = sum_j gamma_j  (block diagonal)
        gamma2 = sum_j [gamma2_j - A(gamma_j)] + A(gamma)

    with A the antisymmetrized product.  For one-particle sub-states
    gamma2_j = A(gamma_j) = 0.
    """
    seen = set()
    for s in substates:
        pieces = {j for (j, _) in _det_amplitudes(s)[0]}
        if pieces & seen:
            raise ValueError("sub-states share a piece")
        seen |= pieces
    parts = [(rdm1(s), rdm2(s)) for s in substates]
    modes = [m for g1, _ in parts for m in g1.modes]
    midx = {m: i for i, m in enumerate(modes)}
    G = np.zeros((len(modes), len(modes)))
    for g1, _ in parts:
        for a, ma in enumerate(g1.modes):
            for b, mb in enumerate(g1.modes):
                G[midx[ma], midx[mb]] += g1.matrix[a, b]
    total = antisymmetrized_product(G, modes)
    pairs = total.modes
    pidx = {pq: i for i, pq in enumerate(pairs)}
    M2 = total.matrix.copy()
    for g1, g2 in parts:
        local = antisymmetrized_product(g1.matrix, g1.modes)
        for a, pa in enumerate(local.modes):
            for b, pb in enumerate(local.modes):
                M2[pidx[pa], pidx[pb]] -= local.matrix[a, b]
        for a, pa in enumerate(g2.modes):
            for b, pb in enumerate(g2.modes):
                M2[pidx[pa], pidx[pb]] += g2.matrix[a, b]
    return DensityMatrix(modes, G, 1), DensityMatrix(pairs, M2, 2)


def trace_norm_distance(A, B, P=None):
    """|| (A - B) P ||_tr via singular values."""
    MA = A.matrix if isinstance(A, DensityMatrix) else np.asarray(A)
    MB = B.matrix if isinstance(B, DensityMatrix) else np.asarray(B)
    D = MA - MB
    if P is not None:
        D = D @ P
    if D.size == 0:
        return 0.0
    return float(svdvals(D).sum())


def coefficient_distance_bound(psi, phi):
    """The trace-norm comparison bound: ||gamma_psi - gamma_phi||_1 is at
    most 4 ||psi - phi|| for normalized two-body coefficient vectors."""
    psi, phi = np.asarray(psi, dtype=float), np.asarray(phi, dtype=float)
    return 4.0 * np.linalg.norm(psi - phi)
