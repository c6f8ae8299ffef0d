"""Reduced density matrices of explicit few-fermion states.

All RDMs are computed by coefficient contraction in orthonormal mode bases
(piece-tagged sine levels).  Order-1 matrices are indexed by modes
(piece, k); order-2 matrices by ordered mode pairs (p < q in the canonical
mode order).  A CIState's RDMs come from grouped orbital removal; a
TwoBodySolution's in closed form: its 1-RDM is one_body_rdm() and its
2-RDM the outer product c c^T of its pair coefficients.
"""

import numpy as np

from .manybody import removals
from .twobody import TwoBodySolution

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

    def __init__(self, modes, matrix):
        self.modes = list(modes)
        self.matrix = np.asarray(matrix, dtype=float)
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


def rdm1(state):
    """One-particle RDM gamma[p, r] = <a^dag_r a_p> by contraction."""
    if hasattr(state, "basis"):
        return _grouped_rdm(state, 1)
    return DensityMatrix(_pair_modes(state), state.one_body_rdm())


def pair_index(modes):
    """Canonical ordered mode pairs (p < q) for an order-2 basis."""
    return [(p, q) for i, p in enumerate(modes) for q in modes[i + 1:]]


def _pair_position(p, q, m):
    """Position of the pair of mode positions p < q in pair_index order over
    m modes."""
    return p * m - p * (p + 1) // 2 + q - p - 1


def _pair_modes(state):
    """The modes (0, k), k = 1..M, of a TwoBodySolution."""
    if not isinstance(state, TwoBodySolution):
        raise TypeError("state must be a CIState or TwoBodySolution")
    return [(0, k) for k in range(1, state.M + 1)]


def rdm2(state):
    """Two-particle RDM gamma2[(p,q),(r,s)] = <a^dag_r a^dag_s a_q a_p>,
    pairs ordered p < q; trace n(n-1)/2."""
    if hasattr(state, "basis"):
        return _grouped_rdm(state, 2)
    modes = _pair_modes(state)
    i, j = (np.array(state.pairs) - 1).T
    c = np.zeros(len(modes) * (len(modes) - 1) // 2)
    c[_pair_position(i, j, len(modes))] = state.coeffs
    return DensityMatrix(pair_index(modes), np.outer(c, c))


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
        labels, col = pair_index(modes), _pair_position(*removed.T, len(modes))
    X = np.zeros((group.max() + 1 if len(group) else 0, len(labels)))
    X[group, col] = sign * state.coeffs[rows]
    return DensityMatrix(labels, X.T @ X)


def antisymmetrized_product(gamma, modes):
    """Pair-basis matrix of (1/2)(Id - Ex)[gamma (x) gamma]:
    A[(p,q),(r,s)] = gamma_pr gamma_qs - gamma_ps gamma_qr.

    For a rank-k projector this is exactly the 2-RDM of the corresponding
    Slater determinant.
    """
    G = np.asarray(gamma, dtype=float)
    p, q = np.triu_indices(len(modes), 1)  # pair_index order
    out = (G[np.ix_(p, p)] * G[np.ix_(q, q)]
           - G[np.ix_(p, q)] * G[np.ix_(q, p)])
    return DensityMatrix(pair_index(modes), out)


def factorized_rdm(substates):
    """(rdm1, rdm2) of the wedge of non-interacting sub-states on disjoint
    pieces, from the sub-state RDMs alone:

        gamma = sum_j gamma_j  (block diagonal)
        gamma2 = sum_j [gamma2_j - A(gamma_j)] + A(gamma)

    with A the antisymmetrized product.  For one-particle sub-states
    gamma2_j = A(gamma_j) = 0.
    """
    g1s = [rdm1(s) for s in substates]
    seen = set()
    for g1 in g1s:
        pieces = {j for (j, _) in g1.modes}
        if pieces & seen:
            raise ValueError("sub-states share a piece")
        seen |= pieces
    # the sub-states' modes are disjoint and contiguous in the joint order:
    # sub-state j's pair (a, b) is the joint pair (o_j + a, o_j + b)
    modes = [m for g1 in g1s for m in g1.modes]
    offsets = np.cumsum([0] + [len(g1.modes) for g1 in g1s])
    G = np.zeros((len(modes), len(modes)))  # block diagonal
    for o, g1 in zip(offsets, g1s):
        G[o:o + len(g1.modes), o:o + len(g1.modes)] = g1.matrix
    total = antisymmetrized_product(G, modes)
    M2 = total.matrix.copy()
    for o, s, g1 in zip(offsets, substates, g1s):
        a, b = np.triu_indices(len(g1.modes), 1)
        pos = _pair_position(o + a, o + b, len(modes))
        idx = np.ix_(pos, pos)
        M2[idx] -= antisymmetrized_product(g1.matrix, g1.modes).matrix
        M2[idx] += rdm2(s).matrix
    return DensityMatrix(modes, G), DensityMatrix(total.modes, M2)


def trace_norm_distance(A, B):
    """|| A - B ||_tr of two matrices via singular values."""
    D = np.asarray(A) - np.asarray(B)
    if D.size == 0:
        return 0.0
    return float(np.linalg.svd(D, compute_uv=False).sum())


def coefficient_distance_bound(psi, phi):
    """The trace-norm comparison bound: ||gamma_psi - gamma_phi||_1 is at
    most 4 ||psi - phi|| for normalized two-body coefficient vectors."""
    psi, phi = np.asarray(psi, dtype=float), np.asarray(phi, dtype=float)
    return 4.0 * np.linalg.norm(psi - phi)
