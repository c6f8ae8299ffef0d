"""The lowest eigenpairs of a dense symmetric matrix with a positive diagonal.

Both eigenproblems of the package have this form: a two-body refinement
stage (kinetic diagonal plus the pair matrix, twobody.py) and an occupation
block (kinetic diagonal plus <D|W|D> >= 0, manybody.py).  Both take their
lowest eigenpairs from _lowest_eigenpairs, under one stopping rule.  A
small matrix takes one dense np.linalg.eigh, every other one a block LOBPCG
whose Ritz problems are again np.linalg.eigh: the module needs numpy only.
"""

import numpy as np

# From this dimension on a matrix takes the iteration: for an occupation
# block (k = 2) that is where the two break even.  np.linalg.eigh has no
# subset option and computes every pair.  One BLAS thread, best of 15,
# dense against the iteration, leading sub-blocks in diagonal order: for a
# block 0.29 against 0.68-0.71 ms at dim 64, 0.66-0.68 against 0.74-0.82 at
# 96, 0.84-0.87 against 0.80-0.84 at 112, 1.19-1.21 against 0.85-0.86 at
# 128, 2.73-2.81 against 1.01-1.06 at 200; for a two-body stage (k = 1)
# 0.29 against 0.42-0.44 ms at 64, 0.64-0.65 against 0.46-0.47 at 96,
# 1.74-1.81 against 0.56-0.58 at 160.  Every two-body stage has at least
# 144 pairs.  A LAPACK solver of the lowest k pairs only (syevr) is no
# better: the iteration took 0.56 against 0.55 ms at dim 148, 0.58 against
# 0.64 at 160, 1.11 against 1.21 at 216 (k = 2) and 1.24 against 2.94 at
# 336.  Larger problems gain more (a dense eigh against the iteration:
# 10.7 against 4.1 ms at dim 504, 102 against 16 ms at 1008, 93.5 against
# 22.4 ms for a block of dim 1000).
_ITERATIVE_DIM = 112
_MAX_ITER = 200  # LOBPCG iterations before it raises ArithmeticError


def _lowest_eigenpairs(H, k):
    """The k lowest eigenpairs (w ascending, v columns) of a dense
    symmetric H with a positive diagonal d.

    Below _ITERATIVE_DIM, or below 3 (k + 2) where the block does not fit,
    this is the dense np.linalg.eigh.  From there on it is block LOBPCG
    (Knyazev 2001) with block size k + 2, the two extra columns guarding
    against a near-degenerate k-th level.  The block starts at the unit
    vectors of the k + 2 smallest diagonal entries (stable argsort) and is
    preconditioned by R / (d - 0.9 min d).  Each iteration orthonormalises
    [X, W, P] by QR and takes the lowest Ritz pairs in that basis; P, the
    component of the new X outside the old X, is the step just taken.  It
    stops when the k wanted residual norms are at most 1e-14 max|d|, and
    raises ArithmeticError after _MAX_ITER iterations.
    """
    n = len(H)
    m = k + 2
    if n < max(_ITERATIVE_DIM, 3 * m):
        w, v = np.linalg.eigh(H)
        return w[:k], v[:, :k]
    d = H.diagonal()
    X = np.zeros((n, m))
    X[np.argsort(d, kind="stable")[:m], np.arange(m)] = 1.0
    precond = 1.0 / (d - 0.9 * d.min())
    tol = 1e-14 * np.abs(d).max()
    basis = X
    for _ in range(_MAX_ITER):
        Q = np.linalg.qr(basis)[0]
        HQ = H @ Q
        theta, C = np.linalg.eigh(Q.T @ HQ)
        theta, C = theta[:m], C[:, :m]
        X = Q @ C
        R = HQ @ C - X * theta
        if np.linalg.norm(R[:, :k], axis=0).max() <= tol:
            return theta[:k], X[:, :k]
        parts = [X, R * precond[:, None]]
        if Q.shape[1] > m:  # Q[:, :m] spans the old X
            parts.append(Q[:, m:] @ C[m:])
        basis = np.hstack(parts)
    raise ArithmeticError("LOBPCG did not converge in %d iterations at "
                          "dimension %d" % (_MAX_ITER, n))
