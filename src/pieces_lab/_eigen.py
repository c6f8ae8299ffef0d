"""The lowest eigenpairs of a dense symmetric matrix with a positive diagonal.

Both eigenproblems of the package have this form: a two-body refinement
stage (kinetic diagonal plus the pair matrix, twobody.py) and an occupation
block (kinetic diagonal plus <D|W|D> >= 0, manybody.py).  Both take their
lowest eigenpairs from _lowest_eigenpairs, under one stopping rule.
"""

import numpy as np
from scipy.linalg import eigh

# Below this dimension a matrix keeps eigh, and its exact numbers.  For a
# block the iteration breaks even near dim 200 and saves under 4 ms up to
# 400 (one BLAS thread, best of 7: eigh 2.4 against 2.2 ms at dim 216, 5.6
# against 2.2 ms at 361), against 71 ms at dim 1000 (93.5 against 22.4 ms).
# A two-body stage gains from dim 400 on as well (one BLAS thread, best of
# 15: eigh against the iteration 10.7 against 4.1 ms at dim 504, 13.2
# against 5.9 ms at 536, 102 against 16 ms at 1008).  A whole solve, best
# of 7 in each of two runs, took 38-57 against 30-32 ms (box ell 40.8),
# 210-266 against 121-137 ms (box ell 80) and 1.24-1.51 against 0.60 s
# (box ell 160); at exp ell 40, 65-108 against 68-69 ms, within the noise.
_ITERATIVE_DIM = 400
_MAX_ITER = 200  # LOBPCG iterations before it raises ArithmeticError


def _lowest_eigenpairs(H, k):
    """The k lowest eigenpairs (w ascending, v columns) of a dense
    symmetric H with a positive diagonal d.

    Below _ITERATIVE_DIM this is eigh(subset_by_index).  From there on it
    is block LOBPCG (Knyazev 2001) with block size k + 2, the two extra
    columns guarding against a near-degenerate k-th level.  The block
    starts at the unit vectors of the k + 2 smallest diagonal entries
    (stable argsort) and is preconditioned by R / (d - 0.9 min d).  Each
    iteration orthonormalises [X, W, P] by QR and takes the lowest Ritz
    pairs in that basis; P, the component of the new X outside the old X,
    is the step just taken.  It stops when the k wanted residual norms are
    at most 1e-14 max|d|, and raises ArithmeticError after _MAX_ITER
    iterations.
    """
    n = len(H)
    if n < _ITERATIVE_DIM:
        return eigh(H, subset_by_index=[0, k - 1])
    d = H.diagonal()
    m = k + 2
    X = np.zeros((n, m))
    X[np.argsort(d, kind="stable")[:m], np.arange(m)] = 1.0
    precond = 1.0 / (d - 0.9 * d.min())
    tol = 1e-14 * np.abs(d).max()
    basis = X
    for _ in range(_MAX_ITER):
        Q = np.linalg.qr(basis)[0]
        HQ = H @ Q
        theta, C = eigh(Q.T @ HQ)
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
