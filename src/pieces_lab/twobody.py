"""Two interacting fermions on an interval [0, ell].

Galerkin solve in the antisymmetric free basis

    phi_(i,j)(x, y) = (s_i(x) s_j(y) - s_j(x) s_i(y)) / sqrt(2),  i < j,

with s_k the normalized Dirichlet sine modes.  The kinetic part is diagonal
(pi^2 (i^2 + j^2) / ell^2); the interaction matrix <U phi_ij, phi_kl> is
quadrature.pair_reduced_matrix.  The large-ell expansion of the ground
energy,

    E0(ell) = 5 pi^2 / ell^2 + gamma / ell^3 + O(ell^-4),

defines the interaction constant gamma, recovered here by two independent
routes: a Richardson fit in ell, and the closed-form resolvent expression

    gamma = (5 pi^2 / 2) <phi, (I + K/4)^-1 phi>

with phi(u) = u sqrt(U(u)) and the kernel
K(u,u') = (1/2) sqrt(U(u)) (|u+u'| - |u-u'|) sqrt(U(u')).  The prefactor and
the 1/4 on the kernel come from the squared norm of the limiting transverse
profile, chi(y) = 2 sqrt(2) pi sin^3(pi y), whose L^2 norm is (5/2) pi^2;
both routes then agree to O(1/ell) (box family: 13.713 vs 13.72 at
ell <= 160), and the weak-coupling slope is (5 pi^2 / 2) * int u^2 U(u) du,
matching first-order perturbation theory for the pair ground state.

Every potential is even, so H commutes with the reflection
(x, y) -> (ell - x, ell - y).  Since s_k(ell - x) = (-1)^(k+1) s_k(x), the
pair state phi_(i,j) picks up the sign (-1)^(i+j), and <U phi_ij, phi_kl>
vanishes unless i + j and k + l have the same parity: the two sectors
decouple.  The ground state lies in the odd sector: on the triangle x < y
it is the positive, nondegenerate ground state of that triangle, hence even
under the triangle's mirror (x, y) -> (ell - y, ell - x), which is the
reflection followed by the exchange, and the exchange gives -1.  The
solver therefore assembles and diagonalizes the odd sector only (pairs
with j - i odd, phi_(1,2) first): half the basis of both sectors.  Of the
odd sector's interaction matrix a refinement stage builds only the
columns of its sub-basis, the only ones its eigensolve and second-order
estimate read: about half of them.  The stage's ground pair on the
sub-basis comes from _eigen._lowest_eigenpairs, the eigensolver of the
occupation blocks too: a dense eigh below dimension 112, a block LOBPCG
from 112 on.  Its sign makes the phi_(1,2) coefficient non-negative.

Solves are cached by value: potentials are value objects (see
potential.py), so equal potentials at the same (ell, M, rtol) share one
TwoBodySolution, and _solve.cache_info() counts hits and misses.
"""

import functools
import time
from typing import NamedTuple

import numpy as np

from ._eigen import _lowest_eigenpairs
from .quadrature import _leggauss, pair_reduced_matrix

__all__ = [
    "TwoBodySolution",
    "solve_two_body",
    "gamma_via_fit",
    "gamma_via_K",
    "astar_xstar",
]


def band_pair_list(M, D, K):
    """Corner-plus-band pair set in the odd reflection sector: all (i, j)
    with i < j, j - i odd, and either j <= M (full corner) or j - i <= D
    with j <= K (near-diagonal band).

    The interacting ground state is phi_(1,2) plus a short-range correlation
    correction carried almost entirely by near-diagonal pairs (k, k+odd)
    with k running up to a multiple of ell, so this set reaches large
    effective mode numbers at a small fraction of the full basis size.
    Pairs with j - i even span the reflection-even sector, which an even
    U never couples to the ground state (see the module docstring).
    Listed in the (d, i) order, d = j - i, in which pair_reduced_matrix
    groups them.
    """
    return [(i, i + d) for d in range(1, K, 2)
            for i in range(1, (K if d <= D else min(K, M)) - d + 1)]


class SolveStage(NamedTuple):
    """One refinement stage of the two-body solve."""
    D: int          # band width of the stage's sub-basis
    K: int          # diagonal reach of the stage's sub-basis
    dim: int        # assembled (enlarged) basis dimension
    e0: float       # ground energy on the sub-basis
    de: float       # second-order estimate of the enlarged basis's gain
    seconds: float  # wall time of the stage


class TwoBodySolution:
    """Ground state of the two-fermion problem on [0, ell].

    The state is odd under the reflection (x, y) -> (ell - x, ell - y), so
    its basis is the odd sector of band_pair_list: every (i, j) there has
    j - i odd.  Its even-sector coefficients vanish identically and are not
    stored.

    Attributes:
        ell: interval length.
        pairs: the band basis, pairs (i, j) with i < j and j - i odd.
        M: largest mode of the basis, which is the reach of the last
            stage's enlarged basis, not solve_two_body's corner M: M = 12
            at ell 6 or 9 gives 56, the mode count of rdm1(sol).
        energy: ground energy.
        coeffs: coefficient vector over pairs, normalized, with the
            phi_(1,2) component made non-negative.
        residual: second-order estimate of the energy the enlarged basis
            of the last stage would add.
        trace: the solve's SolveStage records, first stage first; empty for
            a hand-built solution.
    """

    def __init__(self, ell, pairs, energy, coeffs, residual, trace=()):
        self.ell = ell
        self.pairs = list(pairs)
        self.M = max(j for _, j in self.pairs)
        self.energy = energy
        self.coeffs = coeffs
        self.residual = residual
        self.trace = tuple(trace)
        self._rdm1 = None

    def one_body_rdm(self):
        """1-RDM matrix in the sine-mode basis (trace 2), built on first use
        and returned read-only: 2 A A^T, with A the antisymmetric matrix of
        the pair state, zeta(x,y) = sum_ab A[a,b] s_{a+1}(x) s_{b+1}(y)."""
        if self._rdm1 is None:
            i, j = (np.array(self.pairs) - 1).T
            A = np.zeros((self.M, self.M))
            A[i, j] = self.coeffs / np.sqrt(2.0)
            A[j, i] = -self.coeffs / np.sqrt(2.0)
            self._rdm1 = 2.0 * A @ A.T
            self._rdm1.flags.writeable = False
        return self._rdm1


def _ground_state(H):
    w, v = _lowest_eigenpairs(H, 1)
    c = v[:, 0]
    if c[0] < 0:  # pair (1,2) is first in (d, i) order
        c = -c
    return float(w[0]), c


# largest dense V over a refinement stage's enlarged basis, in bytes: 2 GiB,
# 16384 pairs.  The stage builds only the sub-basis columns of that V (about
# half) and copies them into the sub-block and the rows outside it
_MAX_V_BYTES = 2 << 30


def solve_two_body(U, ell, M=24, rtol=1e-6):
    """Converged Galerkin ground state in a corner-plus-band pair basis.

    Each refinement stage assembles H once on the enlarged basis (band
    width D+4, diagonal reach 1.4K) and compares its ground energy with the
    nested (D, K) sub-basis; converged when the relative change is below
    rtol.  Raises ArithmeticError, before assembling anything, at the first
    stage whose dense V on the enlarged basis would exceed _MAX_V_BYTES.
    The default tolerance balances the slow sine-basis tail of
    discontinuous potentials against dense-eigensolve cost; it bounds the
    error of the derived interaction constant by ~0.2%, well inside every
    downstream tolerance.
    """
    if not 0 < ell < np.inf:
        raise ValueError("ell must be positive and finite")
    if M < 4:
        raise ValueError("M must be at least 4")
    # a stage converges when de <= rtol |e0|, which rtol <= 0 or nan never
    # meets: the basis would grow until the dimension cap
    if not 0 < rtol < np.inf:
        raise ValueError("rtol must be positive and finite")
    # normalized before the cache, so that ell=6 and ell=6.0 (or a numpy
    # scalar) and defaulted or spelled-out M, rtol hit the same entry
    return _solve(U, float(ell), int(M), float(rtol))


@functools.cache
def _solve(U, ell, M, rtol):
    D = 8
    K = int(max(M + 8, 40, 3.0 * ell))
    trace = []
    while True:
        t0 = time.perf_counter()
        K_big = int(np.ceil(1.4 * K))
        pairs = band_pair_list(M, D + 4, K_big)
        if 8 * len(pairs) ** 2 > _MAX_V_BYTES:
            raise ArithmeticError(
                f"two-body solve did not converge within dimension cap: "
                f"stage (D, K) = ({D}, {K}) needs {len(pairs)} pairs, a "
                f"{8 * len(pairs) ** 2 / 2 ** 30:.1f} GiB dense V over the "
                f"{_MAX_V_BYTES / 2 ** 30:.0f} GiB cap; stages so far: {trace}")
        ij = np.array(pairs)
        i, j = ij.T
        free = np.pi ** 2 * (i * i + j * j) / ell ** 2
        sub = (j <= M) | ((j - i <= D) & (j <= K))
        comp = ~sub
        # only the sub-basis columns of V are read
        V = pair_reduced_matrix(U, ell, ij, cols=sub)
        H = V[sub]
        H[np.diag_indices_from(H)] += free[sub]
        H_comp = V[comp]
        del V
        e0, c0 = _ground_state(H)
        # second-order estimate of what the enlarged basis would add; the
        # refinement couples weakly so this is accurate at the tolerances
        # in play and avoids a dense eigensolve at the enlarged size
        r = H_comp @ c0
        denom = free[comp] - e0
        de = float(np.sum(r * r / denom))
        trace.append(SolveStage(D, K, len(pairs), e0, de,
                                time.perf_counter() - t0))
        if de <= rtol * abs(e0):
            coeffs = np.zeros(len(pairs))
            coeffs[sub] = c0
            return TwoBodySolution(ell, pairs, e0 - de, coeffs, de, trace)
        D, K = D + 4, K_big


def gamma_via_fit(U, ell_list):
    """gamma from the expansion E0 = 5 pi^2/ell^2 + gamma/ell^3 + ...

    Fits the model E0*ell^3 - 5 pi^2 ell = gamma + c/ell on the top three
    distinct ell values (Richardson step removing the next-order term); the
    lower ones are not solved.
    """
    ells = np.sort(np.asarray(ell_list, dtype=np.float64), axis=None)
    if not np.all((ells > 0) & (ells < np.inf)):
        raise ValueError("ell values must be positive and finite")
    # distinct values
    keep = np.ones(len(ells), dtype=bool)
    keep[1:] = ells[1:] != ells[:-1]
    ells = ells[keep]
    if len(ells) < 3:
        raise ValueError("need at least 3 distinct ell values")
    top = ells[-3:]
    vtop = [solve_two_body(U, ell).energy * ell ** 3 - 5.0 * np.pi ** 2 * ell
            for ell in top]
    A = np.vstack([np.ones(3), 1.0 / top]).T
    (gamma, _c), res, _, _ = np.linalg.lstsq(A, vtop, rcond=None)
    return float(gamma)


# total Gauss-Legendre nodes of gamma_via_K's grid, shared among its panels
_K_NODES = 400


def gamma_via_K(U):
    """gamma = (5 pi^2 / 2) <phi, (I + K/4)^-1 phi> on a symmetric grid over
    [-R, R], R = U.effective_radius(1e-14), of about _K_NODES nodes."""
    R = U.effective_radius(1e-14)
    # composite Gauss-Legendre: panels split at 0 and at kinks of U
    edges = sorted({0.0, R} | {b for b in U.breakpoints() if b < R})
    edges = [-e for e in reversed(edges) if e > 0] + list(edges)
    nodes, weights = [], []
    n_per = max(40, _K_NODES // max(1, len(edges) - 1))
    x, w = _leggauss(n_per)
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    u = np.concatenate(nodes)
    w = np.concatenate(weights)
    sqU = np.sqrt(np.asarray(U(u), dtype=np.float64))
    phi = u * sqU * np.sqrt(w)
    core = 0.125 * (np.abs(u[:, None] + u[None, :]) - np.abs(u[:, None] - u[None, :]))
    K = (np.sqrt(w)[:, None] * sqU[:, None]) * core * (sqU[None, :] * np.sqrt(w)[None, :])
    sol = np.linalg.solve(np.eye(len(u)) + K, phi)
    return float(2.5 * np.pi ** 2 * phi @ sol)


def astar_xstar(gamma, mu=1.0):
    """A* = mu*gamma/(8 pi^2) and x* = 1 - exp(-A*); A* = -log(1-x*).

    x* is gamma*^mu, the factor of the second-order energy correction and
    the gamma_star column of the CLI's gamma table."""
    if not (0 <= gamma < np.inf and mu > 0):
        raise ValueError("gamma must be >= 0 and finite, and mu > 0")
    A = mu * gamma / (8.0 * np.pi ** 2)
    return A, -np.expm1(-A)
