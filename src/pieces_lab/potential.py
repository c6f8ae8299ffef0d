"""Repulsive even pair-interaction potentials and their tail functionals.

All built-in families are bounded, even, non-negative.  The tail functional

    Z(x) = sup_{v >= x} v^3 * int_v^inf U(t) dt

controls every remainder term downstream; the admissibility condition is
Z(x) -> 0 as x -> infinity together with finite moments int |u|^k U du,
k <= 3.

Potentials are value objects: every family but TabulatedPotential is a
frozen dataclass, equal and hashed by its parameters, so the caches of
moments, two-body solves and pair-energy splines are keyed by value.  A
table is keyed by identity.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InteractionPotential",
    "BoxPotential",
    "ExponentialPotential",
    "PolynomialPotential",
    "TabulatedPotential",
    "tail_Z",
    "f_Z",
    "split_principal",
    "check_HU",
    "potential_from_spec",
]


class InteractionPotential:
    """Base class: even, non-negative pair potential U.

    Subclasses provide __call__ (vectorized, via |u|), tail_integral(v) =
    int_v^inf U for v >= 0, support_radius (None if unbounded), breakpoints()
    (kink positions in u > 0, for quadrature panels), and scaled(amp, xscale)
    returning the same family with U'(u) = amp * U(u / xscale).
    """

    family = "generic"
    support_radius = None

    def __call__(self, u):
        raise NotImplementedError

    def tail_integral(self, v):
        raise NotImplementedError

    def breakpoints(self):
        return []

    def scaled(self, amp, xscale):
        raise NotImplementedError

    def scale_mu(self, mu):
        """U^mu(u) = mu^-2 * U(u/mu): the potential in mu-rescaled units."""
        if mu <= 0:
            raise ValueError("mu must be positive")
        return self.scaled(mu ** -2, mu)

    @functools.cache
    def moment(self, k):
        """int |u|^k U(u) du over the line, cached by (potential, k)."""
        return self._moment(k)

    def _moment(self, k):
        # numeric fallback: 2 * int_0^R u^k U du with panel breakpoints
        from scipy.integrate import quad
        R = self.effective_radius(1e-14)
        pts = [b for b in self.breakpoints() if 0 < b < R]
        val, _ = quad(lambda u: u ** k * self(u), 0.0, R,
                      points=pts or None, limit=300, epsabs=1e-13, epsrel=1e-11)
        return 2.0 * val

    def effective_radius(self, tol):
        """Radius beyond which the tail integral is below tol (absolute)."""
        if self.support_radius is not None:
            return self.support_radius
        R = 1.0
        while self.tail_integral(R) > tol and R < 1e9:
            R *= 2.0
        return R


@dataclass(frozen=True)
class BoxPotential(InteractionPotential):
    """U = height on |u| <= radius, else 0."""

    height: float = 1.0
    radius: float = 1.0
    family = "box"

    def __post_init__(self):
        if self.height < 0 or self.radius <= 0:
            raise ValueError("height must be >= 0, radius > 0")

    @property
    def support_radius(self):
        return self.radius

    def __call__(self, u):
        u = np.abs(np.asarray(u, dtype=np.float64))
        return np.where(u <= self.radius, self.height, 0.0)

    def tail_integral(self, v):
        return self.height * max(0.0, self.radius - v)

    def breakpoints(self):
        return [self.radius]

    def scaled(self, amp, xscale):
        return BoxPotential(amp * self.height, xscale * self.radius)

    def _moment(self, k):
        return 2.0 * self.height * self.radius ** (k + 1) / (k + 1)


@dataclass(frozen=True)
class ExponentialPotential(InteractionPotential):
    """U = amplitude * exp(-rate*|u|)."""

    amplitude: float = 1.0
    rate: float = 1.0
    family = "exp"

    def __post_init__(self):
        if self.amplitude < 0 or self.rate <= 0:
            raise ValueError("amplitude must be >= 0, rate > 0")

    def __call__(self, u):
        u = np.abs(np.asarray(u, dtype=np.float64))
        return self.amplitude * np.exp(-self.rate * u)

    def tail_integral(self, v):
        return self.amplitude / self.rate * math.exp(-self.rate * v)

    def scaled(self, amp, xscale):
        return ExponentialPotential(amp * self.amplitude, self.rate / xscale)

    def _moment(self, k):
        return 2.0 * self.amplitude * math.factorial(k) / self.rate ** (k + 1)


@dataclass(frozen=True)
class PolynomialPotential(InteractionPotential):
    """U = amplitude * (1 + |u|/scale)^(-exponent).

    Admissible when exponent > 4 (then Z(x) ~ x^(4-exponent) -> 0); smaller
    exponents are allowed at construction so that check_HU can reject them.
    """

    amplitude: float = 1.0
    exponent: float = 5.0
    scale: float = 1.0
    family = "poly"

    def __post_init__(self):
        if self.amplitude < 0 or self.exponent <= 1 or self.scale <= 0:
            raise ValueError("need amplitude >= 0, exponent > 1, scale > 0")

    def __call__(self, u):
        u = np.abs(np.asarray(u, dtype=np.float64))
        return self.amplitude * (1.0 + u / self.scale) ** (-self.exponent)

    def tail_integral(self, v):
        p, s = self.exponent, self.scale
        return self.amplitude * s / (p - 1) * (1.0 + v / s) ** (1.0 - p)

    def scaled(self, amp, xscale):
        return PolynomialPotential(amp * self.amplitude, self.exponent,
                                   xscale * self.scale)

    def _moment(self, k):
        p, s = self.exponent, self.scale
        if p <= k + 1:
            return math.inf
        from scipy.special import beta as beta_fn
        return 2.0 * self.amplitude * s ** (k + 1) * beta_fn(k + 1, p - k - 1)


class TabulatedPotential(InteractionPotential):
    """Even potential given by linear interpolation of samples on u >= 0.

    Zero beyond the last grid point, where its support ends and the tail
    functionals vanish.  Compared and hashed by identity, so caches key a
    table by the object: its arrays have no cheap value equality.
    """

    family = "table"

    def __init__(self, u_grid, values):
        u_grid = np.asarray(u_grid, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if u_grid.ndim != 1 or u_grid.shape != values.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if u_grid[0] != 0.0 or np.any(np.diff(u_grid) <= 0):
            raise ValueError("grid must start at 0 and increase strictly")
        if np.any(values < 0):
            raise ValueError("values must be non-negative")
        self.u_grid = u_grid
        self.values = values
        self.support_radius = float(u_grid[-1])

    def __call__(self, u):
        u = np.abs(np.asarray(u, dtype=np.float64))
        return np.interp(u, self.u_grid, self.values, right=0.0)

    def tail_integral(self, v):
        u, w = self.u_grid, self.values
        mask = u >= v
        uu = np.concatenate(([v], u[mask]))
        ww = np.concatenate(([np.interp(v, u, w, right=0.0)], w[mask]))
        return float(np.trapezoid(ww, uu))

    def breakpoints(self):
        return list(self.u_grid[1:])

    def scaled(self, amp, xscale):
        return TabulatedPotential(xscale * self.u_grid, amp * self.values)

    def __repr__(self):
        return f"TabulatedPotential(n={len(self.u_grid)}, max_u={self.u_grid[-1]})"


@dataclass(frozen=True)
class TruncatedPotential(InteractionPotential):
    """U restricted to |u| <= cutoff (the principal part of a split)."""

    base: InteractionPotential
    cutoff: float
    family = "truncated"

    def __post_init__(self):
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")

    @property
    def support_radius(self):
        if self.base.support_radius is None:
            return self.cutoff
        return min(self.base.support_radius, self.cutoff)

    def __call__(self, u):
        u = np.asarray(u, dtype=np.float64)
        return np.where(np.abs(u) <= self.cutoff, self.base(u), 0.0)

    def tail_integral(self, v):
        if v >= self.cutoff:
            return 0.0
        return self.base.tail_integral(v) - self.base.tail_integral(self.cutoff)

    def breakpoints(self):
        pts = [b for b in self.base.breakpoints() if b < self.cutoff]
        return sorted(pts + [self.cutoff])

    def scaled(self, amp, xscale):
        return TruncatedPotential(self.base.scaled(amp, xscale),
                                  xscale * self.cutoff)


@dataclass(frozen=True)
class ResidualPotential(InteractionPotential):
    """U restricted to |u| > cutoff (the residual part of a split)."""

    base: InteractionPotential
    cutoff: float
    family = "residual"

    @property
    def support_radius(self):
        return self.base.support_radius

    def __call__(self, u):
        u = np.asarray(u, dtype=np.float64)
        return np.where(np.abs(u) > self.cutoff, self.base(u), 0.0)

    def tail_integral(self, v):
        return self.base.tail_integral(max(v, self.cutoff))

    def breakpoints(self):
        pts = [b for b in self.base.breakpoints() if b > self.cutoff]
        return sorted([self.cutoff] + pts)

    def scaled(self, amp, xscale):
        return ResidualPotential(self.base.scaled(amp, xscale),
                                 xscale * self.cutoff)


def tail_Z(U, x):
    """Z(x) = sup over v >= x of v^3 * int_v^inf U.

    Max over a geometric grid, refined by a bounded scalar minimization
    around the best grid point.  Exactly 0 past a compact support.
    """
    if x < 0:
        raise ValueError("x must be non-negative")
    R = U.support_radius
    if R is not None and x >= R:
        return 0.0
    v_hi = R if R is not None else max(10.0 * U.effective_radius(1e-14), 10.0)
    v_hi = max(v_hi, x * 1.0001 + 1.0)
    v_lo = max(x, 1e-9)
    grid = np.geomspace(v_lo, v_hi, 200)
    vals = np.array([v ** 3 * U.tail_integral(v) for v in grid])
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    if hi > lo:
        from scipy.optimize import minimize_scalar
        res = minimize_scalar(lambda v: -v ** 3 * U.tail_integral(v),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-10})
        return max(float(vals[i]), float(-res.fun))
    return float(vals[i])


def f_Z(U, X):
    """min over alpha in [0,1] of alpha*(Z(0)-Z(alpha X)) + Z(alpha X).

    The weight alpha^(1-eps) at eps = 0 is correct whenever Z decays
    polynomially or faster, which holds for every built-in family.
    """
    if X <= 0:
        raise ValueError("X must be positive")
    Z0 = tail_Z(U, 0.0)
    if Z0 == 0.0:
        return 0.0

    def obj(alpha):
        z = tail_Z(U, alpha * X)
        return alpha * (Z0 - z) + z

    alphas = np.concatenate(([0.0], np.geomspace(1e-8, 1.0, 60)))
    vals = np.array([obj(a) for a in alphas])
    i = int(np.argmin(vals))
    lo = alphas[max(i - 1, 0)]
    hi = alphas[min(i + 1, len(alphas) - 1)]
    best = float(vals[i])
    if hi > lo:
        from scipy.optimize import minimize_scalar
        res = minimize_scalar(obj, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-8})
        best = min(best, float(res.fun))
    return min(best, Z0)


def split_principal(U, B, ell_rho):
    """Split U into principal part U*1_{|u|<=B*ell_rho} and the residual."""
    if B <= 2:
        raise ValueError("B must exceed 2")
    cutoff = B * ell_rho
    return TruncatedPotential(U, cutoff), ResidualPotential(U, cutoff)


def check_HU(U):
    """Admissibility report: finite moments k <= 3 and decaying tail Z.

    Z is sampled on a geometric grid up to 1000; the check requires the
    final value to drop below 10% of the peak (or vanish identically).
    """
    report = {}
    moments = {k: U.moment(k) for k in range(4)}
    report["moments"] = moments
    report["moments_finite"] = all(math.isfinite(m) for m in moments.values())
    xs = np.geomspace(1.0, 1e3, 25)
    zs = np.array([tail_Z(U, x) for x in xs])
    z0 = tail_Z(U, 0.0)
    report["Z0"] = z0
    report["Z_tail"] = float(zs[-1])
    report["Z_decays"] = bool(z0 == 0.0 or zs[-1] <= 0.1 * max(z0, zs.max()))
    if U.family == "poly":
        report["Z_decays"] = report["Z_decays"] and U.exponent > 4
    report["ok"] = report["moments_finite"] and report["Z_decays"]
    if not report["ok"]:
        bad = []
        if not report["moments_finite"]:
            bad.append("non-finite moment")
        if not report["Z_decays"]:
            bad.append(f"Z does not decay: Z({xs[-1]:g}) = {zs[-1]:.3g}")
        report["failures"] = bad
    return report


def potential_from_spec(text):
    """Parse a potential spec string, e.g. 'box height=1 radius=1'."""
    parts = text.split()
    if not parts:
        raise ValueError("empty potential spec")
    family, kv = parts[0], parts[1:]
    params = {}
    for item in kv:
        if "=" not in item:
            raise ValueError(f"malformed potential parameter: {item!r}")
        key, val = item.split("=", 1)
        params[key] = float(val)
    if family == "box":
        return BoxPotential(params.get("height", 1.0), params.get("radius", 1.0))
    if family == "exp":
        return ExponentialPotential(params.get("amplitude", 1.0),
                                    params.get("rate", 1.0))
    if family == "poly":
        return PolynomialPotential(params.get("amplitude", 1.0),
                                   params.get("exponent", 5.0),
                                   params.get("scale", 1.0))
    raise ValueError(f"unknown potential family: {family!r}")
