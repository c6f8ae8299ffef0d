"""Repulsive even pair-interaction potentials and their tail functionals.

The three families (box, exponential, polynomial decay) are bounded, even
and non-negative.  The tail functional

    Z(x) = sup_{v >= x} v^3 * int_v^inf U(t) dt

controls every remainder term downstream.

Potentials are value objects: each family is a frozen dataclass, equal and
hashed by its parameters, so the caches of two-body solves and pair-energy
interpolants are keyed by value.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InteractionPotential",
    "BoxPotential",
    "ExponentialPotential",
    "PolynomialPotential",
    "tail_Z",
    "potential_from_spec",
]


class InteractionPotential:
    """Base class: even, non-negative pair potential U.

    Subclasses provide __call__ (vectorized, via |u|), tail_integral(v) =
    int_v^inf U for v >= 0, support_radius (None if unbounded) and
    breakpoints() (kink positions in u > 0, for quadrature panels).
    """

    support_radius = None

    def breakpoints(self):
        return []

    def effective_radius(self, tol):
        """Radius beyond which the tail integral is below tol (absolute)."""
        if self.support_radius is not None:
            return self.support_radius
        R = 1.0
        while self.tail_integral(R) > tol and R < 1e9:
            R *= 2.0
        return R


# each check is written so that nan fails it
@dataclass(frozen=True)
class BoxPotential(InteractionPotential):
    """U = height on |u| <= radius, else 0."""

    height: float = 1.0
    radius: float = 1.0

    def __post_init__(self):
        if not (0 <= self.height < math.inf and 0 < self.radius < math.inf):
            raise ValueError("need 0 <= height < inf, 0 < radius < inf")

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


@dataclass(frozen=True)
class ExponentialPotential(InteractionPotential):
    """U = amplitude * exp(-rate*|u|)."""

    amplitude: float = 1.0
    rate: float = 1.0

    def __post_init__(self):
        if not (0 <= self.amplitude < math.inf and 0 < self.rate < math.inf):
            raise ValueError("need 0 <= amplitude < inf, 0 < rate < inf")

    def __call__(self, u):
        u = np.abs(np.asarray(u, dtype=np.float64))
        return self.amplitude * np.exp(-self.rate * u)

    def tail_integral(self, v):
        return self.amplitude / self.rate * math.exp(-self.rate * v)


@dataclass(frozen=True)
class PolynomialPotential(InteractionPotential):
    """U = amplitude * (1 + |u|/scale)^(-exponent).

    Z(x) ~ x^(4-exponent) decays when exponent > 4; any exponent above 1,
    where the tail integral is finite, is accepted.
    """

    amplitude: float = 1.0
    exponent: float = 5.0
    scale: float = 1.0

    def __post_init__(self):
        if not (0 <= self.amplitude < math.inf and 1 < self.exponent < math.inf
                and 0 < self.scale < math.inf):
            raise ValueError("need 0 <= amplitude < inf, 1 < exponent < inf, "
                             "0 < scale < inf")

    def __call__(self, u):
        u = np.abs(np.asarray(u, dtype=np.float64))
        return self.amplitude * (1.0 + u / self.scale) ** (-self.exponent)

    def tail_integral(self, v):
        p, s = self.exponent, self.scale
        return self.amplitude * s / (p - 1) * (1.0 + v / s) ** (1.0 - p)


def tail_Z(U, x):
    """Z(x) = sup over v >= x of v^3 * int_v^inf U.

    For each family v^3 int_v^inf U rises to one maximum and falls after
    it: at v0 = 3R/4 (box), 3/rate (exp) or 3 scale / (exponent - 4) (poly,
    exponent > 4), so Z(x) is its value at max(x, v0).  A poly tail with
    exponent 4 rises to its supremum amplitude scale^4 / 3, and one with
    exponent < 4 without bound (Z = inf); Z is 0 for a zero amplitude.
    Exactly 0 past a compact support, and at x = inf wherever v^3
    int_v^inf U tends to 0: for exp always, for poly when exponent > 4.  A
    poly tail with exponent <= 4 has no Z(inf) = 0, and x = inf raises
    ValueError for it.
    """
    if not x >= 0:
        raise ValueError("x must be non-negative")
    R = U.support_radius
    if R is not None and x >= R:
        return 0.0
    if x == np.inf:
        if (isinstance(U, PolynomialPotential) and U.exponent <= 4
                and U.amplitude > 0):
            raise ValueError("Z(inf) is not 0 for a poly exponent <= 4")
        return 0.0
    if isinstance(U, BoxPotential):
        v0 = 0.75 * R
    elif isinstance(U, ExponentialPotential):
        v0 = 3.0 / U.rate
    elif U.amplitude == 0:
        return 0.0
    elif U.exponent < 4:
        return math.inf
    elif U.exponent == 4:
        return U.amplitude * U.scale ** 4 / 3.0
    else:
        v0 = 3.0 * U.scale / (U.exponent - 4.0)
    v = max(x, v0)
    return float(v ** 3 * U.tail_integral(v))


_FAMILIES = {"box": BoxPotential, "exp": ExponentialPotential,
             "poly": PolynomialPotential}


def potential_from_spec(text):
    """Parse a potential spec, e.g. 'box height=1 radius=1': a family name
    and key=value pairs over the fields of its dataclass, each key at most
    once; a field not given takes its default."""
    parts = text.split()
    if not parts:
        raise ValueError("empty potential spec")
    name, items = parts[0], parts[1:]
    if name not in _FAMILIES:
        raise ValueError(f"unknown potential family: {name!r}")
    family = _FAMILIES[name]
    fields = [f.name for f in dataclasses.fields(family)]
    params = {}
    for item in items:
        key, eq, val = item.partition("=")
        if not eq:
            raise ValueError(f"malformed potential parameter: {item!r}")
        if key not in fields:
            raise ValueError(f"unknown {name} parameter {key!r} "
                             f"(known: {', '.join(fields)})")
        if key in params:
            raise ValueError(f"repeated potential parameter: {key!r}")
        params[key] = float(val)
    return family(**params)
