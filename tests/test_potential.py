import dataclasses

import numpy as np
import pytest

from pieces_lab.potential import (BoxPotential, ExponentialPotential,
                                  InteractionPotential, PolynomialPotential,
                                  potential_from_spec, tail_Z)


def test_box_closed_forms():
    U = BoxPotential(2.0, 1.5)
    assert U(0.0) == 2.0 and U(1.5) == 2.0 and U(1.6) == 0.0
    assert U.tail_integral(0.5) == pytest.approx(2.0)
    assert U.tail_integral(2.0) == 0.0
    # Z(x) = sup_{v>=x} v^3 int_v^inf U vanishes beyond the support
    assert tail_Z(U, 2.0) == 0.0
    assert tail_Z(U, 0.0) > 0.0


@pytest.mark.parametrize("U", [BoxPotential(1.0, 1.0),
                               ExponentialPotential(1.0, 1.0)], ids=["box", "exp"])
def test_tail_Z_refuses_nan(U):
    # NaN passed the check written as x < 0 and Z came out NaN
    with pytest.raises(ValueError, match="non-negative"):
        tail_Z(U, float("nan"))


@pytest.mark.parametrize("U", [BoxPotential(1.0, 1.0), ExponentialPotential(1.0, 1.0),
                               PolynomialPotential(1.0, 5.0, 1.0),
                               PolynomialPotential(2.0, 4.5, 0.5)],
                         ids=["box", "exp", "poly5", "poly4.5"])
def test_tail_Z_at_infinity_is_zero(U):
    # v^3 int_v^inf U -> 0: exp and poly returned NaN from a NaN grid
    with np.errstate(all="raise"):
        assert tail_Z(U, np.inf) == 0.0


@pytest.mark.parametrize("exponent", [2.0, 4.0])
def test_tail_Z_at_infinity_refuses_a_slow_poly_tail(exponent):
    # Z(x) ~ x^(4 - exponent) does not vanish
    U = PolynomialPotential(1.0, exponent, 1.0)
    with pytest.raises(ValueError, match="exponent <= 4"):
        tail_Z(U, np.inf)
    assert tail_Z(U, 3.0) > 0.0


@pytest.mark.parametrize("U", [BoxPotential(1.0, 1.0), BoxPotential(2.0, 1.5),
                               ExponentialPotential(1.0, 1.0),
                               ExponentialPotential(0.5, 3.0),
                               PolynomialPotential(1.0, 5.0, 1.0),
                               PolynomialPotential(2.0, 4.5, 0.5),
                               PolynomialPotential(1.0, 8.0, 2.0)],
                         ids=["box", "box2", "exp", "exp3", "poly5", "poly4.5",
                              "poly8"])
def test_tail_Z_is_the_grid_maximum(U):
    # the closed form against the largest v^3 int_v^inf U on a dense grid
    # of [x, x + 60]: at least every grid value, and close to the largest
    for x in (0.0, 0.3, 1.0, 2.5, 7.0, 40.0):
        v = np.linspace(x, x + 60.0, 60001)
        best = np.max(v ** 3 * np.array([U.tail_integral(t) for t in v]))
        Z = tail_Z(U, x)
        assert best <= Z * (1.0 + 1e-14)
        assert Z == pytest.approx(best, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("exponent,Z", [(2.0, np.inf), (3.0, np.inf),
                                        (3.99, np.inf), (4.0, 2.0 * 0.5 ** 4 / 3)])
def test_tail_Z_of_a_slow_poly_tail(exponent, Z):
    # v^3 int_v^inf U grows without bound for exponent < 4 and rises to
    # amplitude scale^4 / 3 for exponent 4: a grid stopping at a finite v
    # read a finite Z (4.19e7 at exponent 3)
    U = PolynomialPotential(2.0, exponent, 0.5)
    for x in (0.0, 3.0, 1e6):
        assert tail_Z(U, x) == Z


@pytest.mark.parametrize("exponent", [2.0, 4.0, 5.0])
def test_tail_Z_of_a_zero_amplitude_is_zero(exponent):
    U = PolynomialPotential(0.0, exponent, 1.0)
    for x in (0.0, 3.0, np.inf):
        assert tail_Z(U, x) == 0.0


def test_exponential_tail():
    U = ExponentialPotential(1.0, 1.0)
    assert U.tail_integral(6.0) == pytest.approx(np.exp(-6.0))


def test_spec_parsing():
    U = potential_from_spec("box height=2 radius=0.5")
    assert U.height == 2.0 and U.radius == 0.5
    with pytest.raises(ValueError):
        potential_from_spec("")
    with pytest.raises(ValueError):
        potential_from_spec("box radius")
    with pytest.raises(ValueError):
        potential_from_spec("nosuch a=1")


def test_potentials_are_value_objects():
    assert BoxPotential(1, 1) == BoxPotential(1.0, 1.0)
    assert hash(BoxPotential(1, 1)) == hash(BoxPotential(1.0, 1.0))
    assert BoxPotential(1, 1) != ExponentialPotential(1, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        BoxPotential(1.0, 1.0).height = 2.0



SPEC_NAMES = {BoxPotential: "box", ExponentialPotential: "exp",
              PolynomialPotential: "poly"}
FIELDS = [(cls, f.name) for cls in SPEC_NAMES for f in dataclasses.fields(cls)]


def test_every_family_is_a_value_object_built_from_its_spec():
    # one cache policy: caches key potentials by value, so every family is
    # a frozen dataclass that a spec with its fields spelled out rebuilds
    assert set(InteractionPotential.__subclasses__()) == set(SPEC_NAMES)
    for cls, name in SPEC_NAMES.items():
        values = {f.name: f.default + 0.25 for f in dataclasses.fields(cls)}
        spec = " ".join([name, *(f"{k}={v!r}" for k, v in values.items())])
        U, V = potential_from_spec(spec), cls(**values)
        assert type(U) is cls and U == V and hash(U) == hash(V) and U is not V
        for key in values:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(U, key, 2.0)


@pytest.mark.parametrize("spec,match", [
    ("box heigth=2 radius=0.5", "unknown box parameter 'heigth'"),
    ("exp rate=2 radius=3", "unknown exp parameter 'radius'"),
    ("box height=2 height=3", "repeated potential parameter: 'height'"),
])
def test_spec_rejects_unknown_or_repeated_key(spec, match):
    # each used to be ignored, or the last value kept
    with pytest.raises(ValueError, match=match):
        potential_from_spec(spec)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("cls,field", FIELDS,
                         ids=lambda v: SPEC_NAMES.get(v, v))
def test_parameters_must_be_finite(cls, field, value):
    # nan passed every check written as x < 0 or x <= 0, and an infinite
    # radius or scale built a constant potential
    with pytest.raises(ValueError):
        cls(**{field: float(value)})
    with pytest.raises(ValueError):
        potential_from_spec(f"{SPEC_NAMES[cls]} {field}={value}")
