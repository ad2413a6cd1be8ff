import time

import numpy as np
import pytest

from modelspace import inner
from modelspace import (
    AtomicSingularMeasure,
    BlaschkeFunction,
    InnerFunction,
    Polynomial,
    ProductFunction,
    RationalFunction,
    blaschke_factor,
    blaschke_product,
    divides,
    enumerate_blaschke_divisors,
    equiv,
    eval_blaschke_factor,
    exact_divide,
    gcd,
    inner_one,
    is_negligible,
    lcm,
    multiply,
    singular_inner,
)
from modelspace.errors import (
    ConditioningError,
    EvaluationDomainError,
    InvalidZeroError,
    NotADivisorError,
)


def random_inner_function(rng, radius=0.9):
    zeros = tuple(
        (radius * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi)), int(rng.integers(1, 3)))
        for _ in range(int(rng.integers(0, 4)))
    )
    atoms = tuple(
        (rng.uniform(0, 2 * np.pi), rng.uniform(0.2, 2.0))
        for _ in range(int(rng.integers(0, 3)))
    )
    return InnerFunction(
        gamma=np.exp(1j * rng.uniform(0, 2 * np.pi)),
        blaschke=BlaschkeFunction(zeros),
        singular=AtomicSingularMeasure(atoms),
    )


# ---------------------------------------------------------------- evaluation


def test_zero_at_origin_is_identity_map():
    assert eval_blaschke_factor(0.0, 0.3j) == 0.3j
    assert eval_blaschke_factor(0.0, -0.25) == -0.25


def test_factor_vanishes_at_its_zero():
    assert eval_blaschke_factor(0.5, 0.5) == 0
    assert abs(eval_blaschke_factor(0.3 + 0.4j, 0.3 + 0.4j)) == 0.0


def test_factor_normalization_is_positive_at_origin():
    assert eval_blaschke_factor(0.5, 0.0) == pytest.approx(0.5)
    value = eval_blaschke_factor(0.3 + 0.4j, 0.0)
    assert value == pytest.approx(0.5)  # |alpha| for any argument of alpha


def test_zero_on_or_outside_circle_rejected():
    for bad in (1.0, -1.0, 1.5, 2j, complex(np.inf, 0.0), complex(np.nan, 0.0)):
        with pytest.raises(InvalidZeroError):
            eval_blaschke_factor(bad, 0.0)
    with pytest.raises(InvalidZeroError):
        BlaschkeFunction(((1.0, 1),))


def test_singular_atom_value_at_origin():
    # exp(-w (xi + 0)/(xi - 0)) = exp(-w), independent of the atom's angle
    s = singular_inner([(0.0, 1.0)])
    assert s(0.0) == pytest.approx(np.exp(-1.0), abs=1e-15)
    s2 = singular_inner([(np.pi / 3, 2.5)])
    assert abs(s2(0.0)) == pytest.approx(np.exp(-2.5), abs=1e-15)


def test_squared_factor_evaluates_to_square():
    b = blaschke_product([0.5, 0.5])
    assert b(0.0) == pytest.approx(0.25)
    assert b.blaschke.atoms == ((0.5 + 0j, 2),)


def test_unimodular_constant_scales_value():
    theta = InnerFunction(gamma=1j)
    assert theta(0.7) == 1j
    with pytest.raises(InvalidZeroError):
        InnerFunction(gamma=2.0)


def test_finite_blaschke_unimodular_on_boundary():
    rng = np.random.default_rng(11)
    b = blaschke_product([0.5, -0.3 + 0.2j, 0.8j])
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, size=64))
    np.testing.assert_allclose(np.abs(b(z)), 1.0, atol=1e-12)


def test_modulus_below_one_inside_disk():
    rng = np.random.default_rng(12)
    for _ in range(20):
        theta = random_inner_function(rng)
        z = 0.95 * np.sqrt(rng.uniform(size=50)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        assert np.max(np.abs(theta(z))) <= 1.0 + 1e-12


def test_singular_factor_rejects_boundary_points():
    s = singular_inner([(0.0, 1.0)])
    with pytest.raises(EvaluationDomainError):
        s(1.0)
    with pytest.raises(EvaluationDomainError):
        s(np.exp(0.5j))
    b = blaschke_product([0.5])
    with pytest.raises(EvaluationDomainError):
        b(1.5)  # finite products stop at the closed disk


def test_atom_merge_within_tolerance():
    b = BlaschkeFunction(((0.5, 1), (0.5 + 1e-14, 2)))
    assert b.atoms == ((0.5 + 0j, 3),)
    s = AtomicSingularMeasure(((0.0, 1.0), (2 * np.pi - 1e-14, 0.5)))
    assert len(s.atoms) == 1
    assert s.atoms[0][1] == pytest.approx(1.5)


# ---------------------------------------------------------------- lattice


def test_divides_on_powers_of_coordinate():
    z2 = blaschke_product([0.0, 0.0])
    z3 = blaschke_product([0.0, 0.0, 0.0])
    assert divides(z2, z3)
    assert not divides(z3, z2)
    assert divides(z3, z3)


def test_divides_orders_singular_weights():
    light = singular_inner([(1.0, 1.0)])
    heavy = singular_inner([(1.0, 2.0)])
    assert divides(light, heavy)
    assert not divides(heavy, light)


def test_gcd_takes_componentwise_minimum():
    a = multiply(blaschke_product([0.5, 0.5]), singular_inner([(0.0, 2.0)]))
    b = multiply(blaschke_product([0.5, 0.3]), singular_inner([(0.0, 1.0)]))
    g = gcd(a, b)
    assert g.blaschke.atoms == ((0.5 + 0j, 1),)
    assert g.singular.atoms == ((0.0, 1.0),)
    assert g.gamma == 1


def test_gcd_of_coprime_functions_is_one():
    g = gcd(blaschke_product([0.0, 0.0, 0.0]), singular_inner([(np.pi, 1.0)]))
    assert g.is_constant
    assert equiv(g, inner_one())


def test_lcm_takes_componentwise_maximum():
    m = lcm(blaschke_factor(0.5), blaschke_factor(0.3))
    assert equiv(m, blaschke_product([0.5, 0.3]))
    m2 = lcm(
        multiply(blaschke_product([0.5, 0.5]), singular_inner([(0.0, 1.0)])),
        multiply(blaschke_factor(0.5), singular_inner([(0.0, 3.0)])),
    )
    assert m2.blaschke.atoms == ((0.5 + 0j, 2),)
    assert m2.singular.atoms == ((0.0, 3.0),)


def test_multiply_by_one_is_identity():
    theta = multiply(blaschke_product([0.2, -0.4]), singular_inner([(1.0, 0.7)]))
    product = multiply(theta, inner_one())
    assert product == theta


def test_exact_divide_inverts_multiplication():
    theta = multiply(blaschke_product([0.2, -0.4]), singular_inner([(1.0, 0.7)]))
    phi = multiply(blaschke_factor(0.2), singular_inner([(2.0, 0.3)]))
    assert equiv(exact_divide(multiply(theta, phi), phi), theta)


def test_exact_divide_of_function_by_itself():
    theta = InnerFunction(gamma=1j, blaschke=BlaschkeFunction(((0.4, 2),)))
    quotient = exact_divide(theta, theta)
    assert quotient.is_constant
    assert quotient.gamma == pytest.approx(1.0)


def test_exact_divide_requires_divisibility():
    with pytest.raises(NotADivisorError):
        exact_divide(blaschke_factor(0.5), blaschke_factor(0.3))


def test_equiv_ignores_unimodular_constant():
    z2 = blaschke_product([0.0, 0.0])
    assert equiv(InnerFunction(gamma=1j, blaschke=z2.blaschke), z2)


def test_equiv_merges_nearby_zeros():
    assert equiv(blaschke_factor(0.5), blaschke_factor(0.5 + 1e-14))
    assert not equiv(blaschke_factor(0.5), blaschke_factor(0.5 + 1e-8))


def test_equiv_matches_pointwise_modulus():
    rng = np.random.default_rng(13)
    z = 0.8 * np.sqrt(rng.uniform(size=40)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 40))
    for _ in range(25):
        theta = random_inner_function(rng)
        shuffled = InnerFunction(
            gamma=-1j * theta.gamma,
            blaschke=BlaschkeFunction(tuple(reversed(theta.blaschke.atoms))),
            singular=theta.singular,
        )
        assert equiv(theta, shuffled)
        np.testing.assert_allclose(np.abs(theta(z)), np.abs(shuffled(z)), atol=1e-12)
        enlarged = multiply(theta, blaschke_factor(0.25 + 0.25j))
        assert not equiv(theta, enlarged)
        # adding a factor can only shrink the modulus
        assert np.max(np.abs(enlarged(z)) - np.abs(theta(z))) <= 1e-12


def test_lattice_laws_on_random_triples():
    rng = np.random.default_rng(14)
    for _ in range(100):
        a = random_inner_function(rng)
        b = random_inner_function(rng)
        c = random_inner_function(rng)
        assert equiv(gcd(a, b), gcd(b, a))
        assert equiv(lcm(a, b), lcm(b, a))
        assert equiv(gcd(a, lcm(a, b)), a)
        assert equiv(lcm(a, gcd(a, b)), a)
        assert equiv(gcd(gcd(a, b), c), gcd(a, gcd(b, c)))
        assert divides(gcd(a, b), a) and divides(gcd(a, b), b)
        assert divides(a, lcm(a, b)) and divides(b, lcm(a, b))
        assert divides(a, multiply(a, c))


def test_divisibility_controls_modulus():
    rng = np.random.default_rng(15)
    for _ in range(20):
        theta = random_inner_function(rng)
        phi = random_inner_function(rng)
        bigger = multiply(theta, phi)
        z = 0.9 * np.sqrt(rng.uniform(size=100)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 100))
        assert np.max(np.abs(bigger(z)) - np.abs(theta(z))) <= 1e-10


# ----------------------------------------------------------- divisor lists


def test_divisor_count_for_square_of_coordinate():
    divisors = enumerate_blaschke_divisors(blaschke_product([0.0, 0.0]))
    assert len(divisors) == 3
    degrees = sorted(d.blaschke_degree for d in divisors)
    assert degrees == [0, 1, 2]


def test_divisor_count_multiplies_over_zeros():
    theta = blaschke_product([0.3, -0.6j])
    assert len(enumerate_blaschke_divisors(theta)) == 4
    theta2 = InnerFunction(blaschke=BlaschkeFunction(((0.3, 2), (-0.6j, 1))))
    assert len(enumerate_blaschke_divisors(theta2)) == 6


def test_divisors_of_single_factor():
    divisors = enumerate_blaschke_divisors(blaschke_factor(0.4))
    assert len(divisors) == 2
    assert any(d.is_constant for d in divisors)
    assert any(equiv(d, blaschke_factor(0.4)) for d in divisors)


def test_divisor_enumeration_rejects_singular_part():
    with pytest.raises(NotADivisorError):
        enumerate_blaschke_divisors(singular_inner([(0.0, 1.0)]))


def test_divisor_count_is_capped_on_both_sides(monkeypatch):
    monkeypatch.setattr(inner, "MAX_DIVISORS", 6)
    at_cap = InnerFunction(blaschke=BlaschkeFunction(((0.3, 2), (-0.6j, 1))))
    assert len(enumerate_blaschke_divisors(at_cap)) == 6
    with pytest.raises(ConditioningError, match="^8 divisors exceed the enumeration cap 6$"):
        enumerate_blaschke_divisors(blaschke_product([0.1, 0.2, 0.3]))


def test_huge_multiplicity_is_refused_without_enumerating():
    theta = InnerFunction(blaschke=BlaschkeFunction(((0.5, 10**9),)))
    start = time.perf_counter()
    with pytest.raises(ConditioningError, match="^1000000001 divisors"):
        enumerate_blaschke_divisors(theta)
    assert time.perf_counter() - start < 0.1


# ---------------------------------------------------- bounded symbol types


def test_polynomial_matches_reference_evaluation():
    p = Polynomial((1.0, 2.0, 3.0))
    rng = np.random.default_rng(16)
    z = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    np.testing.assert_allclose(
        p(z), np.polynomial.polynomial.polyval(z, [1.0, 2.0, 3.0]), rtol=1e-14
    )
    assert p.degree == 2


def test_rational_function_rejects_interior_poles():
    with pytest.raises(ValueError):
        RationalFunction((1.0,), (1.0, -2.0))  # root at 0.5
    r = RationalFunction((1.0,), (1.0, -0.5))  # pole at 2
    assert r(0.0) == pytest.approx(1.0)
    assert r(0.5) == pytest.approx(1.0 / 0.75)


def test_product_function_multiplies_factor_values():
    u = ProductFunction((Polynomial((0.0, 1.0)), blaschke_factor(0.5)))
    z = 0.3 + 0.1j
    assert u(z) == pytest.approx(z * eval_blaschke_factor(0.5, z))


def test_negligibility_detection():
    assert is_negligible(Polynomial((0.0, 1e-16)))
    assert not is_negligible(Polynomial((0.0, 1.0)))
    assert not is_negligible(blaschke_factor(0.5))
    assert is_negligible(ProductFunction((Polynomial((0.0,)), blaschke_factor(0.5))))
