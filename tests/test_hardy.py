import numpy as np
import pytest

from modelspace import (
    CircleSampler,
    blaschke_factor,
    circle_nodes,
    fourier_coefficients,
    h2_inner_product,
)
from modelspace.errors import AccuracyError

SAMPLER = CircleSampler()


def reproducing_kernel(alpha):
    """The Hardy-space reproducing kernel at alpha: z -> 1/(1 - conj(alpha) z)."""
    return lambda z: 1.0 / (1.0 - np.conj(alpha) * np.asarray(z, dtype=complex))


def test_nodes_are_roots_of_unity():
    z = circle_nodes(8)
    assert z[0] == 1.0
    np.testing.assert_allclose(z**8, np.ones(8), atol=1e-15)
    np.testing.assert_allclose(np.abs(z), 1.0, atol=1e-15)


def test_sampler_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CircleSampler(sample_count=100)
    with pytest.raises(ValueError):
        CircleSampler(sample_count=128)  # power of two but below the floor
    with pytest.raises(ValueError):
        CircleSampler(max_doublings=-1)
    with pytest.raises(ValueError):
        CircleSampler(tail_tolerance=0.0)


def test_coefficients_of_cubed_coordinate():
    coeffs = fourier_coefficients(lambda z: z**3, SAMPLER, 5)
    np.testing.assert_allclose(coeffs, [0, 0, 0, 1, 0], atol=1e-13)


def test_coefficients_of_kernel_are_geometric():
    k = reproducing_kernel(0.5)
    coeffs = fourier_coefficients(k, SAMPLER, 4)
    np.testing.assert_allclose(coeffs, [1.0, 0.5, 0.25, 0.125], atol=1e-13)


def test_coefficients_of_affine_function():
    coeffs = fourier_coefficients(lambda z: (2.0 + z) / 2.0, SAMPLER, 2)
    np.testing.assert_allclose(coeffs, [1.0, 0.5], atol=1e-14)


def test_coefficient_count_must_be_positive():
    with pytest.raises(ValueError):
        fourier_coefficients(lambda z: z, SAMPLER, 0)


def test_monomials_are_orthonormal():
    for m in range(4):
        for n in range(4):
            value = h2_inner_product(lambda z, m=m: z**m, lambda z, n=n: z**n, SAMPLER)
            expected = 1.0 if m == n else 0.0
            assert value == pytest.approx(expected, abs=1e-13)


def test_kernel_self_inner_product():
    k = reproducing_kernel(0.5)
    assert h2_inner_product(k, k, SAMPLER) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_kernel_cross_inner_product():
    ka = reproducing_kernel(0.5)
    kb = reproducing_kernel(0.25)
    # <k_a, k_b> = k_a(b) = 1/(1 - conj(a) b)
    assert h2_inner_product(ka, kb, SAMPLER) == pytest.approx(8.0 / 7.0, abs=1e-12)


def test_trig_polynomial_quadrature_is_exact():
    # <p, q> equals the coefficient pairing sum c_k conj(d_k)
    def p(z):
        return 1.0 + 2.0 * z + 3.0 * z**2

    def q(z):
        return 4.0 + (5.0 - 1.0j) * z

    value = h2_inner_product(p, q, SAMPLER)
    assert value == pytest.approx(1.0 * 4.0 + 2.0 * (5.0 + 1.0j), abs=1e-13)


def test_reproducing_property():
    rng = np.random.default_rng(21)
    for _ in range(10):
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        alpha = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())

        def f(z):
            return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex), coeffs)

        value = h2_inner_product(f, reproducing_kernel(alpha), SAMPLER)
        assert abs(value - f(alpha)) <= 1e-10


def test_inner_product_is_sesquilinear():
    f = reproducing_kernel(0.3)
    g = blaschke_factor(0.4 - 0.2j)
    h = reproducing_kernel(-0.6j)
    a = 2.0 - 1.5j
    left = h2_inner_product(lambda z: a * f(z) + g(z), h, SAMPLER)
    right = a * h2_inner_product(f, h, SAMPLER) + h2_inner_product(g, h, SAMPLER)
    assert left == pytest.approx(right, abs=1e-12)
    # conjugate-linear in the second slot
    flipped = h2_inner_product(h, lambda z: a * f(z) + g(z), SAMPLER)
    expected = np.conj(a) * h2_inner_product(h, f, SAMPLER) + h2_inner_product(h, g, SAMPLER)
    assert flipped == pytest.approx(expected, abs=1e-12)


def test_norm_of_blaschke_factor_is_one():
    b = blaschke_factor(0.7j)
    assert h2_inner_product(b, b, SAMPLER) == pytest.approx(1.0, abs=1e-13)


def test_slow_spectral_decay_raises():
    # coefficients 0.99999^k decay far too slowly for the doubling budget
    k = reproducing_kernel(0.99999)
    tight = CircleSampler(sample_count=256, max_doublings=2)
    with pytest.raises(AccuracyError) as info:
        fourier_coefficients(k, tight, 4)
    assert info.value.estimate > tight.tail_tolerance


def test_inner_product_disagreement_raises():
    k = reproducing_kernel(0.99999)
    tight = CircleSampler(sample_count=256, max_doublings=1)
    with pytest.raises(AccuracyError):
        h2_inner_product(k, k, tight)


def test_inner_product_without_a_doubling_raises_accuracy_error():
    # one node count leaves no refinement to compare against
    single = CircleSampler(max_doublings=0)
    with pytest.raises(AccuracyError) as info:
        h2_inner_product(lambda z: z, lambda z: z, single)
    assert info.value.estimate is None
