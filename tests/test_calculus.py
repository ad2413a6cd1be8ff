import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modelspace import (
    InnerFunction,
    Polynomial,
    ProductFunction,
    RationalFunction,
    apply,
    apply_spectral,
    blaschke_factor,
    blaschke_product,
    build_model_operator,
    check_contractivity,
    check_multiplicativity,
    multiply_functions,
    operator_norm,
    singular_inner,
)
from modelspace import calculus
from modelspace.errors import ConditioningError, NearBoundarySpectrumError
from modelspace.verify import random_symbol


def jordan_cell(eigenvalue, size):
    J = np.eye(size, dtype=complex) * eigenvalue
    J[np.arange(1, size), np.arange(size - 1)] = 1.0
    return J


def conjugated(rng, A):
    """Similarity transform by a Haar-random unitary (keeps conditioning mild)."""
    n = A.shape[0]
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q @ A @ q.conj().T


S3 = build_model_operator(blaschke_product([0.0, 0.0, 0.0])).matrix


def test_constant_one_is_exact_identity():
    F = apply(Polynomial((1.0,)), S3)
    assert np.array_equal(F, np.eye(3, dtype=complex))


def test_coordinate_function_is_exact():
    F = apply(Polynomial((0.0, 1.0)), S3)
    assert np.array_equal(F, S3)


def test_symbol_annihilates_model_matrix():
    F = apply(blaschke_product([0.0, 0.0, 0.0]), S3)
    assert operator_norm(F) <= 1e-12


@st.composite
def _norm_operands(draw):
    """Complex matrices, square (n <= 16) or tall, rank-deficient or not,
    with entries scaled anywhere from 1e-150 to 1e150."""
    n = draw(st.integers(1, 16))
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    rank = draw(st.integers(0, k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    A = gaussian(n, rank) @ gaussian(rank, k) if rank < k else gaussian(n, k)
    return A * 10.0 ** draw(st.floats(-150.0, 150.0))


@settings(deadline=None)
@given(A=_norm_operands())
def test_operator_norm_is_bitwise_numpy_2_norm(A):
    # every suite's worst field rests on these bits
    assert operator_norm(A) == np.linalg.norm(A, 2)


def test_scalar_blaschke_vanishes_at_its_zero():
    F = apply(blaschke_factor(0.5), np.array([[0.5]]))
    np.testing.assert_allclose(F, [[0.0]], atol=1e-14)


def test_unimodular_constant_scales_identity():
    F = apply(InnerFunction(gamma=1j), S3)
    assert np.array_equal(F, 1j * np.eye(3, dtype=complex))


def test_singular_factor_matches_scalar_formula_on_diagonal():
    s = singular_inner([(0.7, 1.3)])
    points = np.array([0.3, -0.2 + 0.1j, 0.05j])
    F = apply(s, np.diag(points))
    xi = np.exp(0.7j)
    expected = np.exp(-1.3 * (xi + points) / (xi - points))
    np.testing.assert_allclose(F, np.diag(expected), atol=1e-12)


def test_rational_matches_scalar_values_on_diagonal():
    r = RationalFunction((1.0,), (1.0, -0.5))
    points = np.array([0.1, 0.6j, -0.4])
    F = apply(r, np.diag(points))
    np.testing.assert_allclose(F, np.diag(1.0 / (1.0 - points / 2.0)), atol=1e-13)


def test_full_inner_function_factors_through_parts():
    theta = InnerFunction(
        gamma=np.exp(0.4j),
        blaschke=((0.3, 2), (-0.2j, 1)),
        singular=((1.0, 0.5),),
    )
    points = np.array([0.25, -0.3 + 0.2j])
    F = apply(theta, np.diag(points))
    np.testing.assert_allclose(F, np.diag(theta(points)), atol=1e-12)


def test_operator_must_be_square_and_finite():
    with pytest.raises(ValueError):
        apply(Polynomial((1.0,)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        apply(Polynomial((1.0,)), np.array([[np.inf]]))


def test_spectrum_near_circle_is_rejected():
    with pytest.raises(NearBoundarySpectrumError):
        apply(Polynomial((0.0, 1.0)), np.array([[0.9999995]]))
    with pytest.raises(NearBoundarySpectrumError):
        apply(Polynomial((0.0, 1.0)), np.array([[1.5]]))


# -------------------------------------------------------- multiplicativity


def test_product_rule_is_bit_exact_for_coordinates():
    z = Polynomial((0.0, 1.0))
    assert check_multiplicativity(z, z, S3) == 0.0


def test_product_rule_for_inner_factors():
    model = build_model_operator(blaschke_product([0.5, -0.3, 0.2j, 0.4]))
    residual = check_multiplicativity(
        blaschke_factor(0.5), blaschke_factor(0.3), model.matrix
    )
    assert residual <= 1e-10


def test_product_rule_poly_times_rational_on_diagonal():
    p = Polynomial((1.0, 2.0, 0.5j))
    r = RationalFunction((1.0, 1.0), (1.0, 0.0, -0.25))
    points = np.array([0.4, -0.1 + 0.3j, -0.5, 0.2j])
    T = np.diag(points)
    assert check_multiplicativity(p, r, T) <= 1e-10
    # independent scalar route for the merged product itself
    F = apply(multiply_functions(p, r), T)
    np.testing.assert_allclose(F, np.diag(p(points) * r(points)), atol=1e-10)


def test_merge_of_polynomials_convolves_coefficients():
    u = multiply_functions(Polynomial((1.0, 1.0)), Polynomial((1.0, 1.0)))
    assert isinstance(u, Polynomial)
    assert u.coefficients == ((1 + 0j), (2 + 0j), (1 + 0j))


def test_merge_with_rational_keeps_single_rational():
    u = multiply_functions(
        Polynomial((0.0, 1.0)), RationalFunction((1.0,), (1.0, -0.5))
    )
    assert isinstance(u, RationalFunction)
    assert u.numerator == ((0 + 0j), (1 + 0j))


def test_merge_of_inner_functions_adds_atoms():
    u = multiply_functions(blaschke_factor(0.5), blaschke_factor(0.5))
    assert isinstance(u, InnerFunction)
    assert u.blaschke.atoms == ((0.5 + 0j, 2),)


def test_mixed_merge_keeps_two_factors():
    u = multiply_functions(Polynomial((0.0, 1.0)), blaschke_factor(0.5))
    assert isinstance(u, ProductFunction)
    assert len(u.factors) == 2


# ----------------------------------------------------------- contractivity


def test_contractivity_of_inner_symbol():
    model = build_model_operator(blaschke_product([0.4, -0.6j]))
    report = check_contractivity(blaschke_factor(0.3), model.matrix)
    assert report.boundary_sup == 1.0
    assert report.samples_used == 0
    assert report.operator_norm <= 1.0 + 1e-10
    assert report.passed


def test_contractivity_of_scaled_coordinate():
    report = check_contractivity(Polynomial((0.0, 2.0)), S3)
    assert report.boundary_sup == pytest.approx(2.0, abs=1e-14)
    assert report.samples_used == 2048
    assert report.operator_norm == pytest.approx(2.0, abs=1e-12)
    assert report.passed


def test_contractivity_of_constant():
    report = check_contractivity(Polynomial((3.0,)), np.diag([0.1, 0.2]))
    assert report.boundary_sup == 3.0
    assert report.operator_norm == pytest.approx(3.0, abs=1e-13)
    assert report.passed


def test_contractivity_refuses_a_tolerance_that_passes_every_test():
    # a NaN or infinite tolerance would pass any operator norm
    for tolerance in (float("nan"), float("inf"), 0.0, -1e-8):
        with pytest.raises(ValueError, match="tolerance"):
            check_contractivity(Polynomial((0.0, 2.0)), S3, tolerance)


# ------------------------------------------------------ spectral crosscheck


def test_spectral_route_agrees_on_diagonalizable_model():
    model = build_model_operator(blaschke_product([0.5, -0.3, 0.1 + 0.2j]))
    for u in (
        Polynomial((0.3, -1.0, 0.25j)),
        RationalFunction((1.0,), (1.0, -0.5)),
        blaschke_factor(0.2),
    ):
        direct = apply(u, model.matrix)
        spectral = apply_spectral(u, model.matrix)
        assert operator_norm(direct - spectral) <= 1e-10


def test_spectral_route_agrees_on_jordan_block():
    rng = np.random.default_rng(41)
    T = conjugated(rng, jordan_cell(0.3, 5))
    u = Polynomial((0.2, 1.0, -0.5, 0.125j))
    direct = apply(u, T)
    spectral = apply_spectral(u, T)
    assert operator_norm(direct - spectral) <= 1e-8


def test_spectral_route_handles_separated_clusters():
    rng = np.random.default_rng(42)
    T = conjugated(
        rng, scipy.linalg.block_diag(jordan_cell(0.0, 3), jordan_cell(0.5, 2))
    )
    u = Polynomial((0.0, 1.0, 1.0))
    direct = apply(u, T)
    spectral = apply_spectral(u, T)
    assert operator_norm(direct - spectral) <= 1e-8


def test_spectral_route_on_inner_symbol_of_jordan_block():
    rng = np.random.default_rng(43)
    T = conjugated(rng, jordan_cell(0.25, 4))
    theta = blaschke_factor(0.25)
    spectral = apply_spectral(theta, T)
    direct = apply(theta, T)
    assert operator_norm(direct - spectral) <= 1e-8


def _routes_disagree_by(u, T):
    """Distance between the two routes, relative to max(1, ||u(T)||)."""
    direct = apply(u, T)
    return operator_norm(direct - apply_spectral(u, T)) / max(1.0, operator_norm(direct))


@st.composite
def _model_zeros(draw):
    """Up to 16 zeros of modulus at most 0.95, drawn with repetition."""
    point = st.one_of(
        st.sampled_from([0.95, -0.95, 0.95j, 0.0]),
        # 0.95 * exp(i t) can round to a modulus just above the cap
        st.builds(
            lambda r, t: r * np.exp(2j * np.pi * t),
            st.floats(0.0, 0.9499),
            st.floats(0.0, 1.0),
        ),
    )
    atoms = draw(st.lists(point, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(atoms) - 1), min_size=1, max_size=16))
    return [atoms[i] for i in picks]


@settings(max_examples=80, deadline=None)
@given(zeros=_model_zeros(), seed=st.integers(0, 2**32 - 1))
@example(zeros=[0.95] * 16, seed=6)  # a Jordan-like cell at the modulus cap
# a repeated zero under a symbol with two singular factors
@example(zeros=[-0.5532376913160307 + 0.7383469956657757j] * 2, seed=40)
def test_spectral_route_agrees_on_model_operators(zeros, seed):
    T = build_model_operator(blaschke_product(zeros)).matrix
    assert _routes_disagree_by(random_symbol(np.random.default_rng(seed)), T) <= 1e-9


@pytest.mark.parametrize("seed", [6, 10, 16])  # symbols without singular factors
def test_spectral_route_keeps_full_accuracy_at_the_modulus_cap(seed):
    # sampling halfway out to the circle instead of three quarters loses
    # about 1e-9 here, to the transient growth of (T / r)^k
    T = build_model_operator(blaschke_product([0.95] * 16)).matrix
    assert _routes_disagree_by(random_symbol(np.random.default_rng(seed)), T) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(1e-12, 1.0), seed=st.integers(0, 2**32 - 1))
def test_spectral_route_agrees_after_scaling_the_operator(scale, seed):
    T = build_model_operator(blaschke_product([0.9, 0.9, -0.5j, 0.3])).matrix
    u = random_symbol(np.random.default_rng(seed))
    assert _routes_disagree_by(u, scale * T) <= 1e-9


def _singular_factor_on_a_repeated_zero():
    """T with zeros [a, a], a singular factor s, and s(T) in closed form."""
    a = -0.5532376913160307 + 0.7383469956657757j
    angle, weight = 2.1385196403112543, 0.21211882025951917
    T = build_model_operator(blaschke_product([a, a])).matrix
    s = singular_inner([(angle, weight)])
    # on a 2x2 Jordan-like cell, s(T) = s(a) I + s'(a) (T - a I)
    xi = np.exp(1j * angle)
    slope = -2.0 * weight * xi / (xi - a) ** 2 * s(a)
    return T, s, s(a) * np.eye(2) + slope * (T - a * np.eye(2))


def test_spectral_route_on_a_singular_factor_at_a_repeated_zero():
    T, s, exact = _singular_factor_on_a_repeated_zero()
    assert operator_norm(apply_spectral(s, T) - exact) <= 1e-14


def test_structural_route_on_a_singular_factor_at_a_repeated_zero():
    T, s, exact = _singular_factor_on_a_repeated_zero()
    assert operator_norm(apply(s, T) - exact) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 8),
    log_norm=st.floats(-3.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=4, log_norm=-3.0, seed=0)  # no squaring
@example(n=8, log_norm=2.0, seed=1)  # five squarings
def test_pade_exponential_matches_scipy_expm(n, log_norm, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A *= 10.0**log_norm / np.max(np.sum(np.abs(A), axis=0))
    reference = scipy.linalg.expm(A)
    error = operator_norm(calculus._expm(A) - reference)
    assert error <= 1e-12 * operator_norm(reference)


def test_spectral_route_refuses_a_spectrum_too_close_to_the_circle():
    u = Polynomial((0.5, 1.0, 0.25))
    with pytest.raises(ConditioningError):
        apply_spectral(u, np.diag([0.9995]))
    T = conjugated(np.random.default_rng(46), jordan_cell(0.99, 3))
    assert _routes_disagree_by(u, T) <= 1e-8


def test_spectral_route_and_apply_on_a_singular_factor_never_import_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    script = """
import json, sys
import numpy as np
from modelspace import (
    ProductFunction, Polynomial, apply, apply_spectral, blaschke_factor,
    singular_inner,
)
u = ProductFunction((Polynomial((1.0, 0.5)), blaschke_factor(0.3)))
apply_spectral(u, np.array([[0.2, 0.0], [1.0, 0.2]]))
apply(singular_inner([(1.0, 0.5)]), np.array([[0.2, 0.0], [1.0, 0.2]]))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_blaschke_solve_on_a_non_contraction_still_checks_conditioning():
    # rho(T) = 0.5 but ||T|| = 1e9, so no Neumann bound applies, and
    # I - conj(alpha) T at alpha = 0.5 has condition number about 4e17
    T = np.array([[0.5, 1e9], [0.0, 0.5]], dtype=complex)
    assert np.linalg.cond(np.eye(2) - 0.5 * T) > 1e14
    with pytest.raises(ConditioningError):
        apply(blaschke_factor(0.5), T)


def test_blaschke_solves_on_a_model_operator_skip_the_svd_condition_test(monkeypatch):
    calls = []
    original = np.linalg.cond

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counting)
    b = blaschke_product([0.9, 0.9, -0.5j, 0.3, 0.0])
    T = build_model_operator(b).matrix
    # ||T||_2 = 1 and |alpha| <= 0.95 bound the condition number by 39
    assert operator_norm(apply(b, T)) <= 1e-12
    assert operator_norm(apply(blaschke_product([0.95, -0.2]), T)) <= 1.0 + 1e-12
    assert calls == []


def test_operator_norm_is_spectral_norm():
    rng = np.random.default_rng(45)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert operator_norm(A) == pytest.approx(np.linalg.svd(A, compute_uv=False)[0])
