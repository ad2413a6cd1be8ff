import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modelspace import (
    CircleSampler,
    ModelSpaceBasis,
    apply,
    blaschke_product,
    build_model_operator,
    circle_nodes,
    inner_one,
    oracle_compressed_shift,
    quadrature_model_operator,
    singular_inner,
)
from modelspace import model
from modelspace.errors import (
    ConditioningError,
    DegenerateModelError,
    UnsupportedModelError,
)


def sort_complex(values):
    values = np.asarray(values)
    return values[np.lexsort((values.imag, values.real))]


def random_zeros(rng, degree, radius=0.8):
    return [
        radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        for _ in range(degree)
    ]


def test_cubed_coordinate_gives_jordan_block():
    model = build_model_operator(blaschke_product([0.0, 0.0, 0.0]))
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = 1.0
    np.testing.assert_array_equal(model.matrix, expected)
    assert model.samples_used == 0
    quadrature = quadrature_model_operator(blaschke_product([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(quadrature.matrix, expected, atol=1e-12)
    assert quadrature.samples_used == 2048


def test_squared_coordinate_matrix():
    model = build_model_operator(blaschke_product([0.0, 0.0]))
    np.testing.assert_allclose(model.matrix, [[0.0, 0.0], [1.0, 0.0]], atol=1e-12)


def test_single_zero_gives_scalar_multiplication():
    model = build_model_operator(blaschke_product([0.5]))
    np.testing.assert_allclose(model.matrix, [[0.5]], atol=1e-12)
    model = build_model_operator(blaschke_product([0.3 - 0.4j]))
    np.testing.assert_allclose(model.matrix, [[0.3 - 0.4j]], atol=1e-12)


def test_matrix_is_exactly_lower_triangular():
    model = build_model_operator(blaschke_product([0.5, -0.3 + 0.2j, 0.7j, -0.1]))
    upper = model.matrix[np.triu_indices(4, k=1)]
    assert np.all(upper == 0.0)


def test_diagonal_reads_zeros_in_basis_order():
    b = blaschke_product([0.5, -0.5, 0.2j])
    model = build_model_operator(b)
    np.testing.assert_allclose(
        np.diag(model.matrix), model.basis.zeros, atol=1e-12
    )
    np.testing.assert_allclose(
        sort_complex(model.eigenvalues()),
        sort_complex(b.blaschke.zeros_with_multiplicity()),
        atol=1e-12,
    )


def test_repeated_zero_appears_with_multiplicity():
    model = build_model_operator(blaschke_product([0.3, 0.3]))
    np.testing.assert_allclose(np.diag(model.matrix), [0.3, 0.3], atol=1e-12)
    assert abs(model.matrix[1, 0]) > 0.5  # genuinely non-diagonalizable


def test_chain_basis_is_orthonormal():
    rng = np.random.default_rng(31)
    basis = ModelSpaceBasis(tuple(random_zeros(rng, 6)))
    z = circle_nodes(4096)
    E = basis.evaluate(z)
    gram = E @ E.conj().T / z.size
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-10


def test_basis_is_orthogonal_to_shifted_symbol():
    rng = np.random.default_rng(32)
    zeros = random_zeros(rng, 4)
    b = blaschke_product(zeros)
    basis = ModelSpaceBasis(tuple(zeros))
    z = circle_nodes(4096)
    E = basis.evaluate(z)
    for m in range(4):
        shifted = b(z) * z**m
        overlap = E @ np.conj(shifted) / z.size
        assert np.max(np.abs(overlap)) <= 1e-12


def test_symbol_annihilates_its_model_operator():
    rng = np.random.default_rng(33)
    b = blaschke_product(random_zeros(rng, 5))
    model = build_model_operator(b)
    residual = np.linalg.norm(apply(b, model.matrix), 2)
    assert residual <= 1e-8


def test_model_norm_is_contractive():
    rng = np.random.default_rng(34)
    for degree in (2, 4, 6):
        model = build_model_operator(blaschke_product(random_zeros(rng, degree)))
        assert np.linalg.norm(model.matrix, 2) <= 1.0 + 1e-10


def test_constant_symbol_is_degenerate():
    with pytest.raises(DegenerateModelError):
        build_model_operator(inner_one())


def test_singular_symbol_is_unsupported():
    with pytest.raises(UnsupportedModelError):
        build_model_operator(singular_inner([(0.0, 1.0)]))


def test_desk_scale_caps_are_enforced():
    with pytest.raises(ConditioningError):
        build_model_operator(blaschke_product([0.96]))
    with pytest.raises(ConditioningError):
        build_model_operator(blaschke_product([0.1] * 17))


def test_custom_sampler_is_respected():
    model = quadrature_model_operator(
        blaschke_product([0.4, -0.2]), sampler=CircleSampler(sample_count=512)
    )
    assert model.samples_used == 1024
    np.testing.assert_allclose(np.diag(model.matrix), [-0.2, 0.4], atol=1e-12)


# ------------------------------------------------- closed form vs quadrature


def _closed_form_cases():
    rng = np.random.default_rng(36)
    cases = [[0.95] * 16, [0.0] * 16, [0.0, 0.5, 0.0, -0.3j], [0.7j, 0.7j, -0.2 + 0.1j]]
    for degree in (1, 2, 3, 5, 8, 12, 16):
        cases.append(random_zeros(rng, degree, radius=0.95))
        repeated = random_zeros(rng, degree, radius=0.95)
        cases.append(repeated[:-1] + repeated[:1])
        with_origin = random_zeros(rng, degree, radius=0.95)
        cases.append(with_origin[:-1] + [0.0])
    # 0.95 * exp(i t) can round to a modulus just above the cap
    cases.append([0.9499 * np.exp(2j * np.pi * k / 16) for k in range(16)])
    return cases


@pytest.mark.parametrize("zeros", _closed_form_cases())
def test_closed_form_matches_quadrature_entrywise(zeros):
    # entrywise, so a phase convention error shows even though it would be
    # invisible to the unitarily invariant truncated-shift oracle
    b = blaschke_product(zeros)
    closed = build_model_operator(b)
    quadrature = quadrature_model_operator(b)
    assert closed.basis.zeros == quadrature.basis.zeros
    assert np.max(np.abs(closed.matrix - quadrature.matrix)) <= 1e-13


_disk_point = st.builds(
    lambda r, t: r * np.exp(2j * np.pi * t),
    st.floats(0.0, 0.9499),
    st.floats(0.0, 1.0),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_disk_point, min_size=1, max_size=16))
@example([0.5, 5e-324, -1e-320 - 1e-320j])  # subnormal moduli
def test_closed_form_is_a_contraction_with_rank_one_defect(zeros):
    M = build_model_operator(blaschke_product(zeros)).matrix
    assert np.linalg.norm(M, 2) <= 1.0 + 1e-12
    defect = np.linalg.svd(np.eye(M.shape[0]) - M @ M.conj().T, compute_uv=False)
    assert defect[1:].max(initial=0.0) <= 1e-13


# ----------------------------------------------------------------- oracle


def test_oracle_on_cubed_coordinate():
    matrix, trunc = oracle_compressed_shift(blaschke_product([0.0, 0.0, 0.0]), 24)
    assert trunc == 48
    sv = np.linalg.svd(matrix, compute_uv=False)
    np.testing.assert_allclose(sv, [1.0, 1.0, 0.0], atol=1e-10)
    np.testing.assert_allclose(
        np.linalg.matrix_power(matrix, 3), np.zeros((3, 3)), atol=1e-10
    )
    np.testing.assert_allclose(np.linalg.eigvals(matrix), np.zeros(3), atol=1e-6)


def test_oracle_agrees_with_closed_form_build():
    rng = np.random.default_rng(35)
    zeros = random_zeros(rng, 4)
    model = build_model_operator(blaschke_product(zeros))
    oracle, _ = oracle_compressed_shift(blaschke_product(zeros), 8 * 4)
    eig_dev = np.max(
        np.abs(sort_complex(np.linalg.eigvals(oracle)) - sort_complex(model.eigenvalues()))
    )
    assert eig_dev <= 1e-8
    sv_model = np.linalg.svd(model.matrix, compute_uv=False)
    sv_oracle = np.linalg.svd(oracle, compute_uv=False)
    assert np.max(np.abs(sv_model - sv_oracle)) <= 1e-8


def test_oracle_truncation_bounds():
    b = blaschke_product([0.2, 0.4])
    with pytest.raises(ValueError):
        oracle_compressed_shift(b, 15)  # below 8x degree
    with pytest.raises(ValueError):
        oracle_compressed_shift(b, 2000)  # above the refinement cap


def _shifted_symbol_columns(zeros, dim):
    """Columns b, z b, ..., z^(dim - deg - 1) b of the truncated coefficients."""
    coeffs = model._taylor_of_blaschke(zeros, dim)
    m = dim - len(zeros)
    B = np.zeros((dim, m), dtype=complex)
    for j in range(m):
        B[j:, j] = coeffs[: dim - j]
    return B


@pytest.mark.parametrize("dim", [64, 256, 1024])
@pytest.mark.parametrize("zeros", [[0.0, 0.5, -0.3j], [0.5, 0.5, 0.5], [0.9] * 6])
def test_oracle_complement_from_reflectors(zeros, dim):
    matrix, frame = model._truncated_compression(zeros, dim)
    deg = len(zeros)
    B = _shifted_symbol_columns(zeros, dim)
    # Householder QR is orthonormal to O(dim u): at dim 1024 the complete QR
    # below is itself off by 1.4e-13 on [0.5] * 3
    floor = max(1e-13, 2 * dim * np.finfo(float).eps)
    assert np.linalg.norm(frame.conj().T @ frame - np.eye(deg), 2) <= floor
    assert np.linalg.norm(B.conj().T @ frame, 2) <= 1e-13
    q, _ = np.linalg.qr(B, mode="complete")
    assert np.max(scipy.linalg.subspace_angles(frame, q[:, dim - deg :])) <= 1e-12
    shift = np.eye(dim, k=-1)
    assert np.max(np.abs(matrix - frame.conj().T @ shift @ frame)) <= 1e-14
