import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modelspace import (
    apply,
    blaschke_product,
    build_model_operator,
    inner_one,
    oracle_compressed_shift,
    singular_inner,
)
from modelspace import model, verify
from modelspace.errors import (
    AccuracyError,
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
        np.diag(model.matrix), b.blaschke.zeros_with_multiplicity(), atol=1e-12
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


def _chain_basis(zeros, dim=4096):
    """Taylor coefficients of the chain basis, one column per zero.

    e_k = s_k k_{a_k} chain_k with k_a = 1/(1 - conj(a) z), s_k =
    sqrt(1 - |a_k|^2), and the chain times the factor (|a|/a)(a - z)/(1 -
    conj(a) z) for the next zero (z at a = 0).  The phase |a|/a is read
    from the argument, which subnormal zeros keep exactly.
    """
    E = np.empty((dim, len(zeros)), dtype=complex)
    chain = np.zeros(dim, dtype=complex)
    chain[0] = 1.0
    for k, a in enumerate(zeros):
        a = complex(a)
        kernel = scipy.signal.lfilter([1.0], [1.0, -np.conj(a)], chain)
        E[:, k] = np.sqrt(1.0 - abs(a) ** 2) * kernel
        shifted = np.concatenate(([0.0], kernel[:-1]))
        chain = shifted if a == 0 else np.exp(-1j * np.angle(a)) * (a * kernel - shifted)
    return E


def _chain_reference(zeros):
    # M[j, k] = <z e_k, e_j>, and z moves coefficients down one place
    E = _chain_basis(zeros)
    return E[1:].conj().T @ E[:-1]


def test_chain_basis_is_orthonormal():
    rng = np.random.default_rng(31)
    E = _chain_basis(random_zeros(rng, 6))
    assert np.max(np.abs(E.conj().T @ E - np.eye(6))) <= 1e-13


def test_basis_is_orthogonal_to_shifted_symbol():
    rng = np.random.default_rng(32)
    zeros = random_zeros(rng, 4)
    # b = N/D with N = prod (a - z) and D = prod (1 - conj(a) z), up to a
    # unimodular constant, expanded by one rational filter
    num, den = np.ones(1, dtype=complex), np.ones(1, dtype=complex)
    for a in zeros:
        num = np.convolve(num, [a, -1.0])
        den = np.convolve(den, [1.0, -np.conj(a)])
    impulse = np.zeros(4096, dtype=complex)
    impulse[0] = 1.0
    b = scipy.signal.lfilter(num, den, impulse)
    E = _chain_basis(zeros)
    for m in range(4):
        shifted = np.concatenate((np.zeros(m), b[: b.size - m]))
        assert np.max(np.abs(E.conj().T @ shifted)) <= 1e-12


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


# ------------------------------------------ closed form vs the chain basis


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


# The name is kept from the circle-quadrature reference this test used to
# read, so its case ids stay stable.
@pytest.mark.parametrize("zeros", _closed_form_cases())
def test_closed_form_matches_quadrature_entrywise(zeros):
    # entrywise, so a phase convention error shows even though it would be
    # invisible to the unitarily invariant truncated-shift oracle
    closed = build_model_operator(blaschke_product(zeros))
    reference = _chain_reference(closed.symbol.blaschke.zeros_with_multiplicity())
    assert np.max(np.abs(closed.matrix - reference)) <= 1e-13


_disk_point = st.builds(
    lambda r, t: r * np.exp(2j * np.pi * t),
    st.floats(0.0, 0.9499),
    st.floats(0.0, 1.0),
)


@st.composite
def _symbol_zeros(draw):
    """Up to 16 zeros from a pool of disk points and the origin, so that
    repeated zeros and zeros at 0 are common."""
    pool = draw(st.lists(_disk_point | st.just(0j), min_size=1, max_size=16))
    picks = st.integers(0, len(pool) - 1)
    return [pool[i] for i in draw(st.lists(picks, min_size=1, max_size=16))]


@settings(max_examples=60, deadline=None)
@given(_symbol_zeros())
@example([0.5, 5e-324, -1e-320 - 1e-320j])  # subnormal moduli
def test_closed_form_matches_the_chain_basis_on_random_symbols(zeros):
    closed = build_model_operator(blaschke_product(zeros))
    reference = _chain_reference(closed.symbol.blaschke.zeros_with_multiplicity())
    assert np.max(np.abs(closed.matrix - reference)) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(st.lists(_disk_point, min_size=1, max_size=16))
@example([0.5, 5e-324, -1e-320 - 1e-320j])  # subnormal moduli
def test_closed_form_is_a_contraction_with_rank_one_defect(zeros):
    M = build_model_operator(blaschke_product(zeros)).matrix
    assert np.linalg.norm(M, 2) <= 1.0 + 1e-12
    defect = np.linalg.svd(np.eye(M.shape[0]) - M @ M.conj().T, compute_uv=False)
    assert defect[1:].max(initial=0.0) <= 1e-13


def _indexed_closed_form(zeros):
    """The closed form as built with n x n index arrays and np.tril, the
    reference for the cached masks' bits."""
    a = np.asarray(zeros, dtype=complex).reshape(-1)
    n = a.size
    r = np.abs(a)
    s = np.sqrt(1.0 - r**2)
    _, exponent = np.frexp(np.maximum(np.abs(a.real), np.abs(a.imag)))
    re, im = np.ldexp(a.real, -exponent), np.ldexp(a.imag, -exponent)
    mod = np.hypot(re, im)
    nonzero = mod > 0
    phase = np.ones(n, dtype=complex)
    phase.real[nonzero] = -re[nonzero] / mod[nonzero]
    phase.imag[nonzero] = -im[nonzero] / mod[nonzero]
    rows, cols = np.indices((n, n))
    moduli = np.cumprod(np.where(rows >= cols + 2, r[rows - 1], 1.0), axis=0)
    matrix = np.tril(s[:, None] * (phase * s)[None, :] * moduli, -1)
    matrix[np.diag_indices(n)] = a
    return matrix


_SPECIAL_ZEROS = [
    0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    5e-324 + 0j, complex(0.0, -5e-324), complex(1e-310, -3e-320),
    0.95 + 0j, -0.95j, 0.95 * np.exp(2j), complex(-0.5, -0.0),
]


@pytest.mark.parametrize("n", range(17))
def test_closed_form_keeps_the_bits_of_the_indexed_build(n):
    rng = np.random.default_rng(400 + n)
    for _ in range(40):
        zeros = []
        for _ in range(n):
            draw = rng.uniform()
            if draw < 0.3:
                zeros.append(_SPECIAL_ZEROS[rng.integers(len(_SPECIAL_ZEROS))])
            elif zeros and draw < 0.5:
                zeros.append(zeros[rng.integers(len(zeros))])
            else:
                zeros.append(0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
        built = model.compressed_shift_matrix(zeros)
        assert built.tobytes() == _indexed_closed_form(zeros).tobytes()
        # the cached masks stay read-only, so no call can change the next
        assert not any(mask.flags.writeable for mask in model._lower_masks(n))


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
        oracle_compressed_shift(b, 5000)  # above the refinement cap, 8192 / 2


@pytest.mark.parametrize(
    "zeros", [[0.0, 0.5, -0.3j], [0.9] * 4, [0.85, -0.85j, 0.6 + 0.6j, 0.3]]
)
def test_oracle_stops_where_the_largest_principal_angle_falls_to_1e_8(zeros):
    expected = _first_converged_truncation(
        zeros, lambda zeros, dim: model._truncated_compression(zeros, dim)[1]
    )
    assert oracle_compressed_shift(blaschke_product(zeros), 8 * len(zeros))[1] == expected


def _first_converged_truncation(zeros, frame_of):
    """The first doubling from 8 deg whose largest principal angle to the
    previous level is at most 1e-8, measured by scipy."""
    dim = 8 * len(zeros)
    frame = frame_of(zeros, dim)
    while dim * 2 <= model._ORACLE_MAX_DIM:
        dim *= 2
        frame2 = frame_of(zeros, dim)
        padded = np.zeros_like(frame2)
        padded[: frame.shape[0]] = frame
        frame = frame2
        if np.max(scipy.linalg.subspace_angles(padded, frame2)) <= 1e-8:
            return dim
    raise AssertionError("no truncation up to %d converged" % model._ORACLE_MAX_DIM)


@pytest.mark.parametrize("k", range(1, 17))
def test_oracle_converges_on_a_zero_of_every_multiplicity_at_the_modulus_cap(k):
    # coefficients decay like n^(k-1) 0.95^n: [0.95]^5 needs 2560 terms,
    # [0.95]^8 and [0.95]^16 need 4096
    zeros = [0.95] * k
    oracle, trunc = oracle_compressed_shift(blaschke_product(zeros), 8 * k)
    assert trunc == _first_converged_truncation(
        zeros, lambda zeros, dim: model._truncated_compression(zeros, dim)[1]
    )
    if k <= 9:
        # the compressed shift of b has singular values 1 and |b(0)| = 0.95^k;
        # from k = 10 on the oracle's frame is off by more than that (see
        # the README's known gaps)
        sv = np.linalg.svd(oracle, compute_uv=False)
        assert np.max(np.abs(sv - np.array([1.0] * (k - 1) + [0.95**k]))) <= 1e-4


def test_oracle_reports_the_projector_gap_at_the_truncation_cap(monkeypatch):
    # 0.9^32 is far from 1e-8, so two doublings from 16 cannot converge
    monkeypatch.setattr(model, "_ORACLE_MAX_DIM", 64)
    with pytest.raises(AccuracyError, match="projector gap .* dimension 64") as info:
        oracle_compressed_shift(blaschke_product([0.9, -0.5j]), 16)
    assert info.value.estimate > np.sin(1e-8)


@pytest.mark.parametrize("alpha", [0.0, 0.5, -0.3j, 0.6 - 0.75j])
def test_series_division_by_a_factor_matches_its_recurrence(alpha):
    x = np.random.default_rng(37).standard_normal((1000, 2)) @ [1.0, 1j]
    expected = x.copy()
    for n in range(1, x.size):
        expected[n] += np.conj(alpha) * expected[n - 1]
    y = model._divide_by_factor(x, np.conj(alpha))
    assert np.max(np.abs(y - expected)) <= 1e-13 * np.max(np.abs(expected))


def _blaschke_coefficients(zeros, dim):
    """First dim Taylor coefficients of the Blaschke product, one factor at a time.

    Each factor multiplies by a - z and then divides by 1 - conj(a) z
    through the plain recurrence y_n = x_n + conj(a) y_{n-1}.  Unimodular
    constants are left out: they change no span.
    """
    coeffs = np.zeros(dim, dtype=complex)
    coeffs[0] = 1.0
    for alpha in zeros:
        product = alpha * coeffs
        product[1:] -= coeffs[:-1]
        for n in range(1, dim):
            product[n] += np.conj(alpha) * product[n - 1]
        coeffs = product
    return coeffs


def _shifted_symbol_columns(zeros, dim):
    """Columns b, z b, ..., z^(dim - deg - 1) b of the truncated coefficients."""
    coeffs = _blaschke_coefficients(zeros, dim)
    m = dim - len(zeros)
    B = np.zeros((dim, m), dtype=complex)
    for j in range(m):
        B[j:, j] = coeffs[: dim - j]
    return B


def _dense_complement(zeros, dim):
    """Last deg columns of the complete Q of a dense QR of the shifted columns."""
    B = _shifted_symbol_columns(zeros, dim)
    q, _ = np.linalg.qr(B, mode="complete")
    return B, q[:, B.shape[1] :]


@pytest.mark.parametrize("dim", [64, 256, 1024])
@pytest.mark.parametrize("zeros", [[0.0, 0.5, -0.3j], [0.5, 0.5, 0.5], [0.9] * 6])
def test_oracle_complement_from_reflectors(zeros, dim):
    # the frame is the Q of a thin Householder QR; the reference is the
    # complete Q of a dense one on the shifted columns themselves
    matrix, frame = model._truncated_compression(zeros, dim)
    deg = len(zeros)
    B, complement = _dense_complement(zeros, dim)
    # Householder QR is orthonormal to O(dim u)
    floor = max(1e-13, 2 * dim * np.finfo(float).eps)
    assert np.linalg.norm(frame.conj().T @ frame - np.eye(deg), 2) <= floor
    # six zeros at 0.9 make the complement sensitive to rounding in either
    # route: about 1e-9 here, against 1.3e-6 at dim 256 for a frame from
    # coefficients divided as power series
    near_circle = max(map(abs, zeros)) >= 0.9
    angle_tol, residual_tol = (1e-8, 1e-8) if near_circle else (1e-12, 1e-13)
    assert np.linalg.norm(B.conj().T @ frame, 2) <= residual_tol
    assert np.max(scipy.linalg.subspace_angles(frame, complement)) <= angle_tol
    shift = np.eye(dim, k=-1)
    assert np.max(np.abs(matrix - frame.conj().T @ shift @ frame)) <= 1e-14


def test_oracle_truncation_matches_a_dense_qr_loop_on_the_model_suite_symbols():
    # the symbols model_suite(1) draws, in order
    rng = verify._suite_rng(1, "models")
    for _ in range(50):
        b = verify.random_finite_blaschke(rng, 2, 6)
        zeros = b.blaschke.zeros_with_multiplicity()
        _, trunc = oracle_compressed_shift(b, 8 * len(zeros))
        dense = _first_converged_truncation(
            zeros, lambda zeros, dim: _dense_complement(zeros, dim)[1]
        )
        assert trunc == dense, zeros


def test_oracle_never_imports_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    script = """
import json, sys
from modelspace import blaschke_product, oracle_compressed_shift
oracle_compressed_shift(blaschke_product([0.5, -0.3j]), 16)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == []
