import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modelspace import extraction
from modelspace import (
    ExtractionCertificate,
    Polynomial,
    Subspace,
    apply,
    blaschke_factor,
    blaschke_product,
    build_model_operator,
    canonical_dumps,
    certificate_to_json,
    cyclic_subspace,
    divisor_kernel_subspace,
    equiv,
    exact_divide,
    extract_invariant_subspace,
    invariance_residual,
    is_multiplicity_free,
    minimal_function,
    model_from_json,
    model_to_json,
    parse_json,
    restrict,
    verify_algebraic,
)
from modelspace.calculus import _blaschke_factors
from modelspace.errors import (
    ConditioningError,
    IllConditionedSpectrumError,
    ImpossibleByTheoryError,
    ModelSpaceError,
    NearBoundarySpectrumError,
    NotADivisorError,
    NotInvariantError,
    RankAmbiguityError,
    TrivialAnnihilatorError,
    TrivialElementError,
)
from modelspace.inner import ATOM_MERGE_TOL, BlaschkeFunction, InnerFunction, divides
from modelspace.model import compressed_shift_matrix

S3 = build_model_operator(blaschke_product([0.0, 0.0, 0.0])).matrix
E = np.eye(3, dtype=complex)
# S3 in the reversed basis: the same exact entries, now above the diagonal,
# so extraction does not read a symbol off it and takes T's characteristic
# product
S3_REVERSED = S3[::-1, ::-1]


def jordan_cell(eigenvalue, size):
    J = np.eye(size, dtype=complex) * eigenvalue
    J[np.arange(1, size), np.arange(size - 1)] = 1.0
    return J


def conjugated(rng, A):
    n = A.shape[0]
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q @ A @ q.conj().T


def reversed_basis(T, h):
    """P T P and P h for the permutation P that reverses the basis: exact
    entries, but not a closed-form compressed shift (P T P is upper
    triangular), so extraction takes T's characteristic product."""
    return np.asarray(T)[::-1, ::-1], np.asarray(h)[::-1]


def random_model(rng, degree, radius=0.75):
    zeros = [
        radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        for _ in range(degree)
    ]
    return build_model_operator(blaschke_product(zeros))


# ---------------------------------------------------------------- subspaces


def test_subspace_requires_orthonormal_frame():
    with pytest.raises(ValueError):
        Subspace(np.ones((3, 2)), 3)
    with pytest.raises(ValueError):
        Subspace(np.eye(3), 4)
    with pytest.raises(ValueError):
        Subspace(np.ones((2, 3)) / np.sqrt(2.0), 2)
    # NaN fails every comparison, the orthonormality defect test included
    with pytest.raises(ValueError, match="non-finite"):
        Subspace(np.full((3, 1), np.nan), 3)


def test_subspace_projector_and_angles():
    sub = Subspace(E[:, :2], 3)
    P = sub.projector()
    np.testing.assert_allclose(P @ P, P, atol=1e-14)
    assert sub.dimension == 2
    # angle 0 to a line inside, pi/2 to the orthogonal complement
    np.testing.assert_allclose(P @ E[:, :1], E[:, :1], atol=1e-14)
    np.testing.assert_allclose(P @ E[:, 2:], 0.0, atol=1e-14)


def test_cyclic_subspace_dimensions_on_shift():
    assert cyclic_subspace(S3, E[:, 0]).dimension == 3
    assert cyclic_subspace(S3, E[:, 1]).dimension == 2
    assert cyclic_subspace(S3, E[:, 2]).dimension == 1


def test_cyclic_subspace_rejects_zero_vector():
    with pytest.raises(TrivialElementError):
        cyclic_subspace(S3, np.zeros(3))
    with pytest.raises(ValueError):
        cyclic_subspace(S3, np.ones(4))


def test_invariance_residual_values():
    assert invariance_residual(S3, E) == pytest.approx(0.0, abs=1e-14)
    assert invariance_residual(S3, E[:, 2:]) == pytest.approx(0.0, abs=1e-14)
    # T e1 = e2 leaves the line through e1 entirely
    assert invariance_residual(S3, E[:, :1]) == pytest.approx(1.0, abs=1e-14)


def test_restrict_to_full_space_reproduces_matrix():
    compressed = restrict(S3, Subspace(E, 3))
    assert np.array_equal(compressed, S3)


def test_restrict_to_tail_subspace():
    compressed = restrict(S3, Subspace(E[:, 1:], 3))
    np.testing.assert_allclose(compressed, [[0.0, 0.0], [1.0, 0.0]], atol=1e-14)


def test_restrict_refuses_non_invariant_subspace():
    with pytest.raises(NotInvariantError) as info:
        restrict(S3, Subspace(E[:, :1], 3))
    assert info.value.residual == pytest.approx(1.0, abs=1e-12)


def test_restrict_of_zero_subspace_is_empty():
    compressed = restrict(S3, Subspace(np.zeros((3, 0)), 3))
    assert compressed.shape == (0, 0)


@pytest.mark.parametrize("c", [1e-9, 1e-12, 2.0**-30])
def test_restrict_cuts_invariance_relative_to_the_norm_of_t(c):
    # c S3 e1 = c e2 leaves the line through e1 with residual c, which an
    # absolute cut of 1e-8 would accept
    with pytest.raises(NotInvariantError) as info:
        restrict(c * S3, Subspace(E[:, :1], 3))
    assert info.value.residual == pytest.approx(c, rel=1e-12)
    np.testing.assert_allclose(
        restrict(c * S3, Subspace(E[:, 1:], 3)), [[0.0, 0.0], [c, 0.0]], atol=1e-14 * c
    )


@pytest.mark.parametrize("c, refused", [(1.0, False), (1e-3, True)])
def test_divisor_kernel_cuts_invariance_relative_to_the_norm_of_t(monkeypatch, c, refused):
    # a kernel residual of 1e-9 passes at ||T||_2 = 1 and is refused at 1e-3
    compress = extraction._compress
    monkeypatch.setattr(extraction, "_compress", lambda T, F: (compress(T, F)[0], 1e-9))
    if refused:
        with pytest.raises(NotInvariantError):
            divisor_kernel_subspace(c * S3, blaschke_factor(0.0))
    else:
        assert divisor_kernel_subspace(c * S3, blaschke_factor(0.0)).dimension == 1


# --------------------------------------------------------- minimal function


def test_minimal_function_of_nilpotent_jordan_cell():
    m = minimal_function(jordan_cell(0.0, 3))
    assert equiv(m, blaschke_product([0.0, 0.0, 0.0]))


def test_minimal_function_of_distinct_diagonal():
    m = minimal_function(np.diag([0.2, 0.5]))
    assert equiv(m, blaschke_product([0.2, 0.5]))


def test_minimal_function_of_scalar_matrix_has_degree_one():
    m = minimal_function(np.diag([0.3, 0.3, 0.3]))
    ((alpha, mult),) = m.blaschke.atoms
    assert mult == 1
    assert alpha == pytest.approx(0.3, abs=1e-12)


def test_minimal_function_sees_partial_defectiveness():
    T = scipy.linalg.block_diag(jordan_cell(0.3, 2), np.array([[0.3]]))
    m = minimal_function(T)
    ((alpha, mult),) = m.blaschke.atoms
    assert mult == 2
    assert alpha == pytest.approx(0.3, abs=1e-9)


def test_minimal_function_of_conjugated_jordan_cells():
    rng = np.random.default_rng(51)
    for size in range(2, 9):
        T = conjugated(rng, jordan_cell(0.0, size))
        m = minimal_function(T)
        assert equiv(m, blaschke_product([0.0] * size), zero_tol=1e-6)


def test_minimal_function_of_model_recovers_symbol():
    rng = np.random.default_rng(52)
    for _ in range(5):
        model = random_model(rng, 4)
        m = minimal_function(model.matrix)
        assert equiv(m, model.symbol, zero_tol=1e-6)


def test_minimal_function_annihilates():
    rng = np.random.default_rng(53)
    for _ in range(10):
        w = 0.6 * np.sqrt(rng.uniform(size=4)) * np.exp(2j * np.pi * rng.uniform(size=4))
        V = np.eye(4) + 0.3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        T = V @ np.diag(w) @ np.linalg.inv(V)
        m = minimal_function(T)
        assert np.linalg.norm(apply(m, T), 2) <= 1e-7 * max(1.0, np.linalg.norm(T, 2))


def test_minimal_function_flags_ambiguous_gap():
    # 2e-8 lies inside AMBIGUITY_FACTOR * CLUSTER_RADIUS * ||T||_2 = 3e-8
    # at any scale; at c = 1e-6 the two means also merge in an InnerFunction
    for c in (1.0, 1e-6):
        with pytest.raises(IllConditionedSpectrumError):
            minimal_function(c * np.diag([0.3, 0.3 + 2e-8]))


def test_minimal_function_keeps_a_gap_outside_the_ambiguity_band():
    m = minimal_function(np.diag([0.3, 0.3 + 5e-8]))
    assert [mult for _, mult in m.blaschke.atoms] == [1, 1]
    assert equiv(m, blaschke_product([0.3, 0.3 + 5e-8]), zero_tol=1e-15)


@pytest.mark.parametrize("c", [0.3, 0.7, 0.1 + 0.2j])
def test_a_scalar_matrix_is_one_eigenvector_line(c):
    # the cluster mean can miss c by an ulp, so b_c(T) is a rounding-sized
    # multiple of I that shrinks no vector relative to its size; it is
    # taken as exactly zero, and every h is an eigenvector
    T = c * np.eye(3, dtype=complex)
    h = np.array([1.0, -2.0, 0.5j])
    cert, minimal = extraction._extract(T, h)
    assert cert.branch == "eigenvector_line"
    ((alpha, mult),) = minimal.blaschke.atoms
    assert mult == 1 and alpha == pytest.approx(c, abs=1e-15)
    assert minimal == minimal_function(T)


def test_minimal_function_dimension_cap():
    with pytest.raises(ConditioningError, match="dimension <= 12, got 13"):
        minimal_function(np.diag(np.linspace(0.1, 0.5, 13)))


def test_minimal_function_requires_interior_spectrum():
    with pytest.raises(NearBoundarySpectrumError):
        minimal_function(np.diag([0.9999995, 0.1]))


def _pairwise_clusters(T, eigs, vectors, cluster_radius, defect_tol):
    """Reference clustering: one pair at a time, one SVD per probe point."""
    n = eigs.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    eye = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            if find(i) == find(j):
                continue
            a, b = eigs[i], eigs[j]
            if abs(a - b) <= cluster_radius or all(
                np.linalg.svd(T - (a + (b - a) * t) * eye, compute_uv=False)[-1]
                <= defect_tol
                for t in (0.25, 0.5, 0.75)
            ):
                parent[find(j)] = find(i)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [np.array(idx, dtype=int) for idx in groups.values()]


def _outcome(T):
    try:
        return minimal_function(T).blaschke.atoms
    except IllConditionedSpectrumError as e:
        return str(e)


def assert_stacked_probes_match_pairwise(monkeypatch, T):
    eigs, vectors = np.linalg.eig(T)
    norm = np.linalg.norm(T, 2)
    radius, tol = extraction.CLUSTER_RADIUS * norm, extraction.DEFECT_TOL * norm
    stacked = extraction._spectral_clusters(T, eigs, vectors, radius, tol)
    pairwise = _pairwise_clusters(T, eigs, vectors, radius, tol)
    assert [list(c) for c in stacked] == [list(c) for c in pairwise]
    atoms = _outcome(T)
    with monkeypatch.context() as m:
        m.setattr(extraction, "_spectral_clusters", _pairwise_clusters)
        assert _outcome(T) == atoms
    return atoms


@pytest.mark.parametrize("size", range(2, 13))
@pytest.mark.parametrize("eigenvalue", [0.0, 0.5, 0.9, -0.3 + 0.4j])
def test_stacked_probes_match_pairwise_on_jordan_cells(monkeypatch, eigenvalue, size):
    rng = np.random.default_rng(59)
    for T in (jordan_cell(eigenvalue, size), conjugated(rng, jordan_cell(eigenvalue, size))):
        assert_stacked_probes_match_pairwise(monkeypatch, T)


def test_stacked_probes_match_pairwise_on_clusters_joined_only_defectively(monkeypatch):
    T = conjugated(
        np.random.default_rng(60),
        scipy.linalg.block_diag(jordan_cell(0.3, 4), jordan_cell(-0.3 + 0.2j, 3)),
    )
    eigs = np.linalg.eigvals(T)
    gaps = np.abs(eigs[:, None] - eigs[None, :])[~np.eye(7, dtype=bool)]
    assert gaps.min() > 1e3 * extraction.CLUSTER_RADIUS  # no pair is close
    atoms = assert_stacked_probes_match_pairwise(monkeypatch, T)
    assert sorted(mult for _, mult in atoms) == [3, 4]


@pytest.mark.parametrize("size, gap", [(4, 2e-3), (4, 3e-3), (3, 2e-4)])
def test_stacked_probes_keep_a_neighbour_that_only_the_later_probes_separate(
    monkeypatch, size, gap
):
    # the probe at t = 0.25 lies inside the pseudospectrum of the Jordan
    # cell, so only the probes at 0.5 or 0.75 keep 0.3 + gap apart
    T = scipy.linalg.block_diag(jordan_cell(0.3, size), [[0.3 + gap]])
    atoms = assert_stacked_probes_match_pairwise(monkeypatch, T)
    assert [mult for _, mult in atoms] == [size, 1]
    assert atoms[1][0] == pytest.approx(0.3 + gap, abs=1e-12)


@pytest.mark.parametrize("delta", [2e-3, 1e-4, 1e-5])
def test_stacked_probes_match_pairwise_beside_a_jordan_cell(monkeypatch, delta):
    # the neighbour 0.3 + delta moves from apart to inside the cell's
    # pseudospectrum, next to points far from the cell
    T = scipy.linalg.block_diag(jordan_cell(0.3, 4), np.diag([0.3 + delta, 0.5, -0.2j]))
    for A in (T, conjugated(np.random.default_rng(64), T)):
        assert_stacked_probes_match_pairwise(monkeypatch, A)


def _double_zero_model(degree):
    """Model of the given degree: degree - 1 distinct zeros, one of them doubled."""
    zeros = [(0.2 + 0.05 * k) * np.exp(2j * np.pi * k / (degree - 1)) for k in range(degree - 1)]
    return build_model_operator(blaschke_product(zeros + [zeros[3]])).matrix


@pytest.mark.parametrize("degree", range(9, 13))
def test_stacked_probes_match_pairwise_on_double_zero_models(monkeypatch, degree):
    T = _double_zero_model(degree)
    for A in (T, conjugated(np.random.default_rng(degree), T)):
        atoms = assert_stacked_probes_match_pairwise(monkeypatch, A)
        assert sorted(mult for _, mult in atoms) == [1] * (degree - 2) + [2]


_repeated_zeros = st.lists(
    st.builds(
        lambda r, t: r * np.exp(2j * np.pi * t), st.floats(0.0, 0.9), st.floats(0.0, 1.0)
    ),
    min_size=1,
    max_size=4,
).flatmap(
    lambda atoms: st.lists(st.sampled_from(atoms), min_size=1, max_size=12)
)


@settings(max_examples=60, deadline=None)
@given(zeros=_repeated_zeros)
def test_stacked_probes_match_pairwise_on_model_operators(zeros):
    T = build_model_operator(blaschke_product(zeros)).matrix
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_stacked_probes_match_pairwise(monkeypatch, T)


@st.composite
def _screened_operators(draw):
    """Model operators, their unitary conjugates, Jordan cells and
    perturbed Jordan cells: distinct, repeated and defective spectra."""
    zeros = draw(_repeated_zeros)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["model", "conjugated", "jordan", "perturbed"]))
    if kind in ("model", "conjugated"):
        T = build_model_operator(blaschke_product(zeros)).matrix
        return T if kind == "model" else conjugated(rng, T)
    size = draw(st.integers(2, 8))
    T = jordan_cell(zeros[0], size)
    if kind == "perturbed":
        scale = 10.0 ** draw(st.floats(-12.0, -3.0))
        T = T + scale * (
            rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        )
    return T


@settings(max_examples=150, deadline=None)
@given(T=_screened_operators())
def test_eigenvector_bound_stays_below_the_smallest_singular_value(T):
    n = T.shape[0]
    w, V = np.linalg.eig(T)
    rows, cols = np.triu_indices(n, 1)
    z = (
        w[rows][:, None] + (w[cols] - w[rows])[:, None] * np.array([0.25, 0.5, 0.75])
    ).ravel()
    bounds = extraction._smin_lower_bounds(T, w, V, z)
    if bounds is None:
        return
    smin = np.linalg.svd(T - z[:, None, None] * np.eye(n), compute_uv=False)[:, -1]
    # up to the rounding of the SVD itself
    slack = 4.0 * np.finfo(float).eps * max(1.0, np.linalg.norm(T, 2))
    assert np.all(bounds <= smin + slack)


def test_eigenvector_bound_screens_a_singular_eigenvector_basis_out():
    T = jordan_cell(0.0, 3)
    w, V = np.linalg.eig(T)
    assert np.linalg.svd(V, compute_uv=False)[-1] == 0.0
    assert extraction._smin_lower_bounds(T, w, V, np.array([0.5])) is None


def _probed_pairs(monkeypatch):
    """Sizes of the batches that reach the SVD probe, recorded from now on."""
    pairs = []
    original = extraction._defectively_joined

    def counting(T, a, b, tol):
        pairs.append(a.size)
        return original(T, a, b, tol)

    monkeypatch.setattr(extraction, "_defectively_joined", counting)
    return pairs


def test_distinct_zeros_need_no_svd_probe_but_a_jordan_cell_does(monkeypatch):
    pairs = _probed_pairs(monkeypatch)
    zeros = [(0.2 + 0.1 * k) * np.exp(2j * np.pi * k / 8) for k in range(8)]
    model = build_model_operator(blaschke_product(zeros))
    h = np.random.default_rng(61).standard_normal(8) + 0j
    # conjugated, so that no symbol is read off the diagonal
    cert = extract_invariant_subspace(conjugated(np.random.default_rng(61), model.matrix), h)
    assert cert.branch == "divisor_kernel"
    # none of the 28 far pairs of the one clustering of T reaches the SVD
    # probe
    assert pairs == [0]
    # rounding scatters the eigenvalues of a conjugated J_4(0.3) beyond the
    # cluster radius, and its eigenvectors are nearly parallel
    del pairs[:]
    m = minimal_function(conjugated(np.random.default_rng(62), jordan_cell(0.3, 4)))
    assert [mult for _, mult in m.blaschke.atoms] == [4]
    assert pairs[0] > 0


def test_eigenvector_screen_clears_a_conjugated_double_zero_model(monkeypatch):
    # rounding splits the double zero wider than the cluster radius and
    # makes the eigenvectors nearly parallel; with the residual term
    # ||R||_F / s_min outside the bracket, all 66 pairs reached the probe
    T = conjugated(np.random.default_rng(63), _double_zero_model(12))
    pairs = _probed_pairs(monkeypatch)
    m = minimal_function(T)
    assert sorted(mult for _, mult in m.blaschke.atoms) == [1] * 10 + [2]
    assert sum(pairs) <= 2


@pytest.mark.parametrize("t", [0.0, 0.3 - 0.4j, -0.999998, 1e-200j])
def test_minimal_function_of_a_scalar_is_its_blaschke_factor(t):
    m = minimal_function([[t]])
    assert m == blaschke_factor(t)
    assert apply(m, [[t]])[0, 0] == 0.0


def test_minimal_function_of_a_scalar_near_the_circle_is_refused():
    with pytest.raises(NearBoundarySpectrumError):
        minimal_function([[0.9999995]])


def _assert_minimal_annihilators_of_the_shift(T, basis):
    cases = [
        (2, "eigenvector_line", [0.0]),
        (1, "divisor_kernel", [0.0, 0.0]),
        (0, "divisor_kernel", [0.0, 0.0, 0.0]),
    ]
    for column, branch, zeros in cases:
        certificate, minimal = extraction._extract(T, basis[:, column])
        assert certificate.branch == branch
        assert equiv(minimal, blaschke_product(zeros))


def test_cyclic_minimal_function_depends_on_the_vector():
    # S3 is read as the compressed shift of z^3, so z^3 is descended
    _assert_minimal_annihilators_of_the_shift(S3, E)


def test_cyclic_minimal_function_depends_on_the_vector_off_the_closed_form():
    # reversed, T's characteristic product z^3 is descended
    _assert_minimal_annihilators_of_the_shift(S3_REVERSED, E[:, ::-1])


def test_verify_algebraic_residuals():
    theta = blaschke_product([0.0, 0.0, 0.0])
    rng = np.random.default_rng(54)
    h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert verify_algebraic(S3, h, theta) <= 1e-12 * np.linalg.norm(h)
    assert verify_algebraic(S3, E[:, 0], blaschke_factor(0.0)) == pytest.approx(1.0)
    with pytest.raises(TrivialAnnihilatorError):
        verify_algebraic(S3, h, Polynomial((0.0,)))


# ------------------------------------------------------------ divisor kernel


def test_divisor_kernels_of_the_shift():
    k1 = divisor_kernel_subspace(S3, blaschke_factor(0.0))
    assert k1.dimension == 1
    assert np.max(scipy.linalg.subspace_angles(k1.frame, E[:, 2:])) <= 1e-8

    k2 = divisor_kernel_subspace(S3, blaschke_product([0.0, 0.0]))
    assert k2.dimension == 2
    assert np.max(scipy.linalg.subspace_angles(k2.frame, E[:, 1:])) <= 1e-8

    k3 = divisor_kernel_subspace(S3, blaschke_product([0.0, 0.0, 0.0]))
    assert k3.dimension == 3


def test_divisor_kernels_are_nested():
    k1 = divisor_kernel_subspace(S3, blaschke_factor(0.0))
    k2 = divisor_kernel_subspace(S3, blaschke_product([0.0, 0.0]))
    assert np.max(k2.projector() @ k1.frame - k1.frame) <= 1e-10


def test_divisor_kernel_rejects_non_divisor():
    with pytest.raises(NotADivisorError):
        divisor_kernel_subspace(S3, blaschke_factor(0.5))


def test_divisor_kernel_invariance():
    rng = np.random.default_rng(55)
    model = random_model(rng, 5)
    phi = blaschke_factor(model.symbol.blaschke.zeros_with_multiplicity()[2])
    sub = divisor_kernel_subspace(model.matrix, phi)
    assert 1 <= sub.dimension <= 4
    assert invariance_residual(model.matrix, sub.frame) <= 1e-8


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-9, 1e-12, 2.0**-40])
def test_divisor_kernels_of_a_small_jordan_cell_keep_their_dimensions(c):
    # with ||phi(T)||_2 < 1 a rank cut of RANK_TOL * max(1, sigma_1) is an
    # absolute 1e-10, which took ker (c J3)^k for the whole space
    for k in (1, 2, 3):
        kernel = divisor_kernel_subspace(c * S3, blaschke_product([0.0] * k))
        assert kernel.dimension == k
        assert invariance_residual(c * S3, kernel.frame) <= 1e-8 * c


_SMALL_MODEL_ZEROS = [0.5, -0.3, 0.2j]


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-9])
def test_a_scaled_factor_on_a_scaled_model_has_a_line_as_kernel(c):
    T = c * build_model_operator(blaschke_product(_SMALL_MODEL_ZEROS)).matrix
    assert divisor_kernel_subspace(T, blaschke_factor(0.5 * c)).dimension == 1


def test_a_scaled_model_whose_minimal_function_merges_zeros_is_refused():
    # 1e-12 times the zeros are closer than ATOM_MERGE_TOL, so
    # minimal_function refuses before any kernel is cut
    T = 1e-12 * build_model_operator(blaschke_product(_SMALL_MODEL_ZEROS)).matrix
    with pytest.raises(IllConditionedSpectrumError):
        divisor_kernel_subspace(T, blaschke_factor(0.5e-12))


def test_a_factor_far_outside_a_small_spectrum_has_a_trivial_kernel():
    # b_a with |a| = 5e-11 matches the zero of z^3 at the merge tolerance,
    # but b_a(1e-12 J3) is invertible
    assert divisor_kernel_subspace(1e-12 * S3, blaschke_factor(5e-11)).dimension == 0


def _scaled_inner(atoms, k):
    return InnerFunction(blaschke=BlaschkeFunction(tuple(
        (complex(math.ldexp(a.real, k), math.ldexp(a.imag, k)), mult) for a, mult in atoms
    )))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["model", "conjugate", "jordan", "jordan reversed"]),
    zeros=_repeated_zeros,
    k=st.integers(-60, 0),
    seed=st.integers(0, 2**32 - 1),
    powers=st.lists(st.integers(0, 12), min_size=4, max_size=4),
)
@example(kind="jordan", zeros=[0.0] * 3, k=-40, seed=0, powers=[1] * 4)
def test_divisor_kernels_keep_their_dimension_under_a_power_of_two(kind, zeros, k, seed, powers):
    # phi is a divisor of T's minimal function, taken with T to 2**k T
    assume(2 <= len(zeros) <= 8)
    T, _ = _operator_of_kind(kind, zeros, seed)
    try:
        atoms = minimal_function(T).blaschke.atoms
    except ModelSpaceError:
        return
    atoms = tuple((a, min(mult, p)) for (a, mult), p in zip(atoms, powers) if min(mult, p))
    try:
        expected = divisor_kernel_subspace(T, _scaled_inner(atoms, 0)).dimension
    except ModelSpaceError:
        return
    # the scaled call may refuse as documented, but never finds another kernel
    try:
        kernel = divisor_kernel_subspace(2.0**k * T, _scaled_inner(atoms, k))
    except (ConditioningError, IllConditionedSpectrumError, NotADivisorError,
            NotInvariantError, RankAmbiguityError):
        return
    assert kernel.dimension == expected


# ------------------------------------------------------------- certificates


def test_certificate_validation():
    line = Subspace(E[:, 2:], 3)
    m1 = blaschke_factor(0.0)
    with pytest.raises(ValueError):
        ExtractionCertificate("guesswork", None, line, 0.0, m1)
    with pytest.raises(ValueError):
        ExtractionCertificate("eigenvector_line", blaschke_factor(0.0), line, 0.0, m1)
    with pytest.raises(ValueError):
        ExtractionCertificate("divisor_kernel", None, line, 0.0, m1)
    with pytest.raises(ValueError):
        ExtractionCertificate(
            "eigenvector_line", None, Subspace(E, 3), 0.0, m1
        )


def _assert_cyclic_vector_of_shift(T, basis):
    cert = extract_invariant_subspace(T, basis[:, 0])
    assert cert.branch == "divisor_kernel"
    assert equiv(cert.divisor, blaschke_factor(0.0), zero_tol=1e-6)
    assert cert.subspace.dimension == 1
    assert abs(np.vdot(cert.subspace.frame[:, 0], basis[:, 2])) == pytest.approx(1.0, abs=1e-10)
    assert cert.invariance_residual <= 1e-8
    assert equiv(cert.restriction_minimal_function, blaschke_factor(0.0), zero_tol=1e-6)


def test_extraction_from_cyclic_vector_of_shift():
    _assert_cyclic_vector_of_shift(S3, E)


def test_extraction_from_cyclic_vector_of_the_reversed_shift():
    _assert_cyclic_vector_of_shift(S3_REVERSED, E[:, ::-1])


def _assert_eigenvector_of_shift(T, basis):
    cert = extract_invariant_subspace(T, basis[:, 2])
    assert cert.branch == "eigenvector_line"
    assert cert.divisor is None
    assert cert.subspace.dimension == 1
    assert abs(np.vdot(cert.subspace.frame[:, 0], basis[:, 2])) == pytest.approx(1.0, abs=1e-12)


def test_extraction_from_eigenvector_of_shift():
    _assert_eigenvector_of_shift(S3, E)


def test_extraction_from_eigenvector_of_the_reversed_shift():
    _assert_eigenvector_of_shift(S3_REVERSED, E[:, ::-1])


def test_extraction_certifies_eigenvector_of_model():
    model = build_model_operator(blaschke_product([0.2, 0.5]))
    w, v = np.linalg.eig(model.matrix)
    pick = int(np.argmin(np.abs(w - 0.2)))
    cert = extract_invariant_subspace(model.matrix, v[:, pick])
    assert cert.branch == "eigenvector_line"
    assert cert.restriction_minimal_function.blaschke.atoms[0][0] == pytest.approx(
        0.2, abs=1e-8
    )


def test_extraction_on_conjugated_jordan_cells():
    rng = np.random.default_rng(56)
    for size in range(2, 9):
        T = conjugated(rng, jordan_cell(0.0, size))
        h = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        cert = extract_invariant_subspace(T, h)
        assert cert.branch == "divisor_kernel"
        assert equiv(cert.divisor, blaschke_factor(0.0), zero_tol=1e-6)
        assert 1 <= cert.subspace.dimension <= size - 1
        assert cert.invariance_residual <= 1e-8
        residual = verify_algebraic(
            restrict(T, cert.subspace), np.ones(cert.subspace.dimension),
            cert.restriction_minimal_function,
        )
        assert residual <= 1e-6 * np.sqrt(cert.subspace.dimension)


def test_extraction_on_random_models():
    rng = np.random.default_rng(57)
    for _ in range(10):
        model = random_model(rng, int(rng.integers(2, 7)))
        n = model.dimension
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # the model reads its symbol off the diagonal; a conjugate does not
        for T in (model.matrix, conjugated(rng, model.matrix)):
            cert = extract_invariant_subspace(T, h)
            assert 1 <= cert.subspace.dimension <= n - 1
            assert cert.invariance_residual <= 1e-8


def test_extraction_rejects_trivial_input(monkeypatch):
    with pytest.raises(TrivialElementError):
        extract_invariant_subspace(S3, np.zeros(3))
    # the size is checked before the spectrum, on or near the circle too
    for t in (0.5, 1.5, 0.99999999):
        with pytest.raises(ValueError, match="at least 2"):
            extract_invariant_subspace(np.array([[t]]), np.ones(1))

    def forbidden(*args):
        raise AssertionError("the spectrum was read before h was checked")

    # and h before T's eigenvalues are computed
    monkeypatch.setattr(extraction, "_characteristic_product", forbidden)
    with pytest.raises(ValueError, match="vector length"):
        extract_invariant_subspace(S3_REVERSED, np.ones(4))
    with pytest.raises(TrivialElementError):
        extract_invariant_subspace(S3_REVERSED, np.zeros(3))


def test_multiplicity_free_detection():
    assert is_multiplicity_free(S3)
    model = build_model_operator(blaschke_product([0.2, 0.5, -0.3]))
    assert is_multiplicity_free(model.matrix)
    assert not is_multiplicity_free(np.diag([0.3, 0.3]))
    T = scipy.linalg.block_diag(jordan_cell(0.2, 2), jordan_cell(0.2, 2))
    assert not is_multiplicity_free(T)


@pytest.mark.parametrize("c", [1e-10, 1e-12, 1e-100])
@pytest.mark.parametrize("conjugate", [False, True])
def test_a_scaled_nilpotent_cell_is_multiplicity_free(c, conjugate):
    # cyclic at every scale; a Krylov basis cut at an absolute 1e-10 is not
    T = c * jordan_cell(0.0, 4)
    if conjugate:
        T = conjugated(np.random.default_rng(67), T)
    assert is_multiplicity_free(T)


@pytest.mark.parametrize("degree", [13, 16])
def test_a_closed_form_is_multiplicity_free_past_the_minimal_function_cap(
    monkeypatch, degree
):
    def forbidden(*args, **kwargs):
        raise AssertionError("a closed form needs no minimal function")

    monkeypatch.setattr(extraction, "minimal_function", forbidden)
    assert is_multiplicity_free(random_model(np.random.default_rng(degree), degree, 0.95).matrix)


@pytest.mark.parametrize(
    "T, error",
    [
        (conjugated(np.random.default_rng(68), random_model(np.random.default_rng(69), 13).matrix),
         ConditioningError),
        (np.diag([0.9999999, 0.2]), NearBoundarySpectrumError),
        # c times the smallest zero gap 0.1 is below ATOM_MERGE_TOL
        (1e-10 * build_model_operator(blaschke_product([0.5, -0.3, 0.2j, 0.6])).matrix,
         IllConditionedSpectrumError),
    ],
    ids=["dimension-13", "near-circle", "merged-zeros"],
)
def test_multiplicity_freeness_off_the_closed_form_refuses_as_minimal_function(T, error):
    with pytest.raises(error):
        is_multiplicity_free(T)


@pytest.mark.parametrize(
    "T",
    [
        conjugated(
            np.random.default_rng(70),
            scipy.linalg.block_diag(jordan_cell(0.2, 2), jordan_cell(0.2, 2)),
        ),
        (0.3 - 0.1j) * np.eye(3),
    ],
    ids=["conjugated-jordan-pair", "scalar"],
)
def test_a_derogatory_matrix_is_not_multiplicity_free(T):
    assert not is_multiplicity_free(T)


def _zero_gap(zeros):
    return min((abs(a - b) for i, a in enumerate(zeros) for b in zeros[i + 1:]), default=np.inf)


def _separated_zeros(min_size, max_size):
    # moduli 0 or at least 1e-6: a conjugated closed form of subnormal zeros
    # underflows to another matrix
    point = st.builds(
        lambda r, t: r * np.exp(2j * np.pi * t),
        st.just(0.0) | st.floats(1e-6, 0.9),
        st.floats(0.0, 1.0),
    )
    return st.lists(point, min_size=min_size, max_size=max_size).filter(
        lambda zeros: _zero_gap(zeros) >= 1e-3
    )


@settings(max_examples=60, deadline=None)
@given(
    zeros=_separated_zeros(2, 8),
    exponent=st.floats(-12.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_scaled_conjugate_of_a_closed_form_is_multiplicity_free(zeros, exponent, seed):
    c = 10.0**exponent
    A = build_model_operator(blaschke_product(zeros)).matrix
    T = c * conjugated(np.random.default_rng(seed), A)
    try:
        assert is_multiplicity_free(T)
    except IllConditionedSpectrumError:
        # scaled zeros that merge in an InnerFunction
        assert c * _zero_gap(zeros) <= ATOM_MERGE_TOL


@settings(max_examples=60, deadline=None)
@given(zeros=_separated_zeros(1, 6), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_a_sum_of_closed_forms_with_a_shared_zero_is_not_multiplicity_free(
    zeros, data, seed
):
    split = data.draw(st.integers(0, len(zeros) - 1))
    shared = zeros[data.draw(st.integers(0, split))]
    A = build_model_operator(blaschke_product(zeros[: split + 1])).matrix
    B = build_model_operator(blaschke_product([shared] + zeros[split + 1:])).matrix
    T = conjugated(np.random.default_rng(seed), scipy.linalg.block_diag(A, B))
    assert not is_multiplicity_free(T)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, -1e-8])
def test_extraction_refuses_a_tolerance_that_passes_every_test(tolerance):
    # x > nan is always false, so a NaN tolerance would skip every residual test
    with pytest.raises(ValueError, match="tolerance"):
        extract_invariant_subspace(S3, E[:, 0], tolerance=tolerance)


def test_extraction_computes_each_minimal_function_once(monkeypatch):
    # none at all: off the closed form, T's characteristic product is
    # descended, and the certified line's minimal function is its factor
    _forbid_minimal_functions(monkeypatch)
    model = build_model_operator(blaschke_product([0.2, -0.4, 0.5j, 0.1 + 0.3j]))
    h = np.random.default_rng(58).standard_normal(4) + 0j
    T = conjugated(np.random.default_rng(58), model.matrix)
    cert = extract_invariant_subspace(T, h)
    assert cert.branch == "divisor_kernel"
    assert cert.restriction_minimal_function == cert.divisor
    assert extract_invariant_subspace(*reversed_basis(S3, E[:, 2])).branch == "eigenvector_line"


def test_extraction_refuses_a_vanishing_quotient_image(monkeypatch):
    # zeroed images make g = (b_0^2 / b_0)(T) e_2 zero.  Theory rules that
    # out for the symbol z^3 read off S3; the characteristic product of the
    # reversed S3 annihilates T only up to its clusters' spread
    original = extraction._quotient_images

    def vanishing(*args):
        V, norms, vanished, exponents = original(*args)
        return np.zeros_like(V), np.zeros_like(norms), vanished, exponents

    monkeypatch.setattr(extraction, "_quotient_images", vanishing)
    for T, error in ((S3, ImpossibleByTheoryError), (S3_REVERSED, IllConditionedSpectrumError)):
        with pytest.raises(error) as info:
            extract_invariant_subspace(T, E[:, 1])
        assert info.value.diagnostics == {
            "branch": "divisor_kernel", "g_ratios": [(0.0, 0.0)],
        }


def _nan_on_the_certified_line(monkeypatch):
    nan = float("nan")
    monkeypatch.setattr(
        extraction, "_compress", lambda T, F: (np.full((1, 1), nan + 0j), nan)
    )


# None reads the symbol z^3 off the diagonal of S3
@pytest.mark.parametrize("annihilator", [None, blaschke_product([0.0, 0.0, 0.0])])
def test_final_test_refuses_a_nan_residual(monkeypatch, annihilator):
    _nan_on_the_certified_line(monkeypatch)
    with pytest.raises(ImpossibleByTheoryError):
        extract_invariant_subspace(S3, E[:, 0], annihilator=annihilator)


def test_final_test_refuses_a_nan_residual_on_the_cyclic_route(monkeypatch):
    # off the closed form, theta is T's characteristic product, and a failed
    # final test is a refusal with the same diagnostics
    _nan_on_the_certified_line(monkeypatch)
    with pytest.raises(IllConditionedSpectrumError) as info:
        extract_invariant_subspace(S3_REVERSED, E[:, 2])
    assert info.value.diagnostics["branch"] == "divisor_kernel"
    assert np.isnan(info.value.diagnostics["invariance_residual"])


# Scaled to cA, this model defeats absolute cuts: a kernel taken by SVD
# with an absolute dead band refuses c = 1e-6 and 1e-9, and absolute
# residual tests certify a false line at c = 1e-11.
_SCALED_ZEROS = [0.5, -0.3, 0.2j, 0.6 + 0.1j]


def _relative_invariance(T, cert):
    F = cert.subspace.frame
    return np.linalg.norm(T @ F - F @ (F.conj().T @ T @ F), 2) / np.linalg.norm(T, 2)


@pytest.mark.parametrize("c", [1.0, 1e-3, 1e-6, 1e-9, 1e-11, 1e-14])
def test_extraction_without_annihilator_gives_no_false_certificate_under_scaling(c):
    rng = np.random.default_rng(0)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    # reversed, so that not even c = 1 reads a symbol off the diagonal;
    # below c = 1e-9, c times the smallest zero gap 0.14 is below
    # ATOM_MERGE_TOL, and only the power of two that brings ||cA||_2 into
    # [1/4, 1/2) keeps the eigenvalues apart as zeros of one InnerFunction
    A, h = reversed_basis(build_model_operator(blaschke_product(_SCALED_ZEROS)).matrix, h)
    cert = extract_invariant_subspace(c * A, h)
    assert cert.branch == "divisor_kernel"
    assert _relative_invariance(c * A, cert) <= 1e-8


@pytest.mark.parametrize("c", [1.0, 1e-9, 1e-11, 1e-300])
@pytest.mark.parametrize("conjugate", [False, True], ids=["model", "conjugate"])
def test_cyclic_subspace_of_a_cyclic_vector_has_full_dimension_at_any_scale(c, conjugate):
    # a Krylov rank cut of 1e-10 answered 3 at c = 1e-9 and 1 at c = 1e-11
    T, h = _model_and_h()
    if conjugate:
        T = conjugated(np.random.default_rng(1), T)
    cyclic = cyclic_subspace(c * T, h)
    assert cyclic.dimension == 4
    assert invariance_residual(c * T, cyclic.frame) <= 1e-15 * c


def _extraction_bytes(T, h):
    return canonical_dumps(certificate_to_json(extract_invariant_subspace(T, h)))


def _cyclic_bytes(T, h):
    return cyclic_subspace(T, h).frame.tobytes()


# Both take h through one front door: length, finiteness, h = 0, then a
# power of two that brings ||h|| into [1/2, 1), which scales exactly
_ROUTES_OF_H = pytest.mark.parametrize(
    "route", [_extraction_bytes, _cyclic_bytes], ids=["extract", "cyclic_subspace"]
)


def _model_and_h():
    rng = np.random.default_rng(0)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return build_model_operator(blaschke_product(_SCALED_ZEROS)).matrix, h


@_ROUTES_OF_H
@pytest.mark.parametrize("k", [-1000, -48, 0, 48, 900])
def test_h_at_any_scale_gives_the_bytes_of_h(route, k):
    # 2**-48 h has norm 6.6e-15, below 1e-14; the squares of 2**1000 h
    # overflow and those of 2**-900 h underflow
    T, h = _model_and_h()
    assert route(T, h * 2.0**-k) == route(T, h)


@_ROUTES_OF_H
@pytest.mark.parametrize(
    "h", [[1e300, 1e300, 0.0, 0.0], [1.5e308, -1.5e308j, 1e308, 0.0]], ids=["1e300", "1.5e308"]
)
def test_a_huge_h_gives_the_bytes_of_its_scaled_copy(route, h):
    # ||h|| overflows as a sum of squares, and the second h's norm passes
    # the float range
    T, _ = _model_and_h()
    h = np.array(h, dtype=complex)
    assert route(T, h) == route(T, h * 2.0**-1000)


@_ROUTES_OF_H
@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_a_non_finite_h_is_a_value_error(route, entry):
    T, h = _model_and_h()
    h[1] = entry
    with pytest.raises(ValueError, match="vector has non-finite entries"):
        route(T, h)


@_ROUTES_OF_H
def test_only_the_zero_h_is_trivial(route):
    T, _ = _model_and_h()
    # the smallest subnormal times e_1 scales to e_1 / 2, as e_1 does
    tiny = np.array([5e-324, 0.0, 0.0, 0.0], dtype=complex)
    assert route(T, tiny) == route(T, np.eye(4, dtype=complex)[:, 0])
    with pytest.raises(TrivialElementError):
        route(T, np.zeros(4))


@settings(max_examples=60, deadline=None)
@given(
    zeros=_repeated_zeros,
    exponent=st.floats(-12.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
    conjugate=st.booleans(),
    eigenvector=st.booleans(),
)
def test_extraction_without_annihilator_refuses_or_certifies_under_scaling(
    zeros, exponent, seed, conjugate, eigenvector
):
    A = build_model_operator(blaschke_product(zeros)).matrix
    n = A.shape[0]
    assume(2 <= n <= 8)
    rng = np.random.default_rng(seed)
    T = 10.0**exponent * (conjugated(rng, A) if conjugate else A[::-1, ::-1])
    if eigenvector:
        h = np.linalg.eig(T)[1][:, rng.integers(n)]
    else:
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # a ValueError, which only a given annihilator may raise, fails the test
    try:
        cert = extract_invariant_subspace(T, h)
    except ModelSpaceError as error:
        # the characteristic product is approximate, so its failure is a
        # refusal, never a broken theorem
        assert not isinstance(error, ImpossibleByTheoryError)
        return
    assert _relative_invariance(T, cert) <= 1e-8


def _operator_of_kind(kind, zeros, seed):
    """A closed form, a unitary conjugate or a Jordan cell, each also in the
    reversed basis."""
    rng = np.random.default_rng(seed)
    if kind.startswith("jordan"):
        T = jordan_cell(zeros[0], len(zeros))
    else:
        T = build_model_operator(blaschke_product(zeros)).matrix
    if kind.startswith("conjugate"):
        T = conjugated(rng, T)
    if kind.endswith("reversed"):
        T = T[::-1, ::-1]
    return T, rng.standard_normal(T.shape[0]) + 1j * rng.standard_normal(T.shape[0])


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["model", "model reversed", "conjugate", "jordan", "jordan reversed"]),
    zeros=_repeated_zeros,
    k=st.integers(-60, 20),
    j=st.integers(-60, 60),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="model reversed", zeros=_SCALED_ZEROS, k=-40, j=0, seed=0)
@example(kind="jordan reversed", zeros=[0.0] * 8, k=-30, j=5, seed=0)
def test_cyclic_subspace_has_the_degree_of_the_minimal_annihilator(kind, zeros, k, j, seed):
    assume(2 <= len(zeros) <= 8)
    T, h = _operator_of_kind(kind, zeros, seed)
    T, h = 2.0**k * T, 2.0**j * h
    # a ValueError fails the test, and so does ImpossibleByTheoryError:
    # only the characteristic product, which is approximate, may refuse
    try:
        cyclic = cyclic_subspace(T, h)
        cert, minimal = extraction._extract(T, h)
    except ModelSpaceError as error:
        assert not isinstance(error, ImpossibleByTheoryError)
        return
    assert cyclic.dimension == minimal.blaschke_degree
    norm = np.linalg.norm(T, 2)
    assert invariance_residual(T, cyclic.frame) <= 1e-8 * norm
    assert _relative_invariance(T, cert) <= 1e-8


def test_extraction_census_on_unitary_conjugates_of_models():
    # 200 seeded unitary conjugates of models of degree 2-16 with zeros of
    # modulus up to 0.95, every third with a repeated zero and every fifth
    # with a computed eigenvector as h, each scaled by c: no ValueError, no
    # ImpossibleByTheoryError and no false certificate
    rng = np.random.default_rng(2026)
    certified = dict.fromkeys((1.0, 1e-3, 1e-6, 1e-9), 0)
    for i in range(200):
        degree = int(rng.integers(2, 17))
        zeros = [
            0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            for _ in range(degree - (i % 3 == 0))
        ]
        if i % 3 == 0:
            zeros.append(zeros[0])
        T = conjugated(rng, build_model_operator(blaschke_product(zeros)).matrix)
        if i % 5 == 0:
            h = np.linalg.eig(T)[1][:, rng.integers(degree)]
        else:
            h = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
        for c in certified:
            try:
                cert = extract_invariant_subspace(c * T, h)
            except IllConditionedSpectrumError:
                continue
            assert _relative_invariance(c * T, cert) <= 1e-8
            certified[c] += 1
    # the refusals: computed eigenvectors of a repeated zero, whose
    # eigenvalue lies about 1e-8 from the cluster mean, and at c = 1e-9
    # scaled zeros closer than ATOM_MERGE_TOL
    assert min(certified[c] for c in (1.0, 1e-3, 1e-6)) >= 190
    assert certified[1e-9] >= 120


@settings(max_examples=60, deadline=None)
@given(zeros=_repeated_zeros, exponent=st.floats(-12.0, 0.0), seed=st.integers(0, 2**32 - 1))
def test_minimal_function_commutes_with_scaling_and_unitary_similarity(zeros, exponent, seed):
    symbol = blaschke_product(zeros)
    atoms = [alpha for alpha, _ in symbol.blaschke.atoms]
    gap = min((abs(a - b) for i, a in enumerate(atoms) for b in atoms[i + 1:]), default=np.inf)
    assume(2 <= symbol.blaschke_degree <= 8 and gap >= 1e-3)
    c = 10.0**exponent
    T = c * conjugated(np.random.default_rng(seed), build_model_operator(symbol).matrix)
    # any error but this refusal, ImpossibleByTheoryError included, fails
    try:
        m = minimal_function(T)
    except IllConditionedSpectrumError:
        # scaled zeros that merge in an InnerFunction, or a repeated zero
        # whose cluster mean lies too far off for its power to vanish
        assert c * gap <= ATOM_MERGE_TOL or len(atoms) < symbol.blaschke_degree
        return
    assert equiv(m, blaschke_product([c * z for z in zeros]), zero_tol=1e-6 * c)


def test_extraction_and_minimal_function_descend_the_same_product():
    # off the closed form both descend T's characteristic product, so the
    # minimal annihilator of h divides that of I atom for atom, and equals
    # it for a random h; every fifth h is a computed eigenvector
    rng = np.random.default_rng(2027)
    certified = equal = 0
    for i in range(300):
        degree = int(rng.integers(2, 13))
        zeros = [
            0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            for _ in range(degree - (i % 3 == 0))
        ]
        if i % 3 == 0:
            zeros.append(zeros[0])
        T = conjugated(rng, build_model_operator(blaschke_product(zeros)).matrix)
        if i % 5 == 0:
            h = np.linalg.eig(T)[1][:, rng.integers(degree)]
        else:
            h = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
        try:
            m_h = extraction._extract(T, h)[1]
            m = minimal_function(T)
        except IllConditionedSpectrumError:
            continue
        certified += 1
        assert divides(m_h, m, zero_tol=0.0)
        if i % 5:
            assert m_h == m
            equal += 1
    assert certified >= 290 and equal >= 235


# Vectors drawn for the nilpotent Jordan cell J_8 by the extraction suite
# of `verify all --seed 37` and `--seed 43`.  J_8 itself is the compressed
# shift of z^8 and takes that symbol; reversed, its characteristic product
# is z^8 too.  A Krylov rank cut stops the cyclic subspace of either vector
# at dimension 7; sized by the descent, it has dimension 8.
_SHORT_CYCLIC_CUT = {
    37: [
        -0.018940031875981304 + 0.08064256164012205j,
        3.939476610157758 + 0.9141427187846077j,
        -0.1273293480909074 + 0.3551130608064192j,
        0.3915447227540987 - 1.276005352949817j,
        -1.343678003291669 + 0.18560482727906322j,
        -0.4736098293842768 - 1.7227474554068596j,
        0.5856773283502913 + 0.6978312844535919j,
        -0.34531878564962104 - 0.8099941365386824j,
    ],
    43: [
        0.018126403929620033 + 0.01497008951000223j,
        -0.8300114317957141 + 1.7191086602150336j,
        -0.9204160605599121 + 0.08639828538611821j,
        0.9105153373260485 + 1.207023117596747j,
        -1.4284416190548561 - 0.3904104414350669j,
        -1.374704736565002 + 1.780639324616175j,
        0.6436292891301939 + 1.900981490986896j,
        0.6126416150813029 - 0.4016599440106529j,
    ],
}


@pytest.mark.parametrize("seed", sorted(_SHORT_CYCLIC_CUT))
def test_minimal_function_on_a_nilpotent_cell_cut_short_by_the_rank_cut(seed):
    T, h = reversed_basis(jordan_cell(0.0, 8), _SHORT_CYCLIC_CUT[seed])
    # h_0 != 0, so h is cyclic for J_8 and its minimal annihilator is z^8;
    # the compression's zero is a cluster mean, about 1e-16 off 0
    cyclic = cyclic_subspace(T, h)
    assert cyclic.dimension == 8
    assert equiv(minimal_function(restrict(T, cyclic)), blaschke_factor(0.0, 8))


@pytest.mark.parametrize("seed", sorted(_SHORT_CYCLIC_CUT))
def test_extraction_certifies_the_nilpotent_cell_the_rank_cut_cuts_short(seed):
    T, h = reversed_basis(jordan_cell(0.0, 8), _SHORT_CYCLIC_CUT[seed])
    cert, minimal = extraction._extract(T, h)
    assert minimal == blaschke_factor(0.0, 8)
    assert cert.divisor == cert.restriction_minimal_function == blaschke_factor(0.0)
    # g = T^7 h is an exact eigenvector
    assert cert.invariance_residual == 0.0


@pytest.mark.parametrize("seed", sorted(_SHORT_CYCLIC_CUT))
def test_annihilator_route_certifies_the_nilpotent_cell_cut_short(seed):
    T = jordan_cell(0.0, 8)
    h = np.array(_SHORT_CYCLIC_CUT[seed])
    cert, minimal = extraction._extract(T, h, annihilator=blaschke_factor(0.0, 8))
    assert equiv(minimal, blaschke_factor(0.0, 8))
    assert cert.branch == "divisor_kernel"
    assert cert.divisor == blaschke_factor(0.0)
    assert cert.restriction_minimal_function == blaschke_factor(0.0)
    # g = T^7 h = h_0 e_8 is an exact eigenvector
    g = np.linalg.matrix_power(T, 7) @ h
    assert abs(np.vdot(cert.subspace.frame[:, 0], g / np.linalg.norm(g))) == pytest.approx(
        1.0, abs=1e-15
    )
    assert cert.invariance_residual == 0.0


# -------------------------------------------------------- annihilator route


def test_annihilator_descends_to_the_minimal_annihilator_of_each_vector():
    cases = [
        (2, "eigenvector_line", [0.0]),
        (1, "divisor_kernel", [0.0, 0.0]),
        (0, "divisor_kernel", [0.0, 0.0, 0.0]),
    ]
    for column, branch, zeros in cases:
        certificate, minimal = extraction._extract(
            S3, E[:, column], annihilator=blaschke_product([0.0, 0.0, 0.0])
        )
        assert certificate.branch == branch
        assert minimal == blaschke_product(zeros)


def test_annihilator_route_uses_only_the_blaschke_part():
    model = build_model_operator(blaschke_product([0.2, -0.4, 0.5j]))
    h = np.random.default_rng(63).standard_normal(3) + 0j
    plain, minimal = extraction._extract(model.matrix, h, annihilator=model.symbol)
    # a unimodular constant and a singular factor are invertible at T
    theta = InnerFunction(
        gamma=1j, blaschke=model.symbol.blaschke, singular=((0.5, 1.5),)
    )
    dressed, dressed_minimal = extraction._extract(model.matrix, h, annihilator=theta)
    assert dressed_minimal == minimal == model.symbol
    assert np.array_equal(dressed.subspace.frame, plain.subspace.frame)
    assert dressed.divisor == plain.divisor == blaschke_factor(0.2)


def test_annihilator_route_runs_no_eigensolver_and_no_cyclic_subspace(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("called on the annihilator route")

    for name in ("minimal_function", "cyclic_subspace", "_characteristic_product"):
        monkeypatch.setattr(extraction, name, forbidden)
    monkeypatch.setattr(np.linalg, "eig", forbidden)
    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    model = random_model(np.random.default_rng(64), 6)
    h = np.random.default_rng(65).standard_normal(6) + 0j
    cases = [
        (model.matrix, h, model.symbol, "divisor_kernel"),
        (S3, E[:, 2], blaschke_product([0.0, 0.0, 0.0]), "eigenvector_line"),
        (jordan_cell(0.0, 8), np.array(_SHORT_CYCLIC_CUT[37]), blaschke_factor(0.0, 8),
         "divisor_kernel"),
    ]
    for T, vector, theta, branch in cases:
        cert = extract_invariant_subspace(T, vector, annihilator=theta)
        assert cert.branch == branch
        assert cert.invariance_residual <= 1e-14


def test_degree_16_model_certifies_with_its_symbol_past_the_minimal_function_cap():
    rng = np.random.default_rng(66)
    model = random_model(rng, 16, radius=0.95)
    h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    with pytest.raises(ConditioningError, match="dimension <= 12, got 16"):
        minimal_function(model.matrix)
    # no cap applies to the characteristic product of its unitary conjugate
    T = conjugated(rng, model.matrix)
    assert _relative_invariance(T, extract_invariant_subspace(T, h)) <= 1e-8
    cert, minimal = extraction._extract(model.matrix, h, annihilator=model.symbol)
    assert minimal == model.symbol
    assert cert.branch == "divisor_kernel"
    assert cert.invariance_residual <= 1e-12
    alpha = min(model.symbol.blaschke.zeros_with_multiplicity(), key=extraction._zero_order)
    assert cert.divisor == cert.restriction_minimal_function == blaschke_factor(alpha)


@settings(max_examples=80, deadline=None)
@given(
    zeros=_repeated_zeros,
    exponent=st.floats(-12.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(zeros=_SCALED_ZEROS, exponent=-6.0, seed=0)
@example(zeros=_SCALED_ZEROS, exponent=-9.0, seed=0)
@example(zeros=_SCALED_ZEROS, exponent=-11.0, seed=0)
@example(zeros=[0.3] * 6, exponent=-12.0, seed=0)
@example(zeros=[0.0] * 8, exponent=-12.0, seed=0)
# powers of b_a(T) shrink h gradually, to 4.5e-9 of the product of their
# norms, and must not be taken for zero
@example(zeros=[0.890625] * 12, exponent=-1.0, seed=1)
# g near 1e-160: a norm taken without scaling underflows
@example(zeros=[0.378 * np.exp(0.7j)] * 15, exponent=-11.4, seed=3)
def test_annihilator_route_commutes_with_scaling(zeros, exponent, seed):
    c = 10.0**exponent
    symbol = blaschke_product(zeros)
    A = build_model_operator(symbol).matrix
    assume(A.shape[0] >= 2)
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    scaled = blaschke_product([c * a for a in symbol.blaschke.zeros_with_multiplicity()])
    if len(scaled.blaschke.atoms) < len(symbol.blaschke.atoms):
        # zeros closer than ATOM_MERGE_TOL merge, and the merged product
        # annihilates h at best to about the distance merged away: a
        # refusal or a true certificate, never a false one
        try:
            cert = extract_invariant_subspace(c * A, h, annihilator=scaled)
        except (ValueError, ImpossibleByTheoryError):
            return
        assert cert.invariance_residual <= 1e-8 * np.linalg.norm(c * A, 2)
        return
    reference = extract_invariant_subspace(A, h, annihilator=symbol)
    cert = extract_invariant_subspace(c * A, h, annihilator=scaled)
    assert cert.branch == reference.branch
    assert cert.invariance_residual <= 1e-12 * np.linalg.norm(c * A, 2)
    # the zero split off is a scaled zero of least modulus (rounding in
    # c * a may break a tie in modulus the other way)
    (alpha, _), = cert.restriction_minimal_function.blaschke.atoms
    scaled_zeros = [a for a, _ in scaled.blaschke.atoms]
    assert alpha in scaled_zeros
    assert abs(alpha) == min(abs(a) for a in scaled_zeros)


@settings(max_examples=60, deadline=None)
@given(zeros=_repeated_zeros, seed=st.integers(0, 2**32 - 1))
def test_annihilator_route_commutes_with_unitary_similarity(zeros, seed):
    model = build_model_operator(blaschke_product(zeros))
    n = model.dimension
    assume(n >= 2)
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    reference, minimal = extraction._extract(model.matrix, h, annihilator=model.symbol)
    cert, conjugated_minimal = extraction._extract(
        q @ model.matrix @ q.conj().T, q @ h, annihilator=model.symbol
    )
    assert conjugated_minimal == minimal
    assert cert.branch == reference.branch
    assert cert.restriction_minimal_function == reference.restriction_minimal_function
    # a zero of multiplicity 12 under a dense similarity puts 11 factor
    # applications between h and g; over 2800 random draws with such
    # blocks and near-coincident zeros the worst was 8e-12
    assert cert.invariance_residual <= 1e-10 * np.linalg.norm(model.matrix, 2)


_separated_zeros = st.lists(
    st.builds(
        lambda r, t: r * np.exp(2j * np.pi * t), st.floats(0.0, 0.8), st.floats(0.0, 1.0)
    ),
    min_size=3,
    max_size=8,
    unique_by=lambda a: (round(a.real, 1), round(a.imag, 1)),
).filter(
    lambda zeros: min(
        abs(a - b) for i, a in enumerate(zeros) for b in zeros[i + 1:]
    ) >= 0.05
)


@settings(max_examples=60, deadline=None)
@given(zeros=_separated_zeros, data=st.data())
def test_annihilator_route_descends_to_a_proper_divisor(zeros, data):
    symbol = blaschke_product(zeros)
    S = build_model_operator(symbol).matrix
    n = S.shape[0]
    i, j = data.draw(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    )
    divisor = blaschke_product([zeros[i], zeros[j]])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    h = apply(divisor, S) @ x
    cert, minimal = extraction._extract(S, h, annihilator=symbol)
    assert equiv(minimal, exact_divide(symbol, divisor))
    assert cert.branch == ("divisor_kernel" if n >= 4 else "eigenvector_line")
    assert cert.invariance_residual <= 1e-12
    # the last chain vector is an eigenvector for the last zero in basis order
    last = symbol.blaschke.zeros_with_multiplicity()[-1]
    cert, minimal = extraction._extract(S, np.eye(n)[:, -1], annihilator=symbol)
    assert minimal == blaschke_factor(last)
    assert cert.branch == "eigenvector_line"
    assert cert.restriction_minimal_function == blaschke_factor(last)


@settings(max_examples=60, deadline=None)
@given(zeros=_separated_zeros, eigenvector=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_both_routes_certify_the_same_line(zeros, eigenvector, seed):
    moduli = sorted(abs(a) for a in zeros)
    # a tie in modulus is broken by argument, which rounding may flip
    assume(moduli[1] - moduli[0] > 1e-6)
    model = build_model_operator(blaschke_product(zeros))
    n = model.dimension
    rng = np.random.default_rng(seed)
    h = np.eye(n)[:, -1] if eigenvector else rng.standard_normal(n) + 1j * rng.standard_normal(n)
    given_symbol = extract_invariant_subspace(model.matrix, h, annihilator=model.symbol)
    # the characteristic product of U M U* on U h; its frame maps back by U*
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    plain = extract_invariant_subspace(q @ model.matrix @ q.conj().T, q @ h)
    assert plain.branch == given_symbol.branch
    ((a, _),) = plain.restriction_minimal_function.blaschke.atoms
    ((b, _),) = given_symbol.restriction_minimal_function.blaschke.atoms
    assert abs(a - b) <= 1e-8
    frame = q.conj().T @ plain.subspace.frame[:, 0]
    overlap = abs(np.vdot(frame, given_symbol.subspace.frame[:, 0]))
    assert overlap >= 1.0 - 1e-10


def test_annihilator_route_refusals(monkeypatch):
    symbol = blaschke_product([0.2, -0.4, 0.5j, 0.1 + 0.3j])
    model = build_model_operator(symbol)
    h = np.random.default_rng(67).standard_normal(4) + 0j
    with pytest.raises(ValueError, match="does not annihilate h"):
        extract_invariant_subspace(
            model.matrix, h, annihilator=blaschke_product([0.2, -0.4, 0.5j])
        )
    with pytest.raises(TrivialElementError):
        extract_invariant_subspace(model.matrix, np.zeros(4), annihilator=symbol)
    with pytest.raises(ValueError, match="does not match"):
        extract_invariant_subspace(model.matrix, np.ones(3), annihilator=symbol)
    with pytest.raises(TypeError):
        extract_invariant_subspace(model.matrix, h, annihilator=Polynomial((0.0,)))
    # a failed final test is a refusal that carries every tested ratio
    # ||g_a|| / ||h|| and the residual
    compress = extraction._compress
    monkeypatch.setattr(
        extraction, "_compress", lambda T, F: (compress(T, F)[0], 1.0)
    )
    with pytest.raises(ImpossibleByTheoryError) as info:
        extract_invariant_subspace(model.matrix, h, annihilator=symbol)
    diagnostics = info.value.diagnostics
    assert diagnostics["invariance_residual"] == 1.0
    assert diagnostics["branch"] == "divisor_kernel"
    ((alpha, ratio),) = diagnostics["g_ratios"]
    assert alpha == 0.2 and 1e-8 < ratio <= 1.0


# ------------------------------------------- symbol read off the diagonal


def _forbid_minimal_functions(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("extraction computed a minimal function")

    for name in ("minimal_function", "cyclic_subspace", "restrict", "_divisor_kernel"):
        monkeypatch.setattr(extraction, name, forbidden)


def _certified_from_the_diagonal(T, h):
    cert, minimal = extraction._extract(T, h)
    ((alpha, _),) = cert.restriction_minimal_function.blaschke.atoms
    # the zero split off is an exact diagonal entry, not an eigenvalue estimate
    assert alpha in np.diag(T).tolist()
    assert _relative_invariance(T, cert) <= 1e-12
    return cert, minimal


@pytest.mark.parametrize("degree", range(2, 17))
def test_a_model_operator_is_extracted_with_the_symbol_on_its_diagonal(monkeypatch, degree):
    _forbid_minimal_functions(monkeypatch)
    rng = np.random.default_rng(80 + degree)
    # a third of the zeros repeated, moduli up to the cap 0.95
    distinct = [
        0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        for _ in range(degree - degree // 3)
    ]
    model = build_model_operator(blaschke_product(distinct + distinct[: degree // 3]))
    h = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    cert, minimal = _certified_from_the_diagonal(model.matrix, h)
    assert minimal == model.symbol
    assert cert.branch == "divisor_kernel"
    cert, minimal = _certified_from_the_diagonal(model.matrix, np.eye(degree)[:, -1])
    assert minimal == blaschke_factor(model.symbol.blaschke.zeros_with_multiplicity()[-1])
    assert cert.branch == "eigenvector_line"


def test_a_bundle_read_back_from_json_is_extracted_with_its_symbol(monkeypatch):
    _forbid_minimal_functions(monkeypatch)
    model = build_model_operator(blaschke_product([0.95j, 0.3 - 0.2j, 0.3 - 0.2j, -0.6, 0.0]))
    loaded = model_from_json(parse_json(canonical_dumps(model_to_json(model))))
    h = np.random.default_rng(69).standard_normal(5) + 0j
    cert, minimal = _certified_from_the_diagonal(loaded.matrix, h)
    assert minimal == model.symbol
    assert cert.divisor == blaschke_factor(0.0)


@pytest.mark.parametrize("n", range(2, 13))
def test_a_nilpotent_jordan_cell_is_extracted_with_z_to_the_n(monkeypatch, n):
    _forbid_minimal_functions(monkeypatch)
    rng = np.random.default_rng(70 + n)
    h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cert, minimal = _certified_from_the_diagonal(jordan_cell(0.0, n), h)
    assert minimal == blaschke_factor(0.0, n)
    assert cert.divisor == blaschke_factor(0.0)


def _off_the_closed_form(case):
    T = build_model_operator(blaschke_product(_SCALED_ZEROS)).matrix.copy()
    if case == "an entry one ulp off":
        T[3, 0] = complex(np.nextafter(T[3, 0].real, np.inf), T[3, 0].imag)
    elif case == "J_4(0.5)":
        T = jordan_cell(0.5, 4)
    elif case == "a strictly upper entry":
        T[0, 2] = 1e-300
    elif case == "zeros in another order":
        # the closed form of its own diagonal, but not in canonical order
        T = compressed_shift_matrix(_SCALED_ZEROS)
    elif case == "zeros 1e-11 apart":
        # these two zeros merge in an InnerFunction, so no symbol has them
        T = compressed_shift_matrix([-0.2, 0.3, 0.3 + 1e-11, 0.6])
    elif case == "a diagonal entry of modulus 1":
        T = compressed_shift_matrix([0.5, 1.0, -0.3])
    return T


_OFF_THE_CLOSED_FORM = [
    "an entry one ulp off", "J_4(0.5)", "a strictly upper entry", "zeros 1e-11 apart",
    "zeros in another order",
]


@pytest.mark.parametrize("case", _OFF_THE_CLOSED_FORM)
def test_an_operator_off_the_closed_form_takes_the_cyclic_route(monkeypatch, case):
    # the route for every matrix that is not a closed form: the
    # characteristic product of T, with no minimal function
    T = _off_the_closed_form(case)
    assert extraction._closed_form_symbol(T) is None
    _forbid_minimal_functions(monkeypatch)
    calls = []
    original = extraction._characteristic_product

    def counting(A, norm):
        calls.append(np.shape(A))
        return original(A, norm)

    monkeypatch.setattr(extraction, "_characteristic_product", counting)
    rng = np.random.default_rng(71)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    cert = extract_invariant_subspace(T, h)
    assert calls == [(4, 4)]
    assert cert.branch == "divisor_kernel"
    assert _relative_invariance(T, cert) <= 1e-8


def _descend_one_zero_at_a_time(T, h, theta, tolerance=1e-8):
    """Reference descent: while some quotient theta / b_a annihilates h,
    drop the first such factor.  A product counts as annihilating when one
    application w = b(T) v leaves ||w|| <= tolerance ||b(T)||_2 ||v||."""
    atoms = theta.blaschke.atoms
    factors = [apply(blaschke_factor(alpha), T) for alpha, _ in atoms]
    sizes = [np.linalg.norm(factor, 2) for factor in factors]

    def annihilates(mult):
        v = h
        for factor, size, m in zip(factors, sizes, mult):
            for _ in range(m):
                w = factor @ v
                if np.linalg.norm(w) <= tolerance * size * np.linalg.norm(v):
                    return True
                v = w
        return False

    mult = [m for _, m in atoms]
    while True:
        for k in range(len(mult)):
            if mult[k] and annihilates([m - (j == k) for j, m in enumerate(mult)]):
                mult[k] -= 1
                break
        else:
            return blaschke_product([a for (a, _), m in zip(atoms, mult) for _ in range(m)])


@settings(max_examples=60, deadline=None)
@given(zeros=_repeated_zeros, data=st.data())
def test_a_trailing_vector_descends_to_the_trailing_zeros(zeros, data):
    symbol = blaschke_product(zeros)
    atoms = [alpha for alpha, _ in symbol.blaschke.atoms]
    assume(all(abs(a - b) >= 1e-3 for i, a in enumerate(atoms) for b in atoms[i + 1:]))
    T = build_model_operator(symbol).matrix
    n = T.shape[0]
    assume(n >= 2)
    k = data.draw(st.integers(0, n - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    h = np.zeros(n, dtype=complex)
    h[k:] = rng.standard_normal(n - k) + 1j * rng.standard_normal(n - k)
    # T maps span{e_k, ..., e_n} into itself, and is there the compressed
    # shift of the trailing zeros, for which h is cyclic
    trailing = blaschke_product(np.diag(T)[k:].tolist())
    cert, minimal = extraction._extract(T, h)
    assert minimal == trailing
    assert minimal == _descend_one_zero_at_a_time(T, h, symbol)
    assert cert.branch == ("eigenvector_line" if k == n - 1 else "divisor_kernel")


def test_a_descent_step_that_would_remove_every_zero_removes_one():
    # b_0.3 moves e_3, the eigenvector for 0.3 + 1e-9, by 1e-9 of its size,
    # below the tolerance, so every quotient of the symbol counts as
    # annihilating e_3; without them all, 1 would annihilate nothing
    T = build_model_operator(blaschke_product([-0.5, 0.3, 0.3 + 1e-9])).matrix
    cert, minimal = extraction._extract(T, E[:, 2])
    assert minimal == blaschke_factor(0.3 + 1e-9)
    assert cert.branch == "eigenvector_line"
    assert cert.invariance_residual == 0.0


def test_an_eigenvector_descends_in_two_batches(monkeypatch):
    batches = []
    original = extraction._quotient_images

    def counting(*args):
        batches.append(args[-1])
        return original(*args)

    monkeypatch.setattr(extraction, "_quotient_images", counting)
    model = random_model(np.random.default_rng(72), 12)
    cert, minimal = extraction._extract(model.matrix, np.eye(12)[:, -1])
    assert minimal == blaschke_factor(model.symbol.blaschke.zeros_with_multiplicity()[-1])
    assert cert.branch == "eigenvector_line"
    # every quotient but one vanishes, and all eleven zeros go at once
    assert len(batches) == 2


@pytest.mark.parametrize("tolerance, error", [(1e-16, NotInvariantError),
                                              (1e-15, ImpossibleByTheoryError)])
def test_a_failed_final_test_below_rounding_is_not_a_fault(monkeypatch, tolerance, error):
    # for S3, n eps ||T||_2 = 6.7e-16 separates the two tolerances
    compress = extraction._compress
    monkeypatch.setattr(
        extraction, "_compress", lambda T, F: (compress(T, F)[0], 1.0)
    )
    with pytest.raises(error) as info:
        extract_invariant_subspace(S3, E[:, 0], tolerance=tolerance)
    if error is NotInvariantError:
        assert info.value.residual == 1.0


def test_a_tolerance_below_rounding_is_refused_on_the_symbol_route():
    rng = np.random.default_rng(0)
    T = build_model_operator(blaschke_product(_SCALED_ZEROS)).matrix
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    with pytest.raises(NotInvariantError, match="below the rounding") as info:
        extract_invariant_subspace(T, h, tolerance=1e-20)
    assert 0.0 < info.value.residual < 1e-15
    # the symbol read from T annihilates T by construction, so it is not
    # tested on h up front, though here no factor shrinks h by 1e-20
    T = build_model_operator(blaschke_product([0.85, -0.85j, 0.6 + 0.6j, 0.3])).matrix
    with pytest.raises(NotInvariantError, match="below the rounding"):
        extract_invariant_subspace(T, h, tolerance=1e-20)


# ------------------------------------------------- closed-form check, order


def _closed_form_symbol_from_canonical_zeros(T):
    """The closed-form check as first written: b from the diagonal, then T
    against the closed form of b's canonical zeros."""
    diagonal = np.diag(T)
    if np.any(np.abs(diagonal) >= 1.0) or np.any(np.triu(T, 1)):
        return None
    b = blaschke_product(diagonal.tolist())
    if np.array_equal(T, compressed_shift_matrix(b.blaschke.zeros_with_multiplicity())):
        return b
    return None


_ON_THE_CLOSED_FORM = {
    "the model": build_model_operator(blaschke_product(_SCALED_ZEROS)).matrix,
    "J_5(0)": jordan_cell(0.0, 5),
    "a repeated zero": build_model_operator(
        blaschke_product([0.3 - 0.2j, -0.6, 0.3 - 0.2j, 0.0])
    ).matrix,
    "signed zeros": compressed_shift_matrix([complex(-0.5, -0.0), complex(-0.0, -0.0)]),
}


@pytest.mark.parametrize(
    "case",
    [*_ON_THE_CLOSED_FORM, *_OFF_THE_CLOSED_FORM, "a diagonal entry of modulus 1"],
)
def test_the_closed_form_check_compares_first_and_decides_the_same(case):
    T = _ON_THE_CLOSED_FORM.get(case)
    if T is None:
        T = _off_the_closed_form(case)
    symbol = extraction._closed_form_symbol(T)
    assert symbol == _closed_form_symbol_from_canonical_zeros(T)
    assert (symbol is not None) == (case in _ON_THE_CLOSED_FORM)


def test_zero_order_sorts_as_the_numpy_argument_did():
    def numpy_angle_order(alpha):
        return (abs(alpha), float(np.angle(alpha)) % (2.0 * np.pi))

    # the two arguments differ in the last bit on some atoms, but atoms lie
    # ATOM_MERGE_TOL apart, so two of equal modulus differ in argument by
    # far more, and the order is the same
    rng = np.random.default_rng(90)
    size = 10**4
    atoms = list(0.95 * np.sqrt(rng.uniform(size=size)) * np.exp(2j * np.pi * rng.uniform(size=size)))
    atoms += [a.conjugate() for a in atoms[:2000]]
    atoms += [complex(-r, 0.0) for r in rng.uniform(0.0, 0.95, 500)]
    atoms += [complex(-r, -0.0) for r in rng.uniform(0.0, 0.95, 500)]
    # one modulus, sixteen arguments, so only the argument orders them
    atoms += [0.5 * np.exp(1j * np.pi * k / 8) for k in range(16)]
    atoms += [0j, 0.3j, -0.3j, 0.7 + 0j]
    atoms = [complex(a) for a in atoms]
    rng.shuffle(atoms)
    assert sorted(atoms, key=extraction._zero_order) == sorted(atoms, key=numpy_angle_order)


# ----------------------------------------------------- descent on bounds


def test_a_descent_step_its_own_batch_denies_does_not_stand(monkeypatch):
    # every batch after the first reports the reduced product as not
    # annihilating h.  Neither the full step nor the one-zero step stands,
    # so the descent ends at the symbol with its first batch, and the zero
    # certified is the one whose quotient did not vanish there
    original = extraction._quotient_images
    batches = []

    def denying(*args):
        V, norms, vanished, exponents = original(*args)
        if batches:
            vanished = vanished.copy()
            vanished[0] = False
        batches.append(args[-1])
        return V, norms, vanished, exponents

    monkeypatch.setattr(extraction, "_quotient_images", denying)
    model = random_model(np.random.default_rng(72), 6)
    cert, minimal = extraction._extract(model.matrix, np.eye(6)[:, -1])
    assert minimal == model.symbol
    assert len(batches) == 3
    last = model.symbol.blaschke.zeros_with_multiplicity()[-1]
    assert cert.branch == "divisor_kernel"
    assert cert.divisor == blaschke_factor(last)
    assert cert.invariance_residual <= 1e-15


@pytest.mark.parametrize(
    "T, error", [(S3, ImpossibleByTheoryError), (S3_REVERSED, IllConditionedSpectrumError)]
)
def test_a_descent_that_ends_with_every_quotient_vanished_is_refused(monkeypatch, T, error):
    # the first batch counts every quotient as annihilating h and every
    # later batch denies the step, so no zero of the product has a nonzero g
    original = extraction._quotient_images
    batches = []

    def vanishing(*args):
        V, norms, vanished, exponents = original(*args)
        vanished = np.full_like(vanished, not batches)
        batches.append(args[-1])
        return V, norms, vanished, exponents

    monkeypatch.setattr(extraction, "_quotient_images", vanishing)
    with pytest.raises(error, match="every quotient") as info:
        extract_invariant_subspace(T, E[:, 0] + E[:, 1])
    assert info.value.diagnostics["branch"] == "divisor_kernel"
    assert len(info.value.diagnostics["g_ratios"]) == 1
    assert len(batches) == 2


def test_a_symbol_no_zero_of_which_is_dropped_is_passed_down():
    symbol = blaschke_product(_SCALED_ZEROS)
    T = build_model_operator(symbol).matrix
    h = np.random.default_rng(92).standard_normal(4) + 0j
    cert, minimal = extraction._extract(T, h, annihilator=symbol)
    assert minimal.blaschke is symbol.blaschke


def _count_factor_svds(monkeypatch):
    """Records every factor whose exact 2-norm the descent takes."""
    calls = []
    exact_norm = extraction._exact_norm

    def counting(sizes, k, factor):
        calls.append(factor)
        return exact_norm(sizes, k, factor)

    monkeypatch.setattr(extraction, "_exact_norm", counting)
    return calls


def _descend_on_exact_norms(*args):
    """_descend with every test decided on the exact norms, one SVD per
    factor."""

    def exact(factors, n):
        sizes = [extraction.operator_norm(factor) for factor in factors]
        return sizes, list(sizes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extraction, "_norm_bounds", exact)
        return extraction._descend(*args)


def _assert_same_descent(ours, exact):
    assert ours[0] == exact[0]
    assert ours[1] == exact[1]
    # V, norms, verdicts and the exponents of a scaled descent (else None)
    for mine, theirs in zip(ours[2:], exact[2:]):
        assert (mine is None) == (theirs is None)
        assert mine is None or mine.tobytes() == theirs.tobytes()


def test_closed_form_extractions_take_no_factor_svd(monkeypatch):
    calls = _count_factor_svds(monkeypatch)
    rng = np.random.default_rng(93)
    for degree in range(2, 13):
        T = random_model(rng, degree).matrix
        for h in (rng.standard_normal(degree) + 1j * rng.standard_normal(degree),
                  np.eye(degree)[:, -1]):
            extract_invariant_subspace(T, h)
    for n in range(2, 9):
        extract_invariant_subspace(jordan_cell(0.0, n), rng.standard_normal(n) + 0j)
    assert calls == []


def _count_batches(monkeypatch):
    """Counts the calls of _quotient_images."""
    calls = []
    original = extraction._quotient_images

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(extraction, "_quotient_images", counting)
    return calls


def test_a_test_between_the_bounds_takes_the_svd_once(monkeypatch):
    # h is 1e-6 off the eigenvector of the first zero, -0.3, so b_{-0.3}(T)
    # shrinks it to a ratio w / ||h|| far below 1; the tolerance puts that
    # first step's ratio between the two bounds on ||b_{-0.3}(T)||_2
    symbol = blaschke_product(_SCALED_ZEROS)
    T = build_model_operator(symbol).matrix
    norm = float(np.linalg.norm(T, 2))
    zeros = [alpha for alpha, _ in symbol.blaschke.atoms]
    assert zeros[0] == -0.3
    factors = _blaschke_factors(zeros, T, norm)
    eigenvector = np.linalg.svd(factors[0])[2][-1].conj()
    rng = np.random.default_rng(94)
    h = eigenvector + 1e-6 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
    h_norm = float(np.linalg.norm(h))
    w = float(extraction._column_norms((factors[0] @ h)[:, None])[0])
    (low, *_), (high, *_) = extraction._norm_bounds(factors, 4)
    tolerance = w / (h_norm * np.sqrt(low * high))
    assert tolerance * low * h_norm < w <= tolerance * high * h_norm
    args = (symbol, T, norm, h[:, None], np.array([h_norm]), tolerance)
    with pytest.MonkeyPatch.context() as patch:
        batches = _count_batches(patch)
        exact = _descend_on_exact_norms(*args)
    expected = len(batches)
    batches = _count_batches(monkeypatch)
    svds = []
    svd = np.linalg.svd

    def recording(a, *rest, **kwargs):
        svds.append(np.array(a))
        return svd(a, *rest, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    ours = extraction._descend(*args)
    # one 2-d SVD, of factor 0, and one pass through the batches
    assert len(svds) == 1 and svds[0].tobytes() == factors[0].tobytes()
    assert len(batches) == expected
    _assert_same_descent(ours, exact)


def test_a_zero_factor_between_the_bounds_takes_the_svd_once(monkeypatch):
    # b_a(0.3 I) for a 1e-9 off 0.3 is about 1.1e-9 I, whose Frobenius
    # bounds straddle the zero-factor cut tolerance * ||T||_2; its exact
    # norm lies below the cut, so the factor is taken as zero
    T = 0.3 * np.eye(3, dtype=complex)
    theta = blaschke_factor(0.3 + 1e-9)
    [factor] = _blaschke_factors([0.3 + 1e-9], T, 0.3)
    [low], [high] = extraction._norm_bounds([factor], 3)
    tolerance = np.sqrt(low * high) / 0.3
    assert low <= tolerance * 0.3 < high
    H = np.eye(3, dtype=complex)[:, :1]
    args = (theta, T, 0.3, H, np.ones(1), tolerance)
    calls = _count_factor_svds(monkeypatch)
    ours = extraction._descend(*args)
    assert len(calls) == 1 and calls[0].tobytes() == factor.tobytes()
    assert ours[0] and ours[1] == theta
    _assert_same_descent(ours, _descend_on_exact_norms(*args))


_disk_point_09 = st.builds(
    lambda r, t: complex(r * np.exp(2j * np.pi * t)), st.floats(0.0, 0.9), st.floats(0.0, 1.0)
)


@st.composite
def _descent_inputs(draw):
    """theta, T and a block H: closed forms of degree 2-12 and their unitary
    conjugates, Jordan cells, c * I_3 and c * J_n(0) across 600 decades."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["model", "conjugate", "jordan", "scalar", "scaled"]))
    if kind in ("model", "conjugate"):
        pool = draw(st.lists(_disk_point_09, min_size=1, max_size=6))
        picks = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=12))
        theta = blaschke_product(picks)
        T = build_model_operator(theta).matrix
        if kind == "conjugate":
            T = conjugated(rng, T)
    elif kind == "jordan":
        eigenvalue, n = draw(_disk_point_09), draw(st.integers(2, 8))
        theta, T = blaschke_factor(eigenvalue, n), jordan_cell(eigenvalue, n)
    elif kind == "scalar":
        T = draw(_disk_point_09) * np.eye(3, dtype=complex)
        # the cluster mean, which may miss the entry by an ulp
        theta = extraction._characteristic_product(T, float(np.linalg.norm(T, 2)))
    else:
        c = draw(st.sampled_from([1e-300, 1e-12, 1.0, 1e12, 1e300]))
        n = draw(st.integers(2, 8))
        theta, T = blaschke_factor(0.0, n), c * jordan_cell(0.0, n)
    n = T.shape[0]
    block = draw(st.sampled_from(["random", "last", "identity"]))
    if block == "random":
        H = (rng.standard_normal(n) + 1j * rng.standard_normal(n))[:, None]
    elif block == "last":
        H = np.eye(n, dtype=complex)[:, -1:]
    else:
        H = np.eye(n, dtype=complex)
    tolerance = 10.0 ** draw(st.floats(-16.0, -2.0))
    return theta, T, H, tolerance


@settings(max_examples=200, deadline=None)
@given(_descent_inputs())
def test_descent_on_frobenius_bounds_decides_as_the_exact_norms(inputs):
    theta, T, H, tolerance = inputs
    norm = float(np.linalg.norm(T, 2))
    args = (theta, T, norm, H, extraction._column_norms(H), tolerance)
    # c * J_n(0) at c = 1e300 takes the scaled batches, which overflow nowhere
    _assert_same_descent(extraction._descend(*args), _descend_on_exact_norms(*args))


# ----------------------------------------------------- scaled descent


@pytest.mark.parametrize("c", [1e150, 1e160, 1e300, 1.7e308])
def test_a_huge_jordan_cell_certifies_its_eigenvector(c):
    # T^2 h passes the float range from c = 1e155 on; the scaled descent
    # does not overflow (a RuntimeWarning fails the test), and the line
    # through T^2 h is that of e_3, which T annihilates; at c = 1.7e308
    # the Frobenius bound on ||T||_2 is infinite, and T's SVD decides
    cert, minimal = extraction._extract(c * jordan_cell(0.0, 3), np.ones(3))
    assert minimal == blaschke_factor(0.0, 3)
    assert cert.branch == "divisor_kernel"
    frame = cert.subspace.frame[:, 0]
    assert frame[:2].tolist() == [0j, 0j] and frame[2] == pytest.approx(1.0, abs=1e-15)
    assert cert.invariance_residual == 0.0


def test_a_scaled_descent_reports_true_ratios(monkeypatch):
    # every later batch denies the step, so the descent ends with the
    # quotient z^2 vanished and reports ||T^2 h|| / ||h|| = c^2 / sqrt(3)
    original = extraction._quotient_images
    batches = []

    def vanishing(*args):
        V, norms, vanished, exponents = original(*args)
        batches.append(exponents)
        return V, norms, np.full_like(vanished, len(batches) == 1), exponents

    monkeypatch.setattr(extraction, "_quotient_images", vanishing)
    for c, ratio in ((1e150, 1e300 / np.sqrt(3)), (1e160, np.inf)):
        batches.clear()
        with pytest.raises(IllConditionedSpectrumError, match="every quotient") as info:
            extract_invariant_subspace(c * jordan_cell(0.0, 3), np.ones(3))
        [(_, seen)] = info.value.diagnostics["g_ratios"]
        assert seen == pytest.approx(ratio, rel=1e-14)
        assert len(batches) == 2 and all(e is not None for e in batches)


@settings(max_examples=200, deadline=None)
@given(_descent_inputs())
def test_a_scaled_descent_decides_as_the_unscaled_one(inputs):
    theta, T, H, tolerance = inputs
    # where the unscaled arithmetic neither overflows nor goes subnormal;
    # halving a subnormal part rounds it
    parts = np.abs(np.concatenate([T.real.ravel(), T.imag.ravel()]))
    assume(parts.max() < 1e100 and parts[parts > 0].min(initial=1.0) > 1e-100)
    norm = float(np.linalg.norm(T, 2))
    args = (theta, T, norm, H, extraction._column_norms(H), tolerance)
    plain = extraction._descend(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extraction, "_SCALE_LOG2", -np.inf)
        scaled = extraction._descend(*args)
    assert plain[5] is None and scaled[5] is not None
    assert scaled[:2] == plain[:2]
    assert scaled[4].tobytes() == plain[4].tobytes()
    # powers of two are exact: the images themselves, not only their lines
    exponents = scaled[5]
    assert np.array_equal(scaled[2] * np.ldexp(1.0, exponents), plain[2])
    assert np.ldexp(scaled[3], exponents).tobytes() == plain[3].tobytes()
