import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
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
    cyclic_subspace,
    divisor_kernel_subspace,
    equiv,
    extract_invariant_subspace,
    invariance_residual,
    is_multiplicity_free,
    minimal_function,
    restrict,
    verify_algebraic,
)
from modelspace.errors import (
    IllConditionedSpectrumError,
    NearBoundarySpectrumError,
    NotADivisorError,
    NotInvariantError,
    TrivialAnnihilatorError,
    TrivialElementError,
)

S3 = build_model_operator(blaschke_product([0.0, 0.0, 0.0])).matrix
E = np.eye(3, dtype=complex)


def jordan_cell(eigenvalue, size):
    J = np.eye(size, dtype=complex) * eigenvalue
    J[np.arange(1, size), np.arange(size - 1)] = 1.0
    return J


def conjugated(rng, A):
    n = A.shape[0]
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q @ A @ q.conj().T


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
    with pytest.raises(IllConditionedSpectrumError):
        minimal_function(np.diag([0.3, 0.3 + 5e-8]))


def test_minimal_function_dimension_cap():
    with pytest.raises(ValueError):
        minimal_function(np.diag(np.linspace(0.1, 0.5, 13)))


def test_minimal_function_requires_interior_spectrum():
    with pytest.raises(NearBoundarySpectrumError):
        minimal_function(np.diag([0.9999995, 0.1]))


def _pairwise_clusters(T, eigs, cluster_radius, defect_tol):
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
    eigs = np.linalg.eigvals(T)
    tol = extraction.DEFECT_TOL * max(1.0, np.linalg.norm(T, 2))
    stacked = extraction._spectral_clusters(T, eigs, extraction.CLUSTER_RADIUS, tol)
    pairwise = _pairwise_clusters(T, eigs, extraction.CLUSTER_RADIUS, tol)
    assert [list(c) for c in stacked] == [list(c) for c in pairwise]
    atoms = _outcome(T)
    with monkeypatch.context() as m:
        m.setattr(extraction, "_spectral_clusters", _pairwise_clusters)
        assert _outcome(T) == atoms
    return atoms


@pytest.mark.parametrize("size", range(2, 9))
@pytest.mark.parametrize("eigenvalue", [0.0, 0.5, -0.3 + 0.4j])
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


def test_cyclic_minimal_function_depends_on_the_vector():
    cases = [
        (2, "eigenvector_line", [0.0]),
        (1, "divisor_kernel", [0.0, 0.0]),
        (0, "divisor_kernel", [0.0, 0.0, 0.0]),
    ]
    for column, branch, zeros in cases:
        certificate, cyclic_minimal = extraction._extract(S3, E[:, column])
        assert certificate.branch == branch
        assert equiv(cyclic_minimal, blaschke_product(zeros))


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
    phi = blaschke_factor(model.basis.zeros[2])
    sub = divisor_kernel_subspace(model.matrix, phi)
    assert 1 <= sub.dimension <= 4
    assert invariance_residual(model.matrix, sub.frame) <= 1e-8


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


def test_extraction_from_cyclic_vector_of_shift():
    cert = extract_invariant_subspace(S3, E[:, 0])
    assert cert.branch == "divisor_kernel"
    assert equiv(cert.divisor, blaschke_factor(0.0), zero_tol=1e-6)
    assert cert.subspace.dimension == 1
    assert abs(np.vdot(cert.subspace.frame[:, 0], E[:, 2])) == pytest.approx(1.0, abs=1e-10)
    assert cert.invariance_residual <= 1e-8
    assert equiv(cert.restriction_minimal_function, blaschke_factor(0.0), zero_tol=1e-6)


def test_extraction_from_eigenvector_of_shift():
    cert = extract_invariant_subspace(S3, E[:, 2])
    assert cert.branch == "eigenvector_line"
    assert cert.divisor is None
    assert cert.subspace.dimension == 1
    assert abs(np.vdot(cert.subspace.frame[:, 0], E[:, 2])) == pytest.approx(1.0, abs=1e-12)


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
        cert = extract_invariant_subspace(model.matrix, h)
        assert 1 <= cert.subspace.dimension <= n - 1
        assert cert.invariance_residual <= 1e-8


def test_extraction_rejects_trivial_input():
    with pytest.raises(TrivialElementError):
        extract_invariant_subspace(S3, np.zeros(3))
    with pytest.raises(ValueError):
        extract_invariant_subspace(np.array([[0.5]]), np.ones(1))


def test_multiplicity_free_detection():
    assert is_multiplicity_free(S3)
    model = build_model_operator(blaschke_product([0.2, 0.5, -0.3]))
    assert is_multiplicity_free(model.matrix)
    assert not is_multiplicity_free(np.diag([0.3, 0.3]))
    T = scipy.linalg.block_diag(jordan_cell(0.2, 2), jordan_cell(0.2, 2))
    assert not is_multiplicity_free(T)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, -1e-8])
def test_extraction_refuses_a_tolerance_that_passes_every_test(tolerance):
    # x > nan is always false, so a NaN tolerance would skip every residual test
    with pytest.raises(ValueError, match="tolerance"):
        extract_invariant_subspace(S3, E[:, 0], tolerance=tolerance)


def test_extraction_computes_each_minimal_function_once(monkeypatch):
    calls = []
    original = extraction.minimal_function

    def counting(T, *args, **kwargs):
        calls.append(np.shape(T))
        return original(T, *args, **kwargs)

    monkeypatch.setattr(extraction, "minimal_function", counting)
    model = build_model_operator(blaschke_product([0.2, -0.4, 0.5j, 0.1 + 0.3j]))
    h = np.random.default_rng(58).standard_normal(4) + 0j
    cert = extract_invariant_subspace(model.matrix, h)
    assert cert.branch == "divisor_kernel"
    # once on the cyclic restriction, once on the certified restriction
    assert calls == [(4, 4), (cert.subspace.dimension, cert.subspace.dimension)]


# Vectors drawn for the nilpotent Jordan cell J_8 by the extraction suite
# of `verify all --seed 37` and `--seed 43`.
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


@pytest.mark.xfail(
    raises=IllConditionedSpectrumError,
    reason="the absolute rank cut of cyclic_subspace stops at dimension 7; the "
    "7x7 compression is a perturbed nilpotent whose eigenvalues form a ring of "
    "radius 0.012-0.02, so the exponent search or the annihilation check fails",
)
@pytest.mark.parametrize("seed", sorted(_SHORT_CYCLIC_CUT))
def test_extraction_on_a_nilpotent_cell_cut_short_by_the_rank_cut(seed):
    T = jordan_cell(0.0, 8)
    cert = extract_invariant_subspace(T, np.array(_SHORT_CYCLIC_CUT[seed]))
    assert cert.invariance_residual <= 1e-8
