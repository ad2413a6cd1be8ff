"""Cyclic subspaces, minimal functions, and invariant-subspace extraction.

The extraction routine mechanizes a constructive argument: restrict the
operator to the cyclic subspace of a nonzero vector, read off the minimal
inner function of the restriction, and either split off the kernel of a
degree-one divisor (when the minimal function has degree at least two) or
certify the vector itself as an eigenvector (degree one).  Every returned
subspace carries a certificate with measured residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .calculus import (
    _apply_checked,
    _as_operator,
    _check_radius,
    _check_spectrum,
    _check_tolerance,
    apply,
    operator_norm,
)
from .errors import (
    IllConditionedSpectrumError,
    ImpossibleByTheoryError,
    NotADivisorError,
    NotInvariantError,
    RankAmbiguityError,
    TrivialAnnihilatorError,
    TrivialElementError,
)
from .inner import (
    BlaschkeFunction,
    InnerFunction,
    blaschke_factor,
    divides,
    inner_one,
    is_negligible,
)

# Hard cap for minimal-function extraction; beyond this the defectiveness
# probes lose their safety margin.
MAX_MINIMAL_DIM = 12
# Eigenvalues closer than this are one spectral point.
CLUSTER_RADIUS = 1e-8
# Surviving cluster centers closer than this factor times the radius make
# multiplicity assignment ambiguous.
AMBIGUITY_FACTOR = 10.0
# A point m counts as spectrally attached to T when smin(T - mI) is below
# this times max(1, ||T||).
DEFECT_TOL = 1e-12
# Residual allowed for the annihilation check of a computed minimal function.
ANNIHILATION_TOL = 1e-7

_ZERO_VECTOR_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^n held as an orthonormal column frame."""

    frame: np.ndarray
    ambient_dimension: int

    def __post_init__(self):
        frame = np.array(self.frame, dtype=complex)
        if frame.ndim != 2:
            raise ValueError("frame must be a 2d array of columns")
        if frame.shape[0] != self.ambient_dimension:
            raise ValueError(
                "frame has %d rows but the ambient dimension is %d"
                % (frame.shape[0], self.ambient_dimension)
            )
        if frame.shape[1] > self.ambient_dimension:
            raise ValueError("more frame columns than ambient dimensions")
        if frame.shape[1]:
            defect = float(
                np.max(np.abs(frame.conj().T @ frame - np.eye(frame.shape[1])))
            )
            if defect > 1e-10:
                raise ValueError(
                    "frame orthonormality defect %.3e exceeds 1e-10" % defect
                )
        frame.flags.writeable = False
        object.__setattr__(self, "frame", frame)

    @property
    def dimension(self) -> int:
        return self.frame.shape[1]

    def projector(self) -> np.ndarray:
        return self.frame @ self.frame.conj().T


def _compress(T: np.ndarray, frame: np.ndarray) -> tuple[np.ndarray, float]:
    """F* T F for an orthonormal frame F, and its invariance residual."""
    if frame.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex), 0.0
    compressed = frame.conj().T @ T @ frame
    return compressed, operator_norm(T @ frame - frame @ compressed)


def invariance_residual(T, frame: np.ndarray) -> float:
    """2-norm of (I - P) T P measured on the frame's columns."""
    return _compress(_as_operator(T), np.asarray(frame, dtype=complex))[1]


def cyclic_subspace(T, h, rank_tolerance: float = 1e-10) -> Subspace:
    """Closed span of h, T h, T^2 h, ... as an orthonormal frame.

    Vectors are orthogonalized by repeated modified Gram-Schmidt; the
    iteration stops when the next power leaves a residual below
    rank_tolerance relative to its size.

    Raises
    ------
    TrivialElementError
        If h is numerically the zero vector.
    """
    T = _as_operator(T)
    h = np.asarray(h, dtype=complex).reshape(-1)
    if h.shape[0] != T.shape[0]:
        raise ValueError("vector length %d does not match ambient %d" % (h.shape[0], T.shape[0]))
    norm_h = float(np.linalg.norm(h))
    if norm_h <= _ZERO_VECTOR_TOL:
        raise TrivialElementError("cyclic vector is numerically zero")
    columns = [h / norm_h]
    for _ in range(T.shape[0] - 1):
        v = T @ columns[-1]
        scale = max(1.0, float(np.linalg.norm(v)))
        for _ in range(2):
            for q in columns:
                v = v - q * np.vdot(q, v)
        r = float(np.linalg.norm(v))
        if r <= rank_tolerance * scale:
            break
        columns.append(v / r)
    return Subspace(np.column_stack(columns), T.shape[0])


def restrict(T, subspace: Subspace, invariance_tolerance: float = 1e-8) -> np.ndarray:
    """Matrix of T on an invariant subspace, in the frame's coordinates.

    Raises
    ------
    NotInvariantError
        If the subspace fails the invariance residual test.
    """
    compressed, residual = _compress(_as_operator(T), subspace.frame)
    if residual > invariance_tolerance:
        raise NotInvariantError(
            "invariance residual %.3e exceeds %.1e"
            % (residual, invariance_tolerance),
            residual=residual,
        )
    return compressed


# Probe points on the segment between two eigenvalue estimates.
_PROBE_POINTS = (0.25, 0.5, 0.75)


def _smin_lower_bounds(
    T: np.ndarray, w: np.ndarray, V: np.ndarray, z: np.ndarray
) -> np.ndarray | None:
    """Lower bounds on smin(T - zI) from one eigendecomposition T V ~ V diag(w).

    With R = TV - V diag(w), T - zI = V (diag(w) - zI) V^-1 + R V^-1, so by
    Weyl's inequality (Bauer and Fike, Numer. Math. 2, 1960)

        smin(T - zI) >= s_min min_k |w_k - z| / s_max - ||R||_F / s_min

    for s_max and s_min the extreme singular values of V.  Returns None
    when V is numerically singular and so bounds nothing.
    """
    s = np.linalg.svd(V, compute_uv=False)
    s_max, s_min = float(s[0]), float(s[-1])
    if not 0.0 < s_min < float("inf"):
        return None
    residual = float(np.linalg.norm(T @ V - V * w))
    distance = np.min(np.abs(z[..., None] - w), axis=-1)
    return s_min * distance / s_max - residual / s_min


def _defectively_joined(
    T: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float
) -> np.ndarray:
    """Which segments between pairs of eigenvalue estimates stay spectral.

    Backward-stable eigenvalues of a defective cluster scatter over a region
    in which T - mI stays numerically singular; genuinely distinct
    eigenvalues leave a gap where the smallest singular value lifts off.
    Three interior probes of each connecting segment separate the two
    cases; each probe is one stacked SVD over the pairs still joined.
    """
    eye = np.eye(T.shape[0], dtype=complex)
    joined = np.ones(a.shape, dtype=bool)
    for t in _PROBE_POINTS:
        pending = np.flatnonzero(joined)
        if pending.size == 0:
            break
        m = a[pending] + (b[pending] - a[pending]) * t
        smin = np.linalg.svd(T - m[:, None, None] * eye, compute_uv=False)[:, -1]
        joined[pending[smin > tol]] = False
    return joined


@lru_cache(maxsize=32)
def _upper_pairs(n: int) -> tuple:
    """``np.triu_indices(n, 1)``, cached per n and read-only."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _spectral_clusters(
    T: np.ndarray,
    eigs: np.ndarray,
    vectors: np.ndarray,
    cluster_radius: float,
    defect_tol: float,
) -> list:
    """Index groups of eigenvalue estimates that form one spectral point.

    The groups are the connected components of the pairs that are closer
    than cluster_radius or defectively joined, listed by smallest index.
    Pairs already connected through close pairs need no probe, and neither
    do pairs that the eigenvectors' lower bound on smin(T - zI) keeps above
    2 * defect_tol at some probe point: the probe's own error, about
    eps * ||T||, is far below defect_tol, so it would separate them too.
    """
    n = eigs.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows, cols = _upper_pairs(n)
    close = np.abs(eigs[rows] - eigs[cols]) <= cluster_radius
    for i, j in zip(rows[close], cols[close]):
        parent[find(j)] = find(i)
    far = np.array(
        [k for k in np.flatnonzero(~close) if find(rows[k]) != find(cols[k])],
        dtype=int,
    )
    if far.size:
        a, b = eigs[rows[far]], eigs[cols[far]]
        bounds = _smin_lower_bounds(
            T, eigs, vectors, a[:, None] + (b - a)[:, None] * _PROBE_POINTS
        )
        if bounds is not None:
            far = far[~np.any(bounds > 2.0 * defect_tol, axis=1)]
    joined = _defectively_joined(T, eigs[rows[far]], eigs[cols[far]], defect_tol)
    for i, j in zip(rows[far[joined]], cols[far[joined]]):
        parent[find(j)] = find(i)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [np.array(idx, dtype=int) for idx in groups.values()]


def minimal_function(
    T,
    cluster_radius: float = CLUSTER_RADIUS,
    rank_tolerance: float = 1e-10,
) -> InnerFunction:
    """Minimal annihilating finite Blaschke product of a small matrix.

    Eigenvalue estimates are clustered twice over: points closer than
    cluster_radius are identified, and clusters whose connecting segments
    remain numerically spectral (defective clusters, whose computed
    eigenvalues scatter far beyond their true location) are merged as well.
    Each surviving cluster contributes its mean as a zero, with exponent
    read from the rank deficiencies of powers.  The result is verified to
    annihilate T before it is returned; a 1x1 matrix [[t]] is annihilated
    by the Blaschke factor at t exactly and needs no check.

    Raises
    ------
    NearBoundarySpectrumError
        If the spectral radius is not safely inside the disk.
    IllConditionedSpectrumError
        If surviving clusters are too close to separate, exponents cannot
        be assigned consistently, or the result fails to annihilate T.
    """
    T = np.asarray(T, dtype=complex)
    if T.ndim == 2 and T.shape == (0, 0):
        # the unique operator on the zero space is annihilated by 1
        return inner_one()
    T = _as_operator(T)
    n = T.shape[0]
    if n > MAX_MINIMAL_DIM:
        raise ValueError(
            "minimal_function supports dimension <= %d, got %d"
            % (MAX_MINIMAL_DIM, n)
        )
    if n == 1:
        # zgeev returns the entry itself, and b_t(t) = 0 exactly
        return blaschke_factor(complex(_check_radius(T[0])[0]))
    eigs, vectors = np.linalg.eig(T)
    _check_radius(eigs)
    norm = operator_norm(T)
    defect_tol = DEFECT_TOL * max(1.0, norm)

    clusters = _spectral_clusters(T, eigs, vectors, cluster_radius, defect_tol)
    centers = [complex(np.mean(eigs[idx])) for idx in clusters]

    order = sorted(range(len(centers)), key=lambda i: (centers[i].real, centers[i].imag))
    clusters = [clusters[i] for i in order]
    centers = [centers[i] for i in order]

    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            gap = abs(centers[i] - centers[j])
            if gap < AMBIGUITY_FACTOR * cluster_radius:
                raise IllConditionedSpectrumError(
                    "cluster centers %.3e apart: multiplicity assignment "
                    "is ambiguous" % gap
                )

    eye = np.eye(n, dtype=complex)
    atoms = []
    for idx, center in zip(clusters, centers):
        count = len(idx)
        if count == 1:
            atoms.append((center, 1))
            continue
        shifted = T - center * eye
        exponent = None
        power = eye
        for k in range(1, count + 1):
            power = power @ shifted
            sv = np.linalg.svd(power, compute_uv=False)
            thr = rank_tolerance * max(1.0, float(sv[0]))
            nullity = int(np.sum(sv <= thr))
            if nullity >= count:
                exponent = k
                break
        if exponent is None:
            raise IllConditionedSpectrumError(
                "rank deficiencies of powers never reach multiplicity %d "
                "for the cluster at %s" % (count, center)
            )
        atoms.append((center, exponent))

    result = InnerFunction(blaschke=BlaschkeFunction(tuple(atoms)))
    # the spectrum was checked above; skip apply's second eigvals
    residual = operator_norm(_apply_checked(result, T, norm))
    if residual > ANNIHILATION_TOL:
        raise IllConditionedSpectrumError(
            "candidate minimal function leaves residual %.3e" % residual
        )
    return result


def verify_algebraic(T, h, theta) -> float:
    """Residual ||theta(T) h||; h is algebraic for theta when this is tiny.

    Callers compare against their tolerance times ||h||.

    Raises
    ------
    TrivialAnnihilatorError
        If theta is numerically the zero function (the test would be vacuous).
    """
    T = _as_operator(T)
    if is_negligible(theta):
        raise TrivialAnnihilatorError(
            "annihilator candidate is numerically the zero function"
        )
    h = np.asarray(h, dtype=complex).reshape(-1)
    return float(np.linalg.norm(apply(theta, T) @ h))


def divisor_kernel_subspace(T, phi: InnerFunction, rank_tolerance: float = 1e-10) -> Subspace:
    """Kernel of phi(T) for an inner divisor phi of the minimal function.

    The kernel is cut at singular values below rank_tolerance (relative to
    the largest); any singular value in the dead band between that cut and
    1e-6 stops the computation instead of guessing.

    Raises
    ------
    NotADivisorError
        If phi does not divide the minimal function of T.
    RankAmbiguityError
        If a singular value falls inside the dead band.
    NotInvariantError
        If the numerical kernel fails the invariance residual test.
    """
    T = _as_operator(T)
    minimal = minimal_function(T, rank_tolerance=rank_tolerance)
    return _divisor_kernel(T, phi, minimal, rank_tolerance)


def _divisor_kernel(
    T: np.ndarray, phi: InnerFunction, minimal: InnerFunction, rank_tolerance: float
) -> Subspace:
    """divisor_kernel_subspace for a caller that already holds minimal_function(T).

    Computing that minimal function checked the spectrum of T, so phi(T)
    is evaluated without checking it again.
    """
    if not divides(phi, minimal):
        raise NotADivisorError(
            "the requested function does not divide the minimal function"
        )
    A = _apply_checked(phi, T)
    _, sv, vh = np.linalg.svd(A)
    scale = max(1.0, float(sv[0])) if sv.size else 1.0
    low = rank_tolerance * scale
    high = 1e-6 * scale
    if np.any((sv > low) & (sv < high)):
        raise RankAmbiguityError(
            "singular value inside the dead band (%.1e, %.1e)" % (low, high)
        )
    subspace = Subspace(vh[sv <= low].conj().T, T.shape[0])
    residual = _compress(T, subspace.frame)[1]
    if residual > 1e-8:
        raise NotInvariantError(
            "numerical kernel has invariance residual %.3e" % residual,
            residual=residual,
        )
    return subspace


@dataclass(frozen=True, eq=False)
class ExtractionCertificate:
    """Proof data for one extracted invariant subspace.

    branch is "divisor_kernel" (kernel of a degree-one inner divisor of the
    cyclic restriction's minimal function) or "eigenvector_line" (the
    vector itself was certified as an eigenvector).
    """

    branch: str
    divisor: InnerFunction | None
    subspace: Subspace
    invariance_residual: float
    restriction_minimal_function: InnerFunction

    def __post_init__(self):
        if self.branch not in ("divisor_kernel", "eigenvector_line"):
            raise ValueError("unknown branch %r" % self.branch)
        if (self.divisor is not None) != (self.branch == "divisor_kernel"):
            raise ValueError("divisor must accompany exactly the kernel branch")
        d = self.subspace.dimension
        if not (1 <= d <= self.subspace.ambient_dimension - 1):
            raise ValueError(
                "certified subspace must be proper and nonzero, got dimension "
                "%d in ambient %d" % (d, self.subspace.ambient_dimension)
            )


def _smallest_zero(theta: InnerFunction) -> complex:
    zeros = [alpha for alpha, _ in theta.blaschke.atoms]
    zeros.sort(key=lambda a: (abs(a), float(np.angle(a)) % (2.0 * np.pi)))
    return zeros[0]


def extract_invariant_subspace(
    T,
    h,
    tolerance: float = 1e-8,
    rank_tolerance: float = 1e-10,
) -> ExtractionCertificate:
    """Produce a certified proper invariant subspace from a nonzero vector.

    Follows the constructive route: restrict to the cyclic subspace of h,
    compute the minimal function there, then either take the kernel of the
    Blaschke factor at its smallest-modulus zero (ties broken by smallest
    argument) or certify h as an eigenvector when the minimal function has
    degree one.

    Raises
    ------
    ValueError
        If tolerance is not a positive finite number: a NaN or infinite
        tolerance would pass every residual test.
    TrivialElementError
        If h is numerically zero.
    ImpossibleByTheoryError
        If the construction fails numerically where theory guarantees
        success; diagnostics are attached.
    """
    return _extract(T, h, tolerance, rank_tolerance)[0]


def _extract(
    T, h, tolerance: float = 1e-8, rank_tolerance: float = 1e-10
) -> tuple[ExtractionCertificate, InnerFunction]:
    """extract_invariant_subspace, also returning the cyclic minimal function."""
    _check_tolerance(tolerance)
    T = _as_operator(T)
    _check_spectrum(T)
    n = T.shape[0]
    if n < 2:
        raise ValueError("ambient dimension must be at least 2, got %d" % n)
    h = np.asarray(h, dtype=complex).reshape(-1)

    cyclic = cyclic_subspace(T, h, rank_tolerance)
    compressed = restrict(T, cyclic, tolerance)
    m1 = minimal_function(compressed, rank_tolerance=rank_tolerance)

    if m1.blaschke_degree >= 2:
        branch = "divisor_kernel"
        divisor = blaschke_factor(_smallest_zero(m1))
        try:
            local = _divisor_kernel(compressed, divisor, m1, rank_tolerance)
        except (RankAmbiguityError, NotInvariantError, NotADivisorError) as e:
            raise ImpossibleByTheoryError(
                "kernel extraction failed inside the cyclic subspace: %s" % e,
                diagnostics={"branch": branch, "cyclic_dimension": cyclic.dimension},
            )
        frame = cyclic.frame @ local.frame
        if local.dimension == 0 or local.dimension == cyclic.dimension:
            raise ImpossibleByTheoryError(
                "kernel of a proper divisor came out trivial",
                diagnostics={
                    "branch": branch,
                    "kernel_dimension": local.dimension,
                    "cyclic_dimension": cyclic.dimension,
                },
            )
    else:
        branch = "eigenvector_line"
        divisor = None
        alpha = m1.blaschke.atoms[0][0]
        h_norm = float(np.linalg.norm(h))
        eig_residual = float(np.linalg.norm(T @ h - alpha * h)) / h_norm
        if eig_residual > tolerance:
            raise ImpossibleByTheoryError(
                "degree-one minimal function but the vector fails the "
                "eigenvector test with residual %.3e" % eig_residual,
                diagnostics={"branch": branch, "eigenvector_residual": eig_residual},
            )
        frame = (h / h_norm).reshape(n, 1)

    subspace = Subspace(frame, n)
    restriction, residual = _compress(T, subspace.frame)
    if residual > tolerance:
        raise ImpossibleByTheoryError(
            "extracted subspace has invariance residual %.3e" % residual,
            diagnostics={"branch": branch, "invariance_residual": residual},
        )
    if not (1 <= subspace.dimension <= n - 1):
        raise ImpossibleByTheoryError(
            "extracted subspace is not proper",
            diagnostics={"branch": branch, "dimension": subspace.dimension},
        )
    restriction_minimal = minimal_function(restriction, rank_tolerance=rank_tolerance)
    certificate = ExtractionCertificate(
        branch=branch,
        divisor=divisor,
        subspace=subspace,
        invariance_residual=residual,
        restriction_minimal_function=restriction_minimal,
    )
    return certificate, m1


def is_multiplicity_free(
    T, attempts: int = 50, seed: int = 0, rank_tolerance: float = 1e-10
) -> bool:
    """Whether some vector generates the whole space under T.

    Tries seeded random vectors; cyclicity of any one certifies the
    property (the converse direction is probabilistic: after the given
    number of failed attempts the matrix is reported as not
    multiplicity-free).
    """
    T = _as_operator(T)
    n = T.shape[0]
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if cyclic_subspace(T, h, rank_tolerance).dimension == n:
            return True
    return False
