"""Minimal functions, divisor kernels, and invariant-subspace extraction.

The extraction routine mechanizes the paper's construction: for the
minimal annihilator m of a nonzero vector h and a zero a of m, the vector
g = (m / b_a)(T) h is nonzero and T g = a g, so span{g} is invariant.  m
is descended from an inner annihilator of h (_annihilator): the caller's,
a closed form's symbol, or T's characteristic product, which annihilates
T by Cayley-Hamilton; deg m is also the dimension of cyclic_subspace.
Every returned line carries a certificate with its measured residual.
The minimal function of T is the minimal annihilator of the columns of
I, descended the same way from the characteristic product; it decides
multiplicity-freeness and serves the classification of divisor kernels,
and extraction computes none.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .calculus import (
    _apply_checked,
    _as_operator,
    _blaschke_factors,
    _check_radius,
    _check_tolerance,
    apply,
    operator_norm,
)
from .errors import (
    ConditioningError,
    IllConditionedSpectrumError,
    ImpossibleByTheoryError,
    NotADivisorError,
    NotInvariantError,
    RankAmbiguityError,
    TrivialAnnihilatorError,
    TrivialElementError,
)
from .inner import (
    ATOM_MERGE_TOL,
    BlaschkeFunction,
    InnerFunction,
    _Frozen,
    blaschke_factor,
    blaschke_product,
    divides,
    inner_one,
    is_negligible,
)
from .model import compressed_shift_matrix

# Hard cap for minimal-function extraction; beyond this the defectiveness
# probes lose their safety margin.
MAX_MINIMAL_DIM = 12
# Eigenvalues closer than this times ||T||_2 are one spectral point.
CLUSTER_RADIUS = 1e-8
# Cluster means closer than this factor times the radius make the minimal
# function's multiplicities ambiguous.
AMBIGUITY_FACTOR = 10.0
# A point z counts as spectrally attached to T when smin(T - zI) is below
# this times ||T||_2.
DEFECT_TOL = 1e-12
# Vanishing tolerance of the descent to the minimal function: the cluster
# radius, so a zero that far off an eigenvalue still counts as one; zeros
# outside the ambiguity band shrink each other's eigenvectors by more.
MINIMAL_TOL = CLUSTER_RADIUS

# Rank cut of divisor kernels: a singular value of phi(T) at most this
# times max(1, the largest) is zero.
RANK_TOL = 1e-10
# restrict and divisor kernels take a subspace as invariant when
# (I - P) T P has 2-norm at most this times ||T||_2.
INVARIANCE_TOL = 1e-8
# The descent scales its columns by powers of two when a column norm or a
# vanishing test could pass 2**_SCALE_LOG2, a factor 2**124 below overflow.
_SCALE_LOG2 = 900


class Subspace(_Frozen):
    """A subspace of C^n held as an orthonormal column frame; equal only to
    itself."""

    __slots__ = ("frame", "ambient_dimension")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, frame: np.ndarray, ambient_dimension: int):
        frame = np.array(frame, dtype=complex)
        if frame.ndim != 2:
            raise ValueError("frame must be a 2d array of columns")
        if frame.shape[0] != ambient_dimension:
            raise ValueError(
                "frame has %d rows but the ambient dimension is %d"
                % (frame.shape[0], ambient_dimension)
            )
        if frame.shape[1] > ambient_dimension:
            raise ValueError("more frame columns than ambient dimensions")
        if not np.isfinite(frame).all():
            # NaN passes no comparison, so the defect test would admit it
            raise ValueError("frame has non-finite entries")
        if frame.shape[1]:
            defect = float(
                np.max(np.abs(frame.conj().T @ frame - np.eye(frame.shape[1])))
            )
            if defect > 1e-10:
                raise ValueError(
                    "frame orthonormality defect %.3e exceeds 1e-10" % defect
                )
        frame.flags.writeable = False
        self._set(frame, ambient_dimension)

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


def _scaled_vector(h, n: int) -> tuple[np.ndarray, float]:
    """h as a complex vector of length n, times the power of two that brings
    its norm into [1/2, 1), and the 2-norm of the result.

    Powers of two scale exactly but for parts that fall below the normal
    range, so every decision and line computed from the result is that of
    h itself, at any scale of h: the norm that picks the power is
    math.hypot, which does not underflow, and overflows only past the
    float range.

    Raises
    ------
    ValueError
        If the length is not n or an entry is not finite.
    TrivialElementError
        If h is the zero vector.
    """
    h = np.ascontiguousarray(h, dtype=complex).reshape(-1)
    if h.shape[0] != n:
        raise ValueError("vector length %d does not match ambient %d" % (h.shape[0], n))
    parts = h.view(float)
    size = math.hypot(*parts.tolist())
    if not size < math.inf:
        if not np.isfinite(parts).all():
            raise ValueError("vector has non-finite entries")
        # finite entries whose norm passes the float range; 2**-64 brings
        # it back for any length below 2**126
        return _scaled_vector(h * 2.0**-64, n)
    if size == 0.0:
        raise TrivialElementError("vector is zero")
    h = np.ldexp(parts, -math.frexp(size)[1]).view(complex)
    return h, float(np.linalg.norm(h))


def cyclic_subspace(T, h) -> Subspace:
    """Closed span of h, T h, T^2 h, ... as an orthonormal frame.

    Exactly deg m Krylov vectors, for m the minimal annihilator of h that
    extraction's theta descends to at MINIMAL_TOL, orthogonalized by twice
    repeated modified Gram-Schmidt.  h may have any nonzero finite scale.

    Raises
    ------
    ValueError, TrivialElementError
        If h has the wrong length or a non-finite entry, or is zero.
    NearBoundarySpectrumError, IllConditionedSpectrumError, ImpossibleByTheoryError
        As extract_invariant_subspace, and if theta does not annihilate h.
    """
    T = _as_operator(T)
    h, norm_h = _scaled_vector(h, T.shape[0])
    # theta annihilates 2**k T, whose normalized Krylov vectors are T's
    theta, fault, _, T, norm = _annihilator(T, operator_norm(T), None)
    annihilates, m, *_ = _descend(theta, T, norm, h[:, None], np.array([norm_h]), MINIMAL_TOL)
    if not annihilates:
        raise fault("theta does not annihilate h to tolerance %.0e" % MINIMAL_TOL)
    columns = [h / norm_h]
    for _ in range(m.blaschke_degree - 1):
        v = T @ columns[-1]
        for _ in range(2):
            for q in columns:
                v = v - q * np.vdot(q, v)
        columns.append(v / np.linalg.norm(v))
    return Subspace(np.column_stack(columns), T.shape[0])


def restrict(T, subspace: Subspace) -> np.ndarray:
    """Matrix of T on an invariant subspace, in the frame's coordinates.

    Raises
    ------
    NotInvariantError
        If the invariance residual exceeds INVARIANCE_TOL * ||T||_2.
    """
    T = _as_operator(T)
    compressed, residual = _compress(T, subspace.frame)
    cut = INVARIANCE_TOL * operator_norm(T)
    if residual > cut:
        raise NotInvariantError(
            "invariance residual %.3e exceeds %.1e" % (residual, cut),
            residual=residual,
        )
    return compressed


# Probe points on the segment between two eigenvalue estimates.
_PROBE_POINTS = (0.25, 0.5, 0.75)


def _smin_lower_bounds(
    T: np.ndarray, w: np.ndarray, V: np.ndarray, z: np.ndarray
) -> np.ndarray | None:
    """Lower bounds on smin(T - zI) from one eigendecomposition T V ~ V diag(w).

    With R = TV - V diag(w), (T - zI) V u = V (diag(w) - zI) u + R u for
    every u, and ||V u|| <= s_max ||u||, so (Bauer and Fike, Numer. Math. 2,
    1960)

        smin(T - zI) >= (s_min min_k |w_k - z| - ||R||_F) / s_max

    for s_max and s_min the extreme singular values of V.  Returns None
    when V is numerically singular and so bounds nothing.
    """
    s = np.linalg.svd(V, compute_uv=False)
    s_max, s_min = float(s[0]), float(s[-1])
    if not 0.0 < s_min < float("inf"):
        return None
    residual = float(np.linalg.norm(T @ V - V * w))
    distance = np.min(np.abs(z[..., None] - w), axis=-1)
    return (s_min * distance - residual) / s_max


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


def minimal_function(T) -> InnerFunction:
    """Minimal annihilating finite Blaschke product of a small matrix.

    The minimal annihilator of the columns of I: T's characteristic
    product is descended against I as extraction descends it against one
    vector, with vanishing tolerance MINIMAL_TOL.  A 1x1 matrix [[t]] is
    annihilated by the Blaschke factor at t exactly and needs no descent.

    Raises
    ------
    ConditioningError
        If the dimension exceeds MAX_MINIMAL_DIM.
    NearBoundarySpectrumError
        If the spectral radius is not safely inside the disk.
    IllConditionedSpectrumError
        If two cluster means lie within AMBIGUITY_FACTOR * CLUSTER_RADIUS
        * ||T||_2, or the characteristic product does not annihilate T.
    """
    T = np.asarray(T, dtype=complex)
    if T.ndim == 2 and T.shape == (0, 0):
        # the unique operator on the zero space is annihilated by 1
        return inner_one()
    T = _as_operator(T)
    n = T.shape[0]
    if n > MAX_MINIMAL_DIM:
        raise ConditioningError(
            "minimal_function supports dimension <= %d, got %d"
            % (MAX_MINIMAL_DIM, n)
        )
    if n == 1:
        # zgeev returns the entry itself, and b_t(t) = 0 exactly
        return blaschke_factor(complex(_check_radius(T[0])[0]))
    norm = operator_norm(T)
    theta = _characteristic_product(T, norm)
    zeros = [alpha for alpha, _ in theta.blaschke.atoms]
    for i, a in enumerate(zeros):
        for b in zeros[i + 1:]:
            if abs(a - b) < AMBIGUITY_FACTOR * CLUSTER_RADIUS * norm:
                raise IllConditionedSpectrumError(
                    "cluster means %.3e apart: multiplicity assignment is "
                    "ambiguous" % abs(a - b)
                )
    annihilates, minimal, *_ = _descend(
        theta, T, norm, np.eye(n, dtype=complex), np.ones(n), MINIMAL_TOL
    )
    if not annihilates:
        raise IllConditionedSpectrumError(
            "the characteristic product of T does not annihilate T: no factor "
            "shrinks some column of I by tolerance %.0e" % MINIMAL_TOL
        )
    return minimal


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


def divisor_kernel_subspace(T, phi: InnerFunction) -> Subspace:
    """Kernel of phi(T) for an inner divisor phi of the minimal function.

    The kernel is cut at singular values below RANK_TOL (relative to the
    largest); any singular value in the dead band between that cut and
    1e-6 stops the computation instead of guessing.

    Raises
    ------
    NotADivisorError
        If phi does not divide the minimal function of T.
    RankAmbiguityError
        If a singular value falls inside the dead band.
    NotInvariantError
        If the numerical kernel's invariance residual exceeds
        INVARIANCE_TOL * ||T||_2.
    """
    T = _as_operator(T)
    return _divisor_kernel(T, phi, minimal_function(T))[0]


def _divisor_kernel(
    T: np.ndarray, phi: InnerFunction, minimal: InnerFunction
) -> tuple[Subspace, np.ndarray, float]:
    """divisor_kernel_subspace for a caller that already holds
    minimal_function(T), also returning _compress(T, kernel frame).

    Computing that minimal function checked the spectrum of T, so phi(T)
    is evaluated without checking it again, on ||T||_2 computed once for
    it and for the invariance cut.
    """
    if not divides(phi, minimal):
        raise NotADivisorError(
            "the requested function does not divide the minimal function"
        )
    norm = operator_norm(T)
    A = _apply_checked(phi, T, norm)
    _, sv, vh = np.linalg.svd(A)
    scale = max(1.0, float(sv[0])) if sv.size else 1.0
    low = RANK_TOL * scale
    high = 1e-6 * scale
    if np.any((sv > low) & (sv < high)):
        raise RankAmbiguityError(
            "singular value inside the dead band (%.1e, %.1e)" % (low, high)
        )
    subspace = Subspace(vh[sv <= low].conj().T, T.shape[0])
    compressed, residual = _compress(T, subspace.frame)
    if residual > INVARIANCE_TOL * norm:
        raise NotInvariantError(
            "numerical kernel has invariance residual %.3e" % residual,
            residual=residual,
        )
    return subspace, compressed, residual


class ExtractionCertificate(_Frozen):
    """Proof data for one extracted invariant subspace; equal only to itself.

    The subspace is the line through g = (m / b_a)(T) h, m the minimal
    annihilator of h; branch is "divisor_kernel" (divisor b_a of m) when m
    has degree two or more, else "eigenvector_line" (g = h).
    """

    __slots__ = ("branch", "divisor", "subspace", "invariance_residual",
                 "restriction_minimal_function")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self,
        branch: str,
        divisor: InnerFunction | None,
        subspace: Subspace,
        invariance_residual: float,
        restriction_minimal_function: InnerFunction,
    ):
        if branch not in ("divisor_kernel", "eigenvector_line"):
            raise ValueError("unknown branch %r" % branch)
        if (divisor is not None) != (branch == "divisor_kernel"):
            raise ValueError("divisor must accompany exactly the kernel branch")
        d = subspace.dimension
        if not (1 <= d <= subspace.ambient_dimension - 1):
            raise ValueError(
                "certified subspace must be proper and nonzero, got dimension "
                "%d in ambient %d" % (d, subspace.ambient_dimension)
            )
        self._set(
            branch, divisor, subspace, invariance_residual, restriction_minimal_function
        )


def _zero_order(alpha: complex) -> tuple:
    """Sort key of the zero a certificate splits off: modulus, then argument."""
    return (abs(alpha), cmath.phase(alpha) % (2.0 * np.pi))


def extract_invariant_subspace(
    T,
    h,
    tolerance: float = 1e-8,
    annihilator: InnerFunction | None = None,
) -> ExtractionCertificate:
    """Produce a certified proper invariant subspace from a nonzero vector.

    Certifies the line through g = (m / b_a)(T) h, for m the minimal
    annihilator of h and a its zero of smallest modulus (ties broken by
    smallest argument); b_a(T) g = m(T) h = 0, so T g = a g.  The branch
    is "divisor_kernel" with divisor b_a when m has degree two or more,
    "eigenvector_line" (g = h) otherwise; the restriction's minimal
    function is b_a.  m is descended from an inner theta that annihilates
    h, and only the source of theta differs: the given annihilator; else,
    when T is bit for bit the closed-form compressed shift of the Blaschke
    product b read off its diagonal (a model operator, a model bundle's
    matrix, the Jordan cell J_n(0)), theta = b, with the spectrum checked
    on the diagonal; else the characteristic product of T's eigenvalue
    clusters, which annihilates T up to their spread.

    Raises
    ------
    ValueError
        If tolerance is not a positive finite number (a NaN or infinite
        tolerance would pass every residual test), if T has fewer than two
        rows, or if a given annihilator does not annihilate h to within
        tolerance.
    TypeError
        If the annihilator is not an InnerFunction.
    NearBoundarySpectrumError
        If the spectral radius is not safely inside the disk.
    TrivialElementError
        If h is numerically zero.
    NotInvariantError
        If the certified line fails the final test while its bound lies
        below n * eps * ||T||_2, the rounding of the test's own matvec.
    IllConditionedSpectrumError
        If two cluster means of the characteristic product merge in an
        InnerFunction, or if g is zero, every quotient of the descended
        product vanishes on h, or the line fails the final test at a
        bound above that level on that product; diagnostics are attached.
    ImpossibleByTheoryError
        The same failure with a given theta or the symbol read off the
        diagonal, where theory guarantees success.
    """
    return _extract(T, h, tolerance, annihilator)[0]


def _closed_form_symbol(T: np.ndarray) -> InnerFunction | None:
    """The Blaschke product b read off the diagonal of T when T is bit for
    bit ``compressed_shift_matrix`` of b's zeros in canonical order, else
    None.

    A diagonal entry of modulus 1 or more refuses at once.  T is then
    compared with the closed form of its own diagonal, which covers the
    strictly upper part, and only on a match is b built: T is the closed
    form of b's zeros exactly when it is the closed form of its diagonal
    and that diagonal is b's zero list, in canonical order and with no
    zeros merged.  b annihilates its compressed shift, so it annihilates
    every vector.  Zeros closer than ATOM_MERGE_TOL merge in b, and a
    closed form built in another zero order has another diagonal, so both
    fail the test.
    """
    diagonal = np.diag(T).tolist()
    if any(abs(alpha) >= 1.0 for alpha in diagonal):
        return None
    if not np.array_equal(T, compressed_shift_matrix(diagonal)):
        return None
    b = blaschke_product(diagonal)
    return b if b.blaschke.zeros_with_multiplicity() == diagonal else None


def _characteristic_product(T: np.ndarray, norm: float) -> InnerFunction:
    """prod_C b_c^|C| over the eigenvalue clusters C of T, c the mean of C.

    With exact clusters this is the Blaschke product of the eigenvalues
    with algebraic multiplicity, which annihilates T by Cayley-Hamilton.
    The clusters come from one eigendecomposition, with cuts
    CLUSTER_RADIUS * norm and DEFECT_TOL * norm for norm = ||T||_2, so
    T -> cT moves none of them, and a defective cluster is one zero, not
    the ring its computed eigenvalues scatter into.
    """
    eigs, vectors = np.linalg.eig(T)
    _check_radius(eigs)
    clusters = _spectral_clusters(
        T, eigs, vectors, CLUSTER_RADIUS * norm, DEFECT_TOL * norm
    )
    atoms = tuple((complex(np.mean(eigs[idx])), idx.size) for idx in clusters)
    theta = InnerFunction(blaschke=BlaschkeFunction(atoms))
    if len(theta.blaschke.atoms) < len(atoms):
        raise IllConditionedSpectrumError(
            "%d eigenvalue clusters of T merge into %d zeros closer than %.0e"
            % (len(atoms), len(theta.blaschke.atoms), ATOM_MERGE_TOL)
        )
    return theta


def _annihilator(T: np.ndarray, norm: float, given: InnerFunction | None) -> tuple:
    """theta as extract_invariant_subspace picks it for T, norm = ||T||_2,
    the error class for its failures, k, 2**k T and its 2-norm.  k = 0 but
    on the characteristic product's route with 0 < norm < 1/4, where 2**k
    brings the norm into [1/4, 1/2), exactly, so that the eigenvalues of a
    small T do not merge as zeros; the spectral radius stays below 1/2."""
    if given is not None:
        return given, ImpossibleByTheoryError, 0, T, norm
    theta = _closed_form_symbol(T)
    if theta is not None:
        # LAPACK returns a triangular matrix's diagonal as its eigenvalues
        _check_radius(np.diag(T))
        return theta, ImpossibleByTheoryError, 0, T, norm
    k = -1 - math.frexp(norm)[1] if 0.0 < norm < 0.25 else 0
    if k:
        T = np.ldexp(np.ascontiguousarray(T).view(float), k).view(complex)
        norm = math.ldexp(norm, k)
    return _characteristic_product(T, norm), IllConditionedSpectrumError, k, T, norm


def _extract(
    T,
    h,
    tolerance: float = 1e-8,
    annihilator: InnerFunction | None = None,
) -> tuple[ExtractionCertificate, InnerFunction]:
    """extract_invariant_subspace, also returning the minimal annihilator m
    of h that theta was descended to.

    T, h and a given annihilator are checked before any spectral work, and
    h is scaled by a power of two into norm [1/2, 1) (_scaled_vector).
    Only a given theta is tested for annihilating h: the other two
    annihilate T by construction, and the final test guards them.  theta
    is descended on _annihilator's 2**k T, and the line certified on T.
    _certify_eigenline bounds the invariance residual and the line's
    eigenvalue offset from a by tolerance * min(1, ||T||_2), so a wrong
    decision along the way can only end in a refusal.
    """
    _check_tolerance(tolerance)
    T = _as_operator(T)
    n = T.shape[0]
    if n < 2:
        raise ValueError("ambient dimension must be at least 2, got %d" % n)
    if annihilator is not None and not isinstance(annihilator, InnerFunction):
        raise TypeError(
            "annihilator must be an InnerFunction, got %r" % type(annihilator).__name__
        )
    h, h_norm = _scaled_vector(h, n)
    norm = operator_norm(T)
    theta, fault, k, scaled, scaled_norm = _annihilator(T, norm, annihilator)
    annihilates, minimal, V, norms, vanished, exponents = _descend(
        theta, scaled, scaled_norm, h[:, None], np.array([h_norm]), tolerance
    )
    if annihilator is not None and not annihilates:
        raise ValueError(
            "the annihilator does not annihilate h: no factor shrinks its "
            "vector by tolerance %.1e" % tolerance
        )
    # g_a of the last batch is nonzero for each zero a whose quotient did
    # not vanish there: every zero of m, unless the descent ended early
    zeros = [alpha for alpha, _ in minimal.blaschke.atoms]
    if k:
        # 2**-k maps m to T's scale, where zeros closer than ATOM_MERGE_TOL
        # merge, adding their multiplicities
        atoms = [(complex(math.ldexp(a.real, -k), math.ldexp(a.imag, -k)), mult)
                 for a, mult in minimal.blaschke.atoms]
        zeros = [alpha for alpha, _ in atoms]
        minimal = InnerFunction(blaschke=BlaschkeFunction(tuple(atoms)))
    kept = [i for i in range(len(zeros)) if not vanished[i]]
    ratios = _ratios(norms, exponents, h_norm)
    if not kept:
        raise fault(
            "every quotient of the descended product annihilates h",
            diagnostics={"branch": _branch(minimal), "g_ratios": list(zip(zeros, ratios[1:]))},
        )
    i = min(kept, key=lambda i: _zero_order(zeros[i]))
    alpha, g, g_norm = zeros[i], V[:, i + 1], float(norms[i + 1])
    certificate = _certify_eigenline(
        T, g, g_norm, alpha, minimal, norm, tolerance, [(alpha, ratios[i + 1])], fault
    )
    return certificate, minimal


def _norm_bounds(factors: list, n: int) -> tuple:
    """Lists of lower and upper bounds on ||F||_2 for each n x n factor F.

    ||F||_F / sqrt(n) <= ||F||_2 <= ||F||_F (Golub and Van Loan, Matrix
    Computations, section 2.3); ||F||_F is a hypot reduction, which
    neither overflows nor underflows, and the margins 1 -/+ 1e-8 cover the
    rounding of both norms.  A bound is infinite past the float range,
    where _descend takes the exact norm instead.
    """
    if not factors:
        return [], []
    with np.errstate(over="ignore"):
        frobenius = np.hypot.reduce(np.abs(np.reshape(factors, (len(factors), -1))), axis=1)
    return (
        (frobenius / np.sqrt(n) * (1.0 - 1e-8)).tolist(),
        (frobenius * (1.0 + 1e-8)).tolist(),
    )


def _exact_norm(sizes: tuple, k: int, factor: np.ndarray) -> float:
    """||F||_2 for the factor F = b_k(T) from its own SVD; it replaces both
    bounds sizes[0][k] and sizes[1][k], so every later test of F is
    decided on it."""
    sizes[0][k] = sizes[1][k] = operator_norm(factor)
    return sizes[1][k]


def _descend(theta, T, norm, H, H_norms, tolerance):
    """Descend theta to the minimal annihilator m of the n x r block H.

    H_norms holds the column norms of H and norm is ||T||_2.  The gamma
    and singular factors of theta are invertible at T, so only its
    Blaschke part can annihilate H.  Each factor b_a(T) comes from
    _blaschke_factors, formed once, and is then only applied to vectors;
    one with ||b_a(T)||_2 <= tolerance * norm is taken as exactly zero,
    since T is aI to that accuracy.  A product phi(T) v, applied one
    factor at a time, counts as zero when some application w = b(T) u
    leaves ||w|| at most tolerance * ||b(T)||_2 * ||u||.  No absolute size
    enters the test, so T -> cT with zeros a -> ca needs no rescaled
    threshold, and for contractions it is never looser than
    ||phi(T) v|| <= tolerance * ||v||.  A chain of factors that shrinks a
    vector gradually, as powers of a non-normal factor do, is not taken
    for zero, however small it ends.  phi(T) annihilates H when every
    column counts as zero.

    ||b_a(T)||_2 enters every test through the Frobenius bounds of
    _norm_bounds.  Rounding is monotone, so where the two bounds decide a
    test alike they decide it as the exact norm would.  Where they
    disagree on a column that has not vanished, or a bound is not finite,
    _exact_norm takes that factor's 2-norm from its own SVD, once, and
    decides there.  The decisions, m and the batches are those of the
    exact norms.

    Returns whether theta annihilates H, by the first batch alone, then
    m and the last batch of _quotient_images: m(T) and (m / b_a)(T) for
    each zero a of m in atom order, applied to the columns of H, with
    their norms, whether each quotient counts as annihilating H, and the
    batch's exponents.  The batches are scaled when the norms of H, the
    upper bounds on the factors' norms and the tolerance bound some column
    or test above 2**_SCALE_LOG2, which is decided once per descent.
    """
    zeros = [alpha for alpha, _ in theta.blaschke.atoms]
    factors = _blaschke_factors(zeros, T, norm)
    sizes = _norm_bounds(factors, T.shape[0])
    cut = tolerance * norm
    for k, (low, high) in enumerate(zip(*sizes)):
        if not high < math.inf or (low <= cut) != (high <= cut):
            high = _exact_norm(sizes, k, factors[k])
        if high <= cut:
            factors[k] = np.zeros_like(factors[k])

    def images(mult):
        """The product itself, then the quotient by each of its zeros."""
        live = [k for k, m in enumerate(mult) if m]
        return live, _quotient_images(
            factors, sizes, H, H_norms, tolerance, scaled, mult, [None] + live
        )

    mult = [m for _, m in theta.blaschke.atoms]
    scaled = math.log2(max(1.0, tolerance) * float(max(H_norms))) + sum(
        m * math.log2(max(1.0, high)) for m, high in zip(mult, sizes[1])
    ) > _SCALE_LOG2
    live, (V, norms, vanished, exponents) = images(mult)
    annihilates = bool(vanished[0])
    # m divides every quotient theta / b_k that annihilates H, so it
    # divides their gcd, theta over the product of those b_k.  All of
    # those zeros go in one step and every remaining zero is tested again.
    # A step stands only if its own batch still counts the reduced product
    # as annihilating H, which zeros closer than the tolerance can deny;
    # else only the first of those zeros goes, and if that step does not
    # stand either, the descent ends at the current product.
    dropped = False
    while True:
        hits = [k for k, v in zip(live, vanished[1:]) if v]
        if not hits:
            break
        for step in (hits, hits[:1]) if len(hits) > 1 else (hits,):
            trial = [m - (k in step) for k, m in enumerate(mult)]
            trial_live, batch = images(trial)
            if batch[2][0]:
                break
        else:
            break
        mult, live, (V, norms, vanished, exponents), dropped = trial, trial_live, batch, True
    if dropped:
        minimal = InnerFunction(
            blaschke=BlaschkeFunction(tuple((zeros[k], mult[k]) for k in live))
        )
    else:
        minimal = InnerFunction(blaschke=theta.blaschke)
    return annihilates, minimal, V, norms, vanished[1:], exponents


def _branch(minimal: InnerFunction) -> str:
    """The certificate's branch for the minimal annihilator m."""
    return "divisor_kernel" if minimal.blaschke_degree >= 2 else "eigenvector_line"


def _certify_eigenline(
    T, g, g_norm, alpha, minimal, norm, tolerance, g_ratios, fault
) -> ExtractionCertificate:
    """The final step: the line through g = (m / b_alpha)(T) h passes when
    its invariance residual and its eigenvalue's offset from alpha are at
    most tolerance * min(1, norm), norm = ||T||_2; a NaN fails.  A failure
    raises fault, the error class for the source of theta, with g_ratios,
    each tested zero with ||g_a|| / ||h||, in its diagnostics.  A bound
    below n * eps * norm is beneath the rounding of the residual's own
    matvec, so a failure there is NotInvariantError."""
    branch = _branch(minimal)
    diagnostics = {"branch": branch, "g_ratios": g_ratios}
    if not 0.0 < g_norm < float("inf"):
        raise fault(
            "(m / b_a)(T) h has norm %.3e at the zero %s" % (g_norm, alpha),
            diagnostics=diagnostics,
        )
    n = T.shape[0]
    subspace = Subspace((g / g_norm).reshape(n, 1), n)
    restriction, residual = _compress(T, subspace.frame)
    offset = abs(complex(restriction[0, 0]) - alpha)
    bound = tolerance * min(1.0, norm)
    if not (residual <= bound and offset <= bound):
        message = (
            "the line through (m / b_a)(T) h has invariance residual %.3e and "
            "eigenvalue offset %.3e from the zero %s, against a bound of %.3e"
            % (residual, offset, alpha, bound)
        )
        if bound < n * np.finfo(float).eps * norm:
            raise NotInvariantError(
                message + ", below the rounding of the test itself", residual=residual
            )
        raise fault(
            message,
            diagnostics={**diagnostics, "invariance_residual": residual,
                         "eigenvalue_offset": offset},
        )
    factor = blaschke_factor(alpha)
    return ExtractionCertificate(
        branch=branch,
        divisor=factor if branch == "divisor_kernel" else None,
        subspace=subspace,
        invariance_residual=residual,
        restriction_minimal_function=factor,
    )


def _column_norms(V: np.ndarray) -> np.ndarray:
    """2-norms of the columns of V by hypot, which does not underflow as a
    sum of squares of tiny entries does."""
    return np.hypot.reduce(np.abs(V), axis=0)


def _rescale(V, norms, exponents):
    """V and norms with each column of norm 1 or more divided by the least
    power of two 2**k that brings its norm below 1, and exponents + k."""
    k = np.maximum(np.frexp(norms)[1], 0)
    return V * np.ldexp(1.0, -k), np.ldexp(norms, -k), exponents + k


def _ratios(norms, exponents, h_norm) -> list:
    """||g|| / ||h|| for each column g of a batch of _quotient_images on
    h; inf past the float range."""
    if exponents is None:
        return [float(g) / h_norm for g in norms]
    with np.errstate(over="ignore"):
        return np.ldexp(norms / h_norm, exponents).tolist()


def _quotient_images(factors, sizes, H, H_norms, tolerance, scaled, mult, dropped):
    """One batch of the tests of _descend.

    Column c * len(dropped) + i is (prod_k b_k^mult[k] / b_dropped[i])(T)
    applied to column c of H, with its norm; a dropped None removes no
    factor.  Quotient i counts as zero when each of its r columns does.
    factors holds b_k(T), and sizes lists of lower and upper bounds on
    ||b_k(T)||_2, equal when exact.  Each test is made at the upper bound,
    and at the lower bound only where the upper one passes; only where the
    two decide a column that has not vanished differently does
    _exact_norm settle the factor's norm in sizes.  V and the norms do not
    depend on the bounds.

    When scaled, _rescale runs before the first application and after
    each, and column j of V and its norm are the image's times
    2**-exponents[j]; else exponents is None.  Powers of two scale exactly
    but for subnormal parts, so the decisions and the lines of the columns
    are those of the unscaled arithmetic, without its overflow.
    """
    r, d = H.shape[1], len(dropped)
    drop = np.array([-1 if k is None else k for _ in range(r) for k in dropped])
    counts = np.asarray(mult) - (drop[:, None] == np.arange(len(mult)))
    V = np.repeat(H, d, axis=1)
    norms = np.repeat(H_norms, d)
    exponents = None
    if scaled:
        V, norms, exponents = _rescale(V, norms, 0)
    vanished = np.zeros(V.shape[1], dtype=bool)
    for k, (factor, low, high) in enumerate(zip(factors, *sizes)):
        for j in range(mult[k]):
            active = counts[:, k] > j
            W = factor @ V
            w_norms = _column_norms(W)
            hit = active & (w_norms <= tolerance * high * norms)
            if hit.any():
                if np.any(hit & ~vanished & (w_norms > tolerance * low * norms)):
                    low = high = _exact_norm(sizes, k, factor)
                    hit = active & (w_norms <= tolerance * high * norms)
                vanished |= hit
            V = np.where(active, W, V)
            norms = np.where(active, w_norms, norms)
            if scaled:
                V, norms, exponents = _rescale(V, norms, exponents)
    return V, norms, vanished.reshape(r, d).all(axis=0), exponents


def is_multiplicity_free(T) -> bool:
    """Whether some vector generates the whole space under T.

    T is cyclic exactly when its minimal function has degree n (Horn and
    Johnson, Matrix Analysis, 2nd ed., 2013, section 3.3).  A matrix that
    is bit for bit the closed-form compressed shift of its diagonal is
    cyclic, so it is answered without computation, whatever its dimension.

    Raises
    ------
    ConditioningError, NearBoundarySpectrumError, IllConditionedSpectrumError
        As minimal_function, off the closed form: c * S_B refuses where c
        times the smallest gap between b's zeros is at most ATOM_MERGE_TOL.
    """
    T = _as_operator(T)
    if _closed_form_symbol(T) is not None:
        return True
    return minimal_function(T).blaschke_degree == T.shape[0]
