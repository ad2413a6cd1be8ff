"""Functional calculus for contractions with spectrum inside the disk.

The production path (:func:`apply`) is structural: polynomials go through
Horner's scheme, rational functions through a single linear solve, Blaschke
factors through resolvents, singular factors through a matrix exponential,
and products through matrix multiplication.  An independent spectral path
(:func:`apply_spectral`) evaluates the same symbol from eigenvalue data and
exists to cross-check the structural path, never to replace it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningError,
    NearBoundarySpectrumError,
)
from .inner import (
    BoundedAnalyticFunction,
    InnerFunction,
    Polynomial,
    ProductFunction,
    RationalFunction,
    eval_blaschke_factor,
    inner_one,
    multiply,
)

# Spectrum must stay this far from the unit circle.
SPECTRAL_MARGIN = 1e-6
# Eigenvector basis condition number beyond which diagonalization is refused.
EIG_COND_CAP = 1e6
# Linear-solve condition cap for the rational path.
SOLVE_COND_CAP = 1e14
# Eigenvalues chained closer than this share a Parlett block.
BLOCK_GAP = 0.1

_METHODS = ("eigen_decomposition", "schur_parlett_fallback")


@dataclass(frozen=True)
class CalculusConfig:
    """Tolerances and method switches for the calculus routines."""

    verify_tolerance: float = 1e-8
    matrix_function_method: str = "schur_parlett_fallback"
    boundary_samples: int = 2048

    def __post_init__(self):
        if self.matrix_function_method not in _METHODS:
            raise ValueError(
                "matrix_function_method must be one of %r" % (_METHODS,)
            )
        if not (self.verify_tolerance > 0.0):
            raise ValueError("verify_tolerance must be positive")
        if self.boundary_samples < 64:
            raise ValueError("boundary_samples must be at least 64")


DEFAULT_CONFIG = CalculusConfig()


def _as_operator(T) -> np.ndarray:
    try:
        T = np.asarray(T, dtype=complex)
    except TypeError as exc:
        raise ValueError(
            "operator must be convertible to a complex matrix; for a model "
            "operator pass its .matrix attribute"
        ) from exc
    if T.ndim != 2 or T.shape[0] != T.shape[1] or T.shape[0] == 0:
        raise ValueError("operator must be a nonempty square matrix")
    if not np.all(np.isfinite(T)):
        raise ValueError("operator entries must be finite")
    return T


def _check_spectrum(T: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvals(T)
    radius = float(np.max(np.abs(eigs)))
    if radius > 1.0 - SPECTRAL_MARGIN:
        raise NearBoundarySpectrumError(
            "spectral radius %.17g is within %.0e of the unit circle"
            % (radius, SPECTRAL_MARGIN)
        )
    return eigs


def operator_norm(A: np.ndarray) -> float:
    return float(np.linalg.norm(A, 2))


def _horner(coefficients, T: np.ndarray) -> np.ndarray:
    eye = np.eye(T.shape[0], dtype=complex)
    out = coefficients[-1] * eye
    for c in coefficients[-2::-1]:
        out = out @ T + c * eye
    return out


def _solve_commuting(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^{-1} B for matrices that commute (both rational in the same T)."""
    if np.linalg.cond(A) > SOLVE_COND_CAP:
        raise ConditioningError("linear solve too ill conditioned")
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError as e:
        raise ConditioningError("singular linear solve: %s" % e)


def _apply_inner(theta: InnerFunction, T: np.ndarray) -> np.ndarray:
    eye = np.eye(T.shape[0], dtype=complex)
    out = theta.gamma * eye
    for alpha, mult in theta.blaschke.atoms:
        if alpha == 0:
            factor = T
        else:
            unit = abs(alpha) / alpha
            factor = _solve_commuting(
                eye - np.conj(alpha) * T, unit * (alpha * eye - T)
            )
        out = out @ np.linalg.matrix_power(factor, mult)
    for angle, weight in theta.singular.atoms:
        import scipy.linalg

        xi = np.exp(1j * angle)
        cayley = _solve_commuting(xi * eye - T, xi * eye + T)
        out = out @ scipy.linalg.expm(-weight * cayley)
    return out


def _apply_checked(u: BoundedAnalyticFunction, T: np.ndarray) -> np.ndarray:
    if isinstance(u, Polynomial):
        return _horner(u.coefficients, T)
    if isinstance(u, RationalFunction):
        p = _horner(u.numerator, T)
        q = _horner(u.denominator, T)
        return _solve_commuting(q, p)
    if isinstance(u, InnerFunction):
        return _apply_inner(u, T)
    if isinstance(u, ProductFunction):
        out = np.eye(T.shape[0], dtype=complex)
        for f in u.factors:
            out = out @ _apply_checked(f, T)
        return out
    raise TypeError("unsupported function type %r" % type(u).__name__)


def apply(u: BoundedAnalyticFunction, T, config: CalculusConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Evaluate u at the matrix T along the structural route.

    The constant 1 maps to the identity and the coordinate function to T
    itself, exactly.  The spectrum of T must stay 1e-6 away from the unit
    circle; otherwise NearBoundarySpectrumError is raised.
    """
    T = _as_operator(T)
    _check_spectrum(T)
    return _apply_checked(u, T)


def _cluster_indices(points: np.ndarray, gap: float) -> list:
    """Partition indices by chaining points closer than ``gap``."""
    m = len(points)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(points[i] - points[j]) > gap:
                continue
            pi, pj = find(i), find(j)
            if pi != pj:
                parent[pj] = pi
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    clusters = list(groups.values())
    clusters.sort(
        key=lambda idx: (
            float(np.mean(points[idx]).real),
            float(np.mean(points[idx]).imag),
        )
    )
    return clusters


def _power_series_matrix(scalar, A: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    """Evaluate ``scalar`` at A by a Taylor series at the spectral centroid.

    Valid when every eigenvalue of A lies well inside the disk of
    analyticity around the centroid; otherwise the series cannot converge
    and a ConditioningError is raised.  The k-th term is accumulated as
    (scaled circle sample coefficient) times (shifted A / radius)^k, which
    keeps both factors representable even for small radii.
    """
    center = complex(np.mean(eigs))
    spread = float(np.max(np.abs(eigs - center))) if len(eigs) else 0.0
    room = 1.0 - SPECTRAL_MARGIN - abs(center)
    if spread >= 0.9 * room:
        raise ConditioningError(
            "eigenvalue cluster of spread %.3e too wide for a series of "
            "radius %.3e" % (spread, room)
        )
    radius = 0.5 * (spread + room)
    count = 2048
    nodes = center + radius * np.exp(2j * np.pi * np.arange(count) / count)
    coeffs = np.fft.fft(np.asarray(scalar(nodes), dtype=complex)) / count
    n = A.shape[0]
    eye = np.eye(n, dtype=complex)
    scaled = (A - center * eye) / radius
    out = coeffs[0] * eye
    power = eye
    quiet = 0
    for k in range(1, count // 2):
        power = power @ scaled
        term = coeffs[k] * power
        out = out + term
        size = float(np.linalg.norm(term, "fro"))
        if size <= 1e-13 * max(1.0, float(np.linalg.norm(out, "fro"))) and k >= n:
            quiet += 1
            if quiet >= 5:
                return out
        else:
            quiet = 0
        if not np.isfinite(size):
            break
    raise ConditioningError("matrix Taylor series did not settle")


def _schur_parlett(scalar, T: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    """Block Parlett recurrence on a cluster-ordered complex Schur form."""
    import scipy.linalg

    U, Q = scipy.linalg.schur(T, output="complex")
    diag = np.diag(U).copy()
    clusters = _cluster_indices(diag, BLOCK_GAP)
    if len(clusters) == 1:
        return _power_series_matrix(scalar, T, eigs)

    def label_of(value):
        gaps = [
            float(np.min(np.abs(diag[idx] - value))) for idx in clusters
        ]
        return int(np.argmin(gaps))

    # Reorder the Schur form so clusters occupy contiguous diagonal blocks:
    # repeatedly re-decompose the trailing principal block, sorting the next
    # cluster's eigenvalues to its leading positions.
    n = T.shape[0]
    sizes = []
    offset = 0
    for c in range(len(clusters) - 1):
        sub = U[offset:, offset:]
        sub_ordered, z, sdim = scipy.linalg.schur(
            sub, output="complex", sort=lambda x: label_of(x) == c
        )
        if sdim != len(clusters[c]):
            raise ConditioningError("cluster ordering failed in the Schur form")
        U[offset:, offset:] = sub_ordered
        U[:offset, offset:] = U[:offset, offset:] @ z
        Q[:, offset:] = Q[:, offset:] @ z
        sizes.append(sdim)
        offset += sdim
    sizes.append(n - offset)

    starts = np.concatenate(([0], np.cumsum(sizes))).astype(int)
    m = len(sizes)
    F = np.zeros_like(U)
    blocks = []
    for i in range(m):
        s = slice(starts[i], starts[i + 1])
        blocks.append(s)
        F[s, s] = _power_series_matrix(scalar, U[s, s], np.diag(U[s, s]))
    for gap in range(1, m):
        for i in range(m - gap):
            j = i + gap
            si, sj = blocks[i], blocks[j]
            rhs = F[si, si] @ U[si, sj] - U[si, sj] @ F[sj, sj]
            for k in range(i + 1, j):
                sk = blocks[k]
                rhs = rhs + F[si, sk] @ U[sk, sj] - U[si, sk] @ F[sk, sj]
            F[si, sj] = scipy.linalg.solve_sylvester(
                U[si, si], -U[sj, sj], rhs
            )
    return Q @ F @ Q.conj().T


def apply_spectral(
    u: BoundedAnalyticFunction, T, config: CalculusConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Evaluate u at T from spectral data alone; the calculus cross-check.

    Diagonalizes when the eigenvector basis is well conditioned (condition
    number below 1e6).  Otherwise, with method ``schur_parlett_fallback``,
    falls back to a blocked Parlett recurrence whose diagonal blocks are
    summed as Taylor series; with method ``eigen_decomposition`` the
    fallback is disabled and a ConditioningError is raised instead.
    """
    T = _as_operator(T)
    eigs = _check_spectrum(T)

    def scalar(z):
        return np.asarray(u(z), dtype=complex)

    w, v = np.linalg.eig(T)
    if float(np.linalg.cond(v)) < EIG_COND_CAP:
        fw = scalar(w)
        return np.linalg.solve(v.T, (v * fw).T).T
    if config.matrix_function_method == "eigen_decomposition":
        raise ConditioningError(
            "eigenvector basis condition exceeds %.0e and the Schur "
            "fallback is disabled" % EIG_COND_CAP
        )
    return _schur_parlett(scalar, T, eigs)


def _flatten_factors(u: BoundedAnalyticFunction) -> list:
    if isinstance(u, ProductFunction):
        out = []
        for f in u.factors:
            out.extend(_flatten_factors(f))
        return out
    return [u]


def multiply_functions(
    u: BoundedAnalyticFunction, v: BoundedAnalyticFunction
) -> BoundedAnalyticFunction:
    """Product of two symbols, merged at the function level.

    Polynomial and rational factors merge by coefficient convolution, inner
    factors by adding zero multiplicities and singular weights.  Mixed
    results keep one merged analytic factor and one merged inner factor.
    """
    factors = _flatten_factors(u) + _flatten_factors(v)
    num = np.array([1.0 + 0.0j])
    den = np.array([1.0 + 0.0j])
    saw_rational = False
    saw_poly = False
    inner_part = None
    for f in factors:
        if isinstance(f, Polynomial):
            num = np.convolve(num, np.asarray(f.coefficients))
            saw_poly = True
        elif isinstance(f, RationalFunction):
            num = np.convolve(num, np.asarray(f.numerator))
            den = np.convolve(den, np.asarray(f.denominator))
            saw_rational = True
        elif isinstance(f, InnerFunction):
            inner_part = f if inner_part is None else multiply(inner_part, f)
        else:
            raise TypeError("unsupported factor type %r" % type(f).__name__)
    merged = []
    if saw_rational:
        merged.append(RationalFunction(tuple(num), tuple(den)))
    elif saw_poly:
        merged.append(Polynomial(tuple(num)))
    if inner_part is not None:
        merged.append(inner_part)
    if not merged:
        return inner_one()
    if len(merged) == 1:
        return merged[0]
    return ProductFunction(tuple(merged))


def check_multiplicativity(
    u: BoundedAnalyticFunction,
    v: BoundedAnalyticFunction,
    T,
    config: CalculusConfig = DEFAULT_CONFIG,
) -> float:
    """Residual of the product rule: ||(uv)(T) - u(T) v(T)|| in 2-norm."""
    T = _as_operator(T)
    product = apply(multiply_functions(u, v), T, config)
    split = apply(u, T, config) @ apply(v, T, config)
    return operator_norm(product - split)


@dataclass(frozen=True)
class ContractivityReport:
    """Operator norm against the sampled boundary sup of the symbol."""

    operator_norm: float
    boundary_sup: float
    samples_used: int
    passed: bool


def _boundary_sup(u: BoundedAnalyticFunction, samples: int):
    """Sampled sup of |u| on the circle.

    Inner factors contribute exactly 1: finite Blaschke products have
    unit modulus on the whole circle, and singular factors have unit
    modulus almost everywhere, so they never change the essential sup
    (and must not be evaluated on the boundary at all).
    """
    analytic = [
        f for f in _flatten_factors(u) if not isinstance(f, InnerFunction)
    ]
    if not analytic:
        return 1.0, 0
    nodes = np.exp(2j * np.pi * np.arange(samples) / samples)
    mods = np.ones(samples)
    for f in analytic:
        mods = mods * np.abs(np.asarray(f(nodes), dtype=complex))
    return float(np.max(mods)), samples


def check_contractivity(
    u: BoundedAnalyticFunction, T, config: CalculusConfig = DEFAULT_CONFIG
) -> ContractivityReport:
    """Compare ||u(T)|| with the sampled boundary sup of |u|.

    The report passes when the operator norm does not exceed the sampled
    sup by more than the config's verify tolerance.
    """
    T = _as_operator(T)
    norm = operator_norm(apply(u, T, config))
    sup, samples = _boundary_sup(u, config.boundary_samples)
    return ContractivityReport(
        operator_norm=norm,
        boundary_sup=sup,
        samples_used=samples,
        passed=norm <= sup + config.verify_tolerance,
    )
