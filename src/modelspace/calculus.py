"""Functional calculus for contractions with spectrum inside the disk.

The production path (:func:`apply`) is structural: polynomials go through
Horner's scheme, rational functions through a single linear solve, Blaschke
factors through resolvents, singular factors through a Pade scaling and
squaring exponential of a Cayley transform, and products through matrix
multiplication; all of it runs on numpy alone.  An independent route
(:func:`apply_spectral`) sums one Taylor series of the symbol at the origin,
with coefficients read from circle samples, and exists to cross-check the
structural path, never to replace it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningError,
    NearBoundarySpectrumError,
)
from .hardy import circle_nodes
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
# Linear-solve condition cap for the rational path.
SOLVE_COND_CAP = 1e14
# Safety factor between a Neumann-series condition bound and the cap.
_NEUMANN_MARGIN = 2.0
# Taylor terms beyond which the series cross-check refuses.
MAX_SERIES_TERMS = 2**16
# Circle samples behind the boundary sup of the contractivity check.
BOUNDARY_SAMPLES = 2048
# Coefficients b_0..b_13 of the degree-13 Pade approximant to exp, and the
# largest 1-norm at which it is accurate to double precision (Higham,
# SIAM J. Matrix Anal. Appl. 26, 2005, tables 2.3 and 10.1).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 5.371920351148152


def _check_tolerance(tolerance: float) -> None:
    """Raise ValueError unless tolerance is a positive finite number."""
    if not 0.0 < tolerance < float("inf"):
        raise ValueError("tolerance must be positive and finite, got %r" % tolerance)


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
    return _check_radius(np.linalg.eigvals(T))


def _check_radius(eigs: np.ndarray) -> np.ndarray:
    """Return eigs unless the spectral radius is within the margin of the circle."""
    radius = float(np.max(np.abs(eigs)))
    if radius > 1.0 - SPECTRAL_MARGIN:
        raise NearBoundarySpectrumError(
            "spectral radius %.17g is within %.0e of the unit circle"
            % (radius, SPECTRAL_MARGIN)
        )
    return eigs


def operator_norm(A: np.ndarray) -> float:
    """Spectral norm: the largest singular value of a nonempty matrix.

    The same LAPACK call that numpy's matrix norm of order 2 makes, and so
    the same bits, without numpy's axis handling around it.
    """
    return float(np.linalg.svd(A, compute_uv=False)[0])


def _horner(coefficients, T: np.ndarray) -> np.ndarray:
    eye = np.eye(T.shape[0], dtype=complex)
    out = coefficients[-1] * eye
    for c in coefficients[-2::-1]:
        out = out @ T + c * eye
    return out


def _solve_commuting(
    A: np.ndarray, B: np.ndarray, well_conditioned: bool = False
) -> np.ndarray:
    """A^{-1} B for matrices that commute (both rational in the same T).

    The condition number of A is tested against SOLVE_COND_CAP unless the
    caller has already proved it below the cap (``well_conditioned``).
    """
    if not well_conditioned and np.linalg.cond(A) > SOLVE_COND_CAP:
        raise ConditioningError("linear solve too ill conditioned")
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError as e:
        raise ConditioningError("singular linear solve: %s" % e)


def _neumann_bounded(x: float) -> bool:
    """Whether x = |alpha| ||T||_2 proves cond_2(I - conj(alpha) T) <= SOLVE_COND_CAP.

    For x < 1 the Neumann series gives cond_2 <= (1 + x) / (1 - x).  The
    factor _NEUMANN_MARGIN absorbs the rounding in x and keeps the proved
    bound far enough below the cap that the SVD-based condition number
    would not have refused either.
    """
    return x < 1.0 and _NEUMANN_MARGIN * (1.0 + x) / (1.0 - x) <= SOLVE_COND_CAP


def _expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring (Higham, 2005).

    A is scaled by 2^-s, with s the least nonnegative integer that brings
    its 1-norm to theta_13 or below, the approximant r_13 = q^-1 p is
    formed with one solve, and the result is squared s times.  No entry
    is recomputed from a closed form, so nearly equal diagonal entries of
    a triangular A cost no accuracy.
    """
    norm = float(np.linalg.norm(A, 1))
    s = 0 if norm <= _PADE13_THETA else math.ceil(math.log2(norm / _PADE13_THETA))
    A = A / 2.0**s
    b = _PADE13
    eye = np.eye(A.shape[0], dtype=complex)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    )
    out = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        out = out @ out
    return out


def _blaschke_factors(zeros: list, T: np.ndarray, norm: float) -> np.ndarray:
    """Stacked b_alpha(T) for nonzero zeros alpha, from one solve; norm is ||T||_2.

    A factor whose condition number the Neumann bound leaves open is
    tested with np.linalg.cond, and one above SOLVE_COND_CAP raises
    ConditioningError.
    """
    eye = np.eye(T.shape[0], dtype=complex)
    # Built one factor at a time, with the unit from Python's complex
    # division: numpy's division, and its broadcast multiplication on
    # 1x1 matrices, round differently.
    A = np.array([eye - alpha.conjugate() * T for alpha in zeros])
    B = np.array([abs(alpha) / alpha * (alpha * eye - T) for alpha in zeros])
    unproved = [
        k for k, alpha in enumerate(zeros)
        if not _neumann_bounded(abs(alpha) * norm)
    ]
    if unproved and np.any(np.linalg.cond(A[unproved]) > SOLVE_COND_CAP):
        raise ConditioningError("linear solve too ill conditioned")
    return _solve_commuting(A, B, well_conditioned=True)


def _apply_inner(theta: InnerFunction, T: np.ndarray, norm: float | None) -> np.ndarray:
    """theta(T), with all Blaschke factors at nonzero zeros from one stacked solve.

    norm is ||T||_2 when the caller holds it; it is computed here otherwise,
    and only when some zero is nonzero.
    """
    eye = np.eye(T.shape[0], dtype=complex)
    zeros = [alpha for alpha, _ in theta.blaschke.atoms if alpha != 0]
    factors = iter(())
    if zeros:
        if norm is None:
            norm = operator_norm(T)
        factors = iter(_blaschke_factors(zeros, T, norm))
    out = theta.gamma * eye
    for alpha, mult in theta.blaschke.atoms:
        factor = T if alpha == 0 else next(factors)
        out = out @ np.linalg.matrix_power(factor, mult)
    for angle, weight in theta.singular.atoms:
        xi = np.exp(1j * angle)
        cayley = _solve_commuting(xi * eye - T, xi * eye + T)
        out = out @ _expm(-weight * cayley)
    return out


def _apply_checked(
    u: BoundedAnalyticFunction, T: np.ndarray, norm: float | None = None
) -> np.ndarray:
    """u(T) for a T whose spectrum the caller has checked; norm is ||T||_2 if known."""
    if isinstance(u, Polynomial):
        return _horner(u.coefficients, T)
    if isinstance(u, RationalFunction):
        p = _horner(u.numerator, T)
        q = _horner(u.denominator, T)
        return _solve_commuting(q, p)
    if isinstance(u, InnerFunction):
        return _apply_inner(u, T, norm)
    if isinstance(u, ProductFunction):
        out = np.eye(T.shape[0], dtype=complex)
        for f in u.factors:
            out = out @ _apply_checked(f, T, norm)
        return out
    raise TypeError("unsupported function type %r" % type(u).__name__)


def apply(u: BoundedAnalyticFunction, T) -> np.ndarray:
    """Evaluate u at the matrix T along the structural route.

    The constant 1 maps to the identity and the coordinate function to T
    itself, exactly.  The spectrum of T must stay 1e-6 away from the unit
    circle; otherwise NearBoundarySpectrumError is raised.
    """
    T = _as_operator(T)
    _check_spectrum(T)
    return _apply_checked(u, T)


def apply_spectral(u: BoundedAnalyticFunction, T) -> np.ndarray:
    """Evaluate u at T from one Taylor series at the origin; the cross-check.

    With rho the spectral radius of T, the Taylor coefficients of u are
    read by one FFT of u on the circle of radius r = (3 + rho) / 4 and the
    series is summed by Horner's scheme in T / r, to K = ceil(log 2^-53 /
    log r) + n terms.  Beyond K terms the coefficients of a symbol bounded
    on the disk have decayed below double precision, and the node count
    (the power of two at least 2K) keeps aliasing below that too.  Placing
    r three quarters of the way out to the circle, rather than halfway,
    keeps the transient growth of (T / r)^k small for non-normal T, which
    amplifies rounding in the coefficients.  That growth still bounds the
    accuracy far from normality: against Horner's scheme, a polynomial
    on the Jordan cell J(0.95, 8) agrees to about 3e-8, and on J(0.95, 12)
    only to about 1e-2.

    Nothing is diagonalized or clustered, so defective and clustered
    spectra need no special treatment (Higham, *Functions of Matrices*,
    2008, section 4.3).  The term count grows like 1 / (1 - rho): above
    2^16 terms, that is for rho above about 0.9977, a ConditioningError is
    raised.
    """
    T = _as_operator(T)
    n = T.shape[0]
    rho = float(np.max(np.abs(_check_spectrum(T))))
    r = 0.25 * (3.0 + rho)
    terms = math.ceil(math.log(2.0**-53) / math.log(r)) + n
    if terms > MAX_SERIES_TERMS:
        raise ConditioningError(
            "spectral radius %.17g needs %d Taylor terms, more than %d"
            % (rho, terms, MAX_SERIES_TERMS)
        )
    nodes = r * circle_nodes(1 << (2 * terms - 1).bit_length())
    values = np.broadcast_to(np.asarray(u(nodes), dtype=complex), nodes.shape)
    coefficients = np.fft.fft(values) / nodes.size
    return _horner(coefficients[:terms], T / r)


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
    u: BoundedAnalyticFunction, v: BoundedAnalyticFunction, T
) -> float:
    """Residual of the product rule: ||(uv)(T) - u(T) v(T)|| in 2-norm."""
    T = _as_operator(T)
    product = apply(multiply_functions(u, v), T)
    split = apply(u, T) @ apply(v, T)
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
    u: BoundedAnalyticFunction, T, tolerance: float = 1e-8
) -> ContractivityReport:
    """Compare ||u(T)|| with the sampled boundary sup of |u|.

    The report passes when the operator norm does not exceed the sup,
    sampled at 2048 roots of unity, by more than ``tolerance``, which must
    be positive and finite.
    """
    _check_tolerance(tolerance)
    T = _as_operator(T)
    norm = operator_norm(apply(u, T))
    sup, samples = _boundary_sup(u, BOUNDARY_SAMPLES)
    return ContractivityReport(
        operator_norm=norm,
        boundary_sup=sup,
        samples_used=samples,
        passed=norm <= sup + tolerance,
    )
