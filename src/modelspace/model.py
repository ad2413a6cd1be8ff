"""Finite model spaces and compressed shift matrices.

For a finite Blaschke product b, the model space H^2 minus b H^2 is spanned
by an orthonormal chain of rational functions built from the zeros of b
(the classical Takenaka-Malmquist-Walsh system).  The compression of
multiplication by z to that space has a closed form in that basis (Garcia,
Mashreghi and Ross, Introduction to Model Spaces and their Operators, 2016):
the zeros on the diagonal and products of the zero moduli below it.  Two
independent references rebuild the operator: circle quadrature of the
chain basis, entry by entry, and a truncated power-series shift, up to
unitary equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AccuracyError,
    ConditioningError,
    DegenerateModelError,
    UnsupportedModelError,
)
from .hardy import CircleSampler, circle_nodes
from .inner import InnerFunction, eval_blaschke_factor

# Desk-scale caps: larger model spaces or zeros closer to the circle make
# the chain basis too ill conditioned for the advertised tolerances.
MAX_MODEL_DEGREE = 16
MAX_ZERO_MODULUS = 0.95

_GRAM_TOL = 1e-10
_ORACLE_ANGLE_TOL = 1e-8
_ORACLE_MAX_DIM = 2048


def _model_zeros(b: InnerFunction) -> list:
    if not isinstance(b, InnerFunction):
        raise UnsupportedModelError("model symbol must be an inner function")
    if b.singular.atoms:
        raise UnsupportedModelError(
            "model construction needs a finite Blaschke product; "
            "singular inner factors give infinite-dimensional model spaces"
        )
    zeros = b.blaschke.zeros_with_multiplicity()
    if not zeros:
        raise DegenerateModelError("constant symbol: the model space is {0}")
    if len(zeros) > MAX_MODEL_DEGREE:
        raise ConditioningError(
            "degree %d exceeds the supported cap %d" % (len(zeros), MAX_MODEL_DEGREE)
        )
    worst = max(abs(a) for a in zeros)
    if worst > MAX_ZERO_MODULUS:
        raise ConditioningError(
            "zero of modulus %.17g exceeds the cap %.2f; the basis would be "
            "too ill conditioned" % (worst, MAX_ZERO_MODULUS)
        )
    return zeros


@dataclass(frozen=True)
class ModelSpaceBasis:
    """Orthonormal chain basis of the model space of a finite Blaschke product.

    The k-th element is the normalized reproducing-kernel-type function at
    the k-th zero multiplied by the Blaschke factors of all earlier zeros,
    so the span of the first j elements is the model space of the first j
    factors.
    """

    zeros: tuple

    def __post_init__(self):
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))

    @property
    def dimension(self) -> int:
        return len(self.zeros)

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """Basis values as an array of shape (dimension, len(z))."""
        z = np.asarray(z, dtype=complex)
        out = np.empty((len(self.zeros), z.size), dtype=complex)
        chain = np.ones(z.size, dtype=complex)
        for k, alpha in enumerate(self.zeros):
            scale = np.sqrt(1.0 - abs(alpha) ** 2)
            out[k] = scale / (1.0 - np.conj(alpha) * z) * chain
            chain = chain * eval_blaschke_factor(alpha, z)
        return out


@dataclass(frozen=True)
class ModelOperator:
    """Compression of multiplication by z to a finite model space.

    The matrix is lower triangular in the chain basis: the adjoint shift
    leaves each partial model space invariant, so strictly upper entries
    vanish identically and are stored as exact zeros.  The diagonal reads
    off the zeros of the symbol in basis order.  ``samples_used`` is the
    quadrature node count of a :func:`quadrature_model_operator` build and
    0 for the closed form.
    """

    symbol: InnerFunction
    matrix: np.ndarray
    basis: ModelSpaceBasis
    samples_used: int = 0

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalue multiset; the diagonal, since the matrix is triangular."""
        return np.diag(self.matrix).copy()


def compressed_shift_matrix(zeros) -> np.ndarray:
    """Closed-form compressed shift in the chain basis of ``zeros``.

    With s_k = sqrt(1 - |a_k|^2) and phase_k = -a_k/|a_k| (1 when a_k = 0),
    the entries are M[k, k] = a_k and, below the diagonal,
    M[j, k] = phase_k s_j s_k prod_{k<l<j} |a_l|; strictly upper entries
    are exact zeros.  The phases follow the |a|/a normalization of the
    Blaschke factors, under which each factor is positive at the origin.
    No caps are applied: entries are bounded by 1 for any zeros in the
    open disk.
    """
    a = np.asarray(zeros, dtype=complex).reshape(-1)
    n = a.size
    r = np.abs(a)
    s = np.sqrt(1.0 - r**2)
    # unit phases in real arithmetic on components rescaled by a power of
    # two: exact rescaling for normal zeros, and zeros of subnormal modulus
    # neither overflow nor lose digits
    _, exponent = np.frexp(np.maximum(np.abs(a.real), np.abs(a.imag)))
    re, im = np.ldexp(a.real, -exponent), np.ldexp(a.imag, -exponent)
    mod = np.hypot(re, im)
    nonzero = mod > 0
    phase = np.ones(n, dtype=complex)
    phase.real[nonzero] = -re[nonzero] / mod[nonzero]
    phase.imag[nonzero] = -im[nonzero] / mod[nonzero]
    # column k of the cumulative product holds prod_{k<l<j} |a_l| in row j
    rows, cols = np.indices((n, n))
    moduli = np.cumprod(np.where(rows >= cols + 2, r[rows - 1], 1.0), axis=0)
    matrix = np.tril(s[:, None] * (phase * s)[None, :] * moduli, -1)
    matrix[np.diag_indices(n)] = a
    return matrix


def build_model_operator(b: InnerFunction) -> ModelOperator:
    """Build the compressed shift of a finite Blaschke product.

    The matrix is the closed form of :func:`compressed_shift_matrix` on
    the zeros in ``zeros_with_multiplicity`` order; nothing is sampled,
    so ``samples_used`` is 0.  :func:`quadrature_model_operator` rebuilds
    the same matrix by circle quadrature as an independent reference.

    Raises
    ------
    DegenerateModelError
        If the symbol is constant (zero-dimensional model space).
    UnsupportedModelError
        If the symbol has a singular part.
    ConditioningError
        If degree or zero moduli exceed the desk-scale caps.
    """
    zeros = _model_zeros(b)
    return ModelOperator(
        symbol=b,
        matrix=compressed_shift_matrix(zeros),
        basis=ModelSpaceBasis(tuple(zeros)),
    )


def quadrature_model_operator(
    b: InnerFunction, sampler: CircleSampler | None = None
) -> ModelOperator:
    """Reference build of the compressed shift by circle quadrature.

    Entries are circle-quadrature inner products of the chain basis; the
    node count doubles until two refinements agree within the sampler's
    tail tolerance, and ``samples_used`` records the node count accepted.
    The orthonormality defect of the quadrature Gram matrix is checked
    against 1e-10.  Shares no code with the closed form, so the two routes
    check each other entry by entry.

    Raises
    ------
    DegenerateModelError, UnsupportedModelError
        As for :func:`build_model_operator`.
    ConditioningError
        If degree or zero moduli exceed the desk-scale caps, or the basis
        fails its orthonormality check.
    AccuracyError
        If quadrature refinements never agree within tolerance.
    """
    if sampler is None:
        sampler = CircleSampler()
    zeros = _model_zeros(b)
    basis = ModelSpaceBasis(tuple(zeros))
    n = basis.dimension
    prev = None
    diff = None
    for count in sampler.node_counts():
        z = circle_nodes(count)
        E = basis.evaluate(z)
        # M[j, k] = <z e_k, e_j>
        M = ((E * z) @ E.conj().T / count).T
        if prev is not None:
            diff = float(np.max(np.abs(M - prev)))
            if diff <= sampler.tail_tolerance:
                gram = E @ E.conj().T / count
                gram_err = float(np.max(np.abs(gram - np.eye(n))))
                if gram_err > _GRAM_TOL:
                    raise ConditioningError(
                        "basis orthonormality defect %.3e exceeds %.1e"
                        % (gram_err, _GRAM_TOL)
                    )
                return ModelOperator(
                    symbol=b, matrix=np.tril(M), basis=basis, samples_used=count
                )
        prev = M
    raise AccuracyError(
        "model quadrature refinements differ by %.3e, above tolerance %.3e"
        % (diff, sampler.tail_tolerance),
        estimate=diff,
    )


def _taylor_of_blaschke(zeros, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients of the Blaschke product at 0.

    Pure coefficient arithmetic: numerator and denominator polynomials are
    convolved factor by factor, then divided as power series.  No
    quadrature is involved, which keeps the oracle independent of the
    circle-sampling code path.
    """
    num = np.array([1.0 + 0.0j])
    den = np.array([1.0 + 0.0j])
    for alpha in zeros:
        if alpha == 0:
            fn = np.array([0.0, 1.0], dtype=complex)  # z
            fd = np.array([1.0], dtype=complex)
        else:
            unit = abs(alpha) / alpha
            fn = np.array([unit * alpha, -unit], dtype=complex)  # gamma (a - z)
            fd = np.array([1.0, -np.conj(alpha)], dtype=complex)  # 1 - conj(a) z
        num = np.convolve(num, fn)
        den = np.convolve(den, fd)
    coeffs = np.zeros(count, dtype=complex)
    for k in range(count):
        acc = num[k] if k < len(num) else 0.0 + 0.0j
        lead = min(k, len(den) - 1)
        if lead:
            acc = acc - np.dot(den[1 : lead + 1], coeffs[k - lead : k][::-1])
        coeffs[k] = acc / den[0]
    return coeffs


def _truncated_compression(zeros, dim: int):
    """Compression of the coefficient shift to the truncated model space.

    Works entirely in Taylor-coefficient space truncated at ``dim`` terms:
    the columns b, z b, ..., z^{dim-deg-1} b span the truncation of b H^2,
    and the orthogonal complement is the truncated model space.  Returns
    the compressed shift matrix and the complement's coefficient frame.

    The frame is the last deg columns of the complete Q of a Householder
    QR of those columns, formed by applying the reflectors to the last deg
    unit vectors (LAPACK unmqr) rather than by building all of Q.
    """
    import scipy.linalg

    deg = len(zeros)
    coeffs = _taylor_of_blaschke(zeros, dim)
    m = dim - deg
    # column j holds z^j b: the coefficients moved down j places
    lag = np.arange(dim)[:, None] - np.arange(m)[None, :]
    B = np.where(lag >= 0, coeffs[np.maximum(lag, 0)], 0.0)
    (reflectors, tau), _ = scipy.linalg.qr(B, overwrite_a=True, mode="raw")
    unmqr = scipy.linalg.get_lapack_funcs("unmqr", (reflectors,))
    tail = np.zeros((dim, deg), dtype=complex, order="F")
    tail[np.arange(m, dim), np.arange(deg)] = 1.0
    _, work, info = unmqr("L", "N", reflectors, tau, tail, -1)
    if info == 0:
        frame, _, info = unmqr(
            "L", "N", reflectors, tau, tail, int(work[0].real), overwrite_c=1
        )
    if info != 0:
        raise ValueError("illegal value in argument %d of LAPACK unmqr" % -info)
    # the shift moves coefficients down one place, so F* S F = F[1:]* F[:-1]
    return frame[1:].conj().T @ frame[:-1], frame


def oracle_compressed_shift(b: InnerFunction, trunc_degree: int):
    """Independent truncated-shift reconstruction of the compressed shift.

    Starting from ``trunc_degree`` coefficients, the truncation dimension
    doubles until the truncated model spaces of two successive levels agree
    to within 1e-8 in largest principal angle.  Returns the compressed
    matrix (in its own orthonormal coordinates) and the truncation used.

    The result is unitarily equivalent to the chain-basis model matrix,
    so singular values and eigenvalues are directly comparable.

    Raises
    ------
    AccuracyError
        If the subspace angle between successive truncations is still
        above 1e-8 once the truncation cap is reached.
    """
    import scipy.linalg

    zeros = _model_zeros(b)
    deg = len(zeros)
    if trunc_degree < 8 * deg:
        raise ValueError(
            "truncation %d too small: need at least 8x the degree (%d)"
            % (trunc_degree, 8 * deg)
        )
    if trunc_degree > _ORACLE_MAX_DIM // 2:
        raise ValueError(
            "truncation %d exceeds the refinement cap %d"
            % (trunc_degree, _ORACLE_MAX_DIM // 2)
        )
    dim = int(trunc_degree)
    matrix, frame = _truncated_compression(zeros, dim)
    angle = None
    while dim * 2 <= _ORACLE_MAX_DIM:
        dim *= 2
        matrix2, frame2 = _truncated_compression(zeros, dim)
        padded = np.zeros((dim, deg), dtype=complex)
        padded[: frame.shape[0]] = frame
        angle = float(np.max(scipy.linalg.subspace_angles(padded, frame2)))
        matrix, frame = matrix2, frame2
        if angle <= _ORACLE_ANGLE_TOL:
            return matrix, dim
    raise AccuracyError(
        "truncated model spaces still differ by angle %.3e at dimension %d"
        % (angle if angle is not None else float("nan"), dim),
        estimate=angle,
    )
