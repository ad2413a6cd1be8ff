"""Finite model spaces and compressed shift matrices.

For a finite Blaschke product b, the model space H^2 minus b H^2 is spanned
by an orthonormal chain of rational functions built from the zeros of b
(the classical Takenaka-Malmquist-Walsh system).  The compression of
multiplication by z to that space has a closed form in that basis (Garcia,
Mashreghi and Ross, Introduction to Model Spaces and their Operators, 2016):
the zeros on the diagonal and products of the zero moduli below it.  One
independent reference rebuilds the operator up to unitary equivalence: a
truncated power-series shift, compressed to the complement of the shifted
symbol columns.  It finds that complement from the Taylor coefficients of
the chain functions, which span the model space, so it needs none of the
closed-form entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .calculus import operator_norm
from .errors import (
    AccuracyError,
    ConditioningError,
    DegenerateModelError,
    UnsupportedModelError,
)
from .inner import InnerFunction

# Desk-scale caps: larger model spaces or zeros closer to the circle make
# the chain basis too ill conditioned for the advertised tolerances.
MAX_MODEL_DEGREE = 16
MAX_ZERO_MODULUS = 0.95

_ORACLE_GAP_TOL = np.sin(1e-8)
_ORACLE_MAX_DIM = 8192


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
class ModelOperator:
    """Compression of multiplication by z to a finite model space.

    The matrix is lower triangular in the chain basis: the adjoint shift
    leaves each partial model space invariant, so strictly upper entries
    vanish identically and are stored as exact zeros.  The diagonal reads
    off the zeros of the symbol in basis order, which is
    ``symbol.blaschke.zeros_with_multiplicity()``.  ``samples_used`` is
    always 0, as the closed form samples nothing; it is kept only because
    the benchmark's span wrappers (``bench/spans.py``) read it.
    """

    symbol: InnerFunction
    matrix: np.ndarray
    samples_used = 0

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalue multiset; the diagonal, since the matrix is triangular."""
        return np.diag(self.matrix).copy()


@lru_cache(maxsize=32)
def _lower_masks(n: int) -> tuple:
    """``np.tri(n, k=-2)`` and ``np.tri(n, k=-1)`` as booleans, cached per n
    and read-only."""
    masks = np.tri(n, k=-2, dtype=bool), np.tri(n, k=-1, dtype=bool)
    for mask in masks:
        mask.flags.writeable = False
    return masks


def compressed_shift_matrix(zeros) -> np.ndarray:
    """Closed-form compressed shift in the chain basis of ``zeros``.

    With s_k = sqrt(1 - |a_k|^2) and phase_k = -a_k/|a_k| (1 when a_k = 0),
    the entries are M[k, k] = a_k and, below the diagonal,
    M[j, k] = phase_k s_j s_k prod_{k<l<j} |a_l|; strictly upper entries
    are exact zeros.  The phases follow the |a|/a normalization of the
    Blaschke factors, under which each factor is positive at the origin.
    No caps are applied: entries are bounded by 1 for any zeros in the
    open disk.  The two strictly lower masks come from a cache per n, and
    |a_{j-1}| is broadcast down row j, so a call forms no index array.
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
    below_subdiagonal, below_diagonal = _lower_masks(n)
    previous = np.concatenate((r[-1:], r[:-1]))[:, None]
    moduli = np.cumprod(np.where(below_subdiagonal, previous, 1.0), axis=0)
    matrix = np.where(below_diagonal, s[:, None] * (phase * s)[None, :] * moduli, 0.0)
    np.fill_diagonal(matrix, a)
    return matrix


def build_model_operator(b: InnerFunction) -> ModelOperator:
    """Build the compressed shift of a finite Blaschke product.

    The matrix is the closed form of :func:`compressed_shift_matrix` on
    the zeros in ``zeros_with_multiplicity`` order.
    :func:`oracle_compressed_shift` rebuilds it, up to unitary
    equivalence, as an independent reference.

    Raises
    ------
    DegenerateModelError
        If the symbol is constant (zero-dimensional model space).
    UnsupportedModelError
        If the symbol has a singular part.
    ConditioningError
        If degree or zero moduli exceed the desk-scale caps.
    """
    return ModelOperator(symbol=b, matrix=compressed_shift_matrix(_model_zeros(b)))


def _divide_by_factor(x: np.ndarray, conj_alpha: complex) -> np.ndarray:
    """Series x / (1 - conj_alpha z), truncated to the length of x.

    The recurrence y_n = x_n + conj_alpha y_{n-1} as a doubling scan:
    after the step of shift s, y_n sums conj_alpha^j x_{n-j} over j < 2s.
    """
    y = x.copy()
    power, shift = conj_alpha, 1
    while shift < y.size:
        y[shift:] += power * y[:-shift]
        power *= power
        shift *= 2
    return y


def _truncated_compression(zeros, dim: int):
    """Compression of the coefficient shift to the truncated model space.

    Works entirely in Taylor-coefficient space truncated at ``dim`` terms:
    the columns b, z b, ..., z^{dim-deg-1} b span the truncation of b H^2,
    and the orthogonal complement is the truncated model space.  Returns
    the compressed shift matrix and the complement's coefficient frame.

    That Toeplitz matrix B is never formed.  Write b = N/D with
    N = prod gamma_k (a_k - z) and D = prod (1 - conj(a_k) z).  Sections of
    lower-triangular Toeplitz matrices multiply exactly, so T_D B = T_N,
    and the complement of B's range is T_D^* times the complement of T_N's.
    The columns z^j N of T_N fit in dim terms, so that complement is the
    truncation of the model space: the span of the chain basis
    coefficients, here without their positive scales.  They are built one
    factor at a time by exact series arithmetic; the banded T_D^* is
    applied, and a thin QR of the dim x deg result gives the frame.
    """
    deg = len(zeros)
    kernels = np.empty((dim, deg), dtype=complex)
    chain = np.zeros(dim, dtype=complex)
    chain[0] = 1.0
    den = np.ones(1, dtype=complex)
    for k, alpha in enumerate(zeros):
        alpha = complex(alpha)
        # kernel = chain / (1 - conj(a) z); the chain then gains the factor
        # gamma (a - z) / (1 - conj(a) z), with gamma = |a|/a (-1 at a = 0)
        kernel = _divide_by_factor(chain, alpha.conjugate())
        kernels[:, k] = kernel
        chain = alpha * kernel
        chain[1:] -= kernel[:-1]
        chain *= abs(alpha) / alpha if alpha else -1.0
        den = np.convolve(den, [1.0, -alpha.conjugate()])
    # (T_D^* x)_n = sum_j conj(d_j) x_{n+j}
    dual = np.zeros((dim, deg), dtype=complex)
    for j, coeff in enumerate(den.conj()):
        dual[: dim - j] += coeff * kernels[j:]
    frame, _ = np.linalg.qr(dual)
    # the shift moves coefficients down one place, so F* S F = F[1:]* F[:-1]
    return frame[1:].conj().T @ frame[:-1], frame


def oracle_compressed_shift(b: InnerFunction, trunc_degree: int):
    """Independent truncated-shift reconstruction of the compressed shift.

    Starting from ``trunc_degree`` coefficients, the truncation dimension
    doubles until the truncated model spaces of two successive levels agree
    to within 1e-8 in largest principal angle, tested as the projector gap
    ||F_2 - P_1 F_2||_2 <= sin(1e-8) of the two frames.  Returns the
    compressed matrix (in its own orthonormal coordinates) and the
    truncation used.

    Each level's frame is the orthogonal complement of the shifted symbol
    columns b, z b, ... in the truncated coefficient space.  It is taken
    from the truncated Taylor coefficients of the chain functions, built by
    series arithmetic one zero at a time, through the exact identity
    T_D B = T_N of :func:`_truncated_compression`: O(dim deg) work and a
    thin QR per level, on numpy alone.  No entry of the closed form is
    used.  The result is unitarily equivalent to the chain-basis model
    matrix, so singular values and eigenvalues are directly comparable.

    Raises
    ------
    AccuracyError
        If the projector gap between successive truncations is still
        above sin(1e-8) once the truncation cap is reached.
    """
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
    # trunc_degree <= _ORACLE_MAX_DIM // 2, so the loop runs at least once
    while dim * 2 <= _ORACLE_MAX_DIM:
        dim *= 2
        matrix2, frame2 = _truncated_compression(zeros, dim)
        padded = np.zeros((dim, deg), dtype=complex)
        padded[: frame.shape[0]] = frame
        # sine of the largest principal angle between the two frames
        gap = operator_norm(frame2 - padded @ (padded.conj().T @ frame2))
        matrix, frame = matrix2, frame2
        if gap <= _ORACLE_GAP_TOL:
            return matrix, dim
    raise AccuracyError(
        "truncated model spaces still differ by projector gap %.3e at "
        "dimension %d" % (gap, dim),
        estimate=gap,
    )
