"""Hardy-space numerics on the unit circle.

All integrals are equispaced averages over roots of unity, which are exact
for trigonometric polynomials of degree below the node count and converge
geometrically for functions analytic past the circle.  Node counts double
adaptively until a spectral tail estimate certifies the requested accuracy.

Inside the package only :func:`circle_nodes` is used, by
:func:`modelspace.calculus.apply_spectral`.  The sampling plan
(:class:`CircleSampler`) and the adaptive quadratures
(:func:`fourier_coefficients`, :func:`h2_inner_product`) serve only the
benchmark in ``bench/``, which traces them and reads the plan's node
counts; no model build samples the circle.
"""

from __future__ import annotations

import numpy as np

from .errors import AccuracyError
from .inner import _Frozen

_MIN_SAMPLES = 256


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class CircleSampler(_Frozen):
    """Adaptive equispaced sampling plan for the unit circle.

    Parameters
    ----------
    sample_count : int
        Initial number of nodes; a power of two, at least 256.
    max_doublings : int
        How many times the node count may double before giving up.
    tail_tolerance : float
        Relative size of the spectral tail (or of successive-refinement
        differences) accepted as converged.
    """

    __slots__ = ("sample_count", "max_doublings", "tail_tolerance")

    def __init__(
        self, sample_count: int = 1024, max_doublings: int = 6, tail_tolerance: float = 1e-13
    ):
        if not _is_power_of_two(sample_count) or sample_count < _MIN_SAMPLES:
            raise ValueError(
                "sample_count must be a power of two >= %d, got %r"
                % (_MIN_SAMPLES, sample_count)
            )
        if max_doublings < 0:
            raise ValueError("max_doublings must be nonnegative")
        if not (tail_tolerance > 0.0):
            raise ValueError("tail_tolerance must be positive")
        self._set(sample_count, max_doublings, tail_tolerance)

    def node_counts(self):
        n = self.sample_count
        for _ in range(self.max_doublings + 1):
            yield n
            n *= 2


def circle_nodes(count: int) -> np.ndarray:
    """The ``count`` roots of unity, starting at 1, counterclockwise."""
    return np.exp(2j * np.pi * np.arange(count) / count)


def fourier_coefficients(f, sampler: CircleSampler, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients of f read from boundary samples.

    The k-th coefficient is the average of f(z) z^{-k} over the nodes.
    Aliasing is controlled by doubling the node count until the upper half
    of the discrete spectrum carries relative mass below the sampler's
    tail tolerance and the nodes outnumber 2*count.

    Raises
    ------
    AccuracyError
        If the tail never falls below tolerance within the doubling budget.
    """
    if count < 1:
        raise ValueError("count must be positive")
    tail_rel = None
    for n in sampler.node_counts():
        z = circle_nodes(n)
        vals = np.asarray(f(z), dtype=complex)
        if vals.shape != z.shape:
            vals = np.broadcast_to(vals, z.shape).astype(complex)
        coeffs = np.fft.fft(vals) / n
        scale = max(1.0, float(np.sqrt(np.mean(np.abs(vals) ** 2))))
        tail = float(np.sum(np.abs(coeffs[n // 2:])))
        tail_rel = tail / scale
        if tail_rel <= sampler.tail_tolerance and n >= 2 * count:
            return coeffs[:count].copy()
    raise AccuracyError(
        "spectral tail %.3e still above tolerance %.3e after %d doublings"
        % (tail_rel, sampler.tail_tolerance, sampler.max_doublings),
        estimate=tail_rel,
    )


def h2_inner_product(f, g, sampler: CircleSampler) -> complex:
    """Hardy-space inner product <f, g>, conjugate-linear in g.

    Computed as the average of f(z) conj(g(z)) over roots of unity, with
    the node count doubled until two successive refinements agree within
    the sampler's tail tolerance (relative to the sampled norms).

    Raises
    ------
    AccuracyError
        If successive refinements never agree within the doubling budget.
    """
    prev = None
    diff = None
    for n in sampler.node_counts():
        z = circle_nodes(n)
        fv = np.broadcast_to(np.asarray(f(z), dtype=complex), z.shape)
        gv = np.broadcast_to(np.asarray(g(z), dtype=complex), z.shape)
        value = complex(np.mean(fv * np.conj(gv)))
        if prev is not None:
            scale = max(
                1.0,
                float(
                    np.sqrt(np.mean(np.abs(fv) ** 2) * np.mean(np.abs(gv) ** 2))
                ),
            )
            diff = abs(value - prev) / scale
            if diff <= sampler.tail_tolerance:
                return value
        prev = value
    if diff is None:
        raise AccuracyError(
            "one quadrature level leaves nothing to compare; the sampler "
            "needs max_doublings >= 1"
        )
    raise AccuracyError(
        "successive quadratures differ by %.3e, above tolerance %.3e"
        % (diff, sampler.tail_tolerance),
        estimate=diff,
    )
