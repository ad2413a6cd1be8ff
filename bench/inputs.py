"""Seeded inputs for the benchmark workloads.

The benchmark draws its own inputs instead of reusing the generators of
``modelspace.verify``, so edits to the verification suites do not shift
these workloads.  Shares (degrees, repeated zeros, eigenvector draws) are
assigned by cycling, not drawn, so the mix is identical for every seed and
only positions and vectors depend on it.
"""

from __future__ import annotations

import numpy as np

from modelspace import blaschke_product, build_model_operator

ZERO_CAP = 0.95  # the model construction's modulus cap
MIN_SEPARATION = 5e-3  # distinct zeros stay this far apart
MODEL_DEGREES = (2, 8, 16)
EXTRACT_DEGREES = tuple(range(2, 13))  # up to MAX_MINIMAL_DIM
JORDAN_SIZES = tuple(range(2, 9))


def stream(seed: int, label: int) -> np.random.Generator:
    """Independent generator per workload, so workloads never share draws."""
    return np.random.default_rng((seed, label))


def disk_point(rng: np.random.Generator, radius: float = ZERO_CAP) -> complex:
    r = radius * np.sqrt(rng.uniform())
    t = rng.uniform(0.0, 2.0 * np.pi)
    return complex(r * np.cos(t), r * np.sin(t))


def zeros(rng: np.random.Generator, degree: int, repeated: bool) -> list:
    """``degree`` zeros, distinct ones separated; optionally one repeated."""
    distinct = degree - 1 if repeated else degree
    out: list[complex] = []
    while len(out) < distinct:
        candidate = disk_point(rng)
        if all(abs(candidate - z) > MIN_SEPARATION for z in out):
            out.append(candidate)
    if repeated:
        out.append(out[int(rng.integers(len(out)))])
    return out


def model_symbols(seed: int, count: int = 120) -> list:
    """Blaschke products of degree 2, 8 and 16 in equal shares, a quarter
    of them with a repeated zero."""
    rng = stream(seed, 1)
    out = [
        blaschke_product(zeros(rng, MODEL_DEGREES[i % 3], repeated=i % 4 == 0))
        for i in range(count)
    ]
    return [out[i] for i in rng.permutation(count)]


def jordan_cell(size: int) -> np.ndarray:
    J = np.zeros((size, size), dtype=complex)
    J[np.arange(1, size), np.arange(size - 1)] = 1.0
    return J


def extract_cases(seed: int, count: int = 210) -> list:
    """(T, h, is_eigenvector) triples for extraction.

    Every seventh operator is a nilpotent Jordan cell, the rest are model
    operators of degree 2-12, a third of them with a repeated zero.  Every
    fifth h is an exact eigenvector: the last coordinate vector, which a
    lower triangular T maps to a multiple of itself.
    """
    rng = stream(seed, 2)
    cases = []
    for i in range(count):
        if i % 7 == 6:
            T = jordan_cell(JORDAN_SIZES[(i // 7) % len(JORDAN_SIZES)])
        else:
            degree = EXTRACT_DEGREES[i % len(EXTRACT_DEGREES)]
            b = blaschke_product(zeros(rng, degree, repeated=i % 3 == 0))
            T = build_model_operator(b).matrix
        n = T.shape[0]
        eigenvector = i % 5 == 0
        if eigenvector:
            h = np.zeros(n, dtype=complex)
            h[-1] = complex(rng.standard_normal(), rng.standard_normal())
        else:
            h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cases.append((T, h, eigenvector))
    return [cases[i] for i in rng.permutation(count)]


def cli_inputs(seed: int, variants: int = 3) -> list:
    """Per variant: a gcd pair sharing two zeros, a divisors symbol with a
    double zero, a degree-8 model symbol, and a degree-6 bundle symbol with
    the seed for ``extract --random``."""
    rng = stream(seed, 3)
    out = []
    for _ in range(variants):
        z = zeros(rng, 6, repeated=False)
        out.append({
            "gcd": (blaschke_product(z[:4]), blaschke_product(z[2:])),
            "divisors": blaschke_product(zeros(rng, 4, repeated=True)),
            "model": blaschke_product(zeros(rng, 8, repeated=False)),
            "extract": (blaschke_product(zeros(rng, 6, repeated=False)), int(rng.integers(2**31))),
        })
    return out
