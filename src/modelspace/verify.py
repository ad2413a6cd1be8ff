"""Seeded verification suites behind the command line front end.

Each suite draws its inputs from a seeded generator, exercises one slice of
the library against independently known ground truth, and returns a plain
dict of counters and worst-case residuals.  Reports contain no timestamps
or environment data, so a fixed seed gives byte-identical output.
"""

from __future__ import annotations

import bisect
import os
import threading

import numpy as np

from .calculus import (
    _apply_checked,
    _check_tolerance,
    apply,
    check_contractivity,
    check_multiplicativity,
    operator_norm,
)
from .errors import ImpossibleByTheoryError, NotInvariantError
from .extraction import _divisor_kernel, _extract, minimal_function
from .inner import (
    InnerFunction,
    Polynomial,
    ProductFunction,
    RationalFunction,
    blaschke_factor,
    blaschke_product,
    divides,
    enumerate_blaschke_divisors,
    equiv,
    exact_divide,
    gcd,
    lcm,
    multiply,
)
from .model import build_model_operator, oracle_compressed_shift

SUITE_NAMES = ("lattice", "calculus", "model", "classification", "extraction")

_DEFAULT_CASES = {
    "lattice": 500,
    "calculus": 100,
    "model": 50,
    "classification": 20,
    "extraction": 200,
}

# Zeros of generated Blaschke products keep this mutual separation so that
# spectral clustering stays far from its decision bands.
_MIN_ZERO_SEPARATION = 5e-3


def _suite_rng(seed: int, label: str) -> np.random.Generator:
    key = int.from_bytes(label.encode(), "big") % (2**31)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def random_disk_point(rng: np.random.Generator, radius: float = 0.9) -> complex:
    r = radius * np.sqrt(rng.uniform())
    t = rng.uniform(0.0, 2.0 * np.pi)
    return complex(r * np.cos(t), r * np.sin(t))


def _random_disk_points(
    rng: np.random.Generator, count: int, radius: float
) -> np.ndarray:
    """The draws of ``count`` random_disk_point calls, bit for bit, at once."""
    u = rng.uniform(size=2 * count)
    r = radius * np.sqrt(u[0::2])
    t = 0.0 + 2.0 * np.pi * u[1::2]
    points = np.empty(count, dtype=complex)
    points.real = r * np.cos(t)
    points.imag = r * np.sin(t)
    return points


def random_inner(rng: np.random.Generator, radius: float = 0.9) -> InnerFunction:
    """Random inner function: up to 3 zeros (multiplicity up to 2), up to 2 atoms."""
    zero_atoms = tuple(
        (random_disk_point(rng, radius), int(rng.integers(1, 3)))
        for _ in range(int(rng.integers(0, 4)))
    )
    singular_atoms = tuple(
        (float(rng.uniform(0.0, 2.0 * np.pi)), float(rng.uniform(0.2, 2.0)))
        for _ in range(int(rng.integers(0, 3)))
    )
    gamma = complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    return InnerFunction(gamma=gamma, blaschke=zero_atoms, singular=singular_atoms)


def random_finite_blaschke(
    rng: np.random.Generator,
    min_degree: int = 2,
    max_degree: int = 8,
    radius: float = 0.9,
) -> InnerFunction:
    """Random Blaschke product with well-separated zeros."""
    degree = int(rng.integers(min_degree, max_degree + 1))
    zeros: list[complex] = []
    guard = 0
    while len(zeros) < degree:
        candidate = random_disk_point(rng, radius)
        if all(abs(candidate - z) > _MIN_ZERO_SEPARATION for z in zeros):
            zeros.append(candidate)
        guard += 1
        if guard > 1000:
            raise RuntimeError("zero sampling failed to separate")
    return blaschke_product(zeros)


def random_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def random_polynomial(rng: np.random.Generator, max_degree: int = 4) -> Polynomial:
    degree = int(rng.integers(0, max_degree + 1))
    coeffs = tuple(
        complex(rng.standard_normal(), rng.standard_normal()) * 0.5**k
        for k in range(degree + 1)
    )
    return Polynomial(coeffs)


def random_rational(rng: np.random.Generator, max_degree: int = 3) -> RationalFunction:
    num = random_polynomial(rng, max_degree).coefficients
    den = np.array([1.0 + 0.0j])
    for _ in range(int(rng.integers(1, max_degree + 1))):
        pole = (1.3 + rng.uniform(0.0, 1.7)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        den = np.convolve(den, np.array([1.0, -1.0 / pole]))
    return RationalFunction(num, tuple(den))


def random_symbol(rng: np.random.Generator):
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return random_polynomial(rng)
    if kind == 1:
        return random_rational(rng)
    if kind == 2:
        return random_inner(rng)
    return ProductFunction((random_polynomial(rng, 2), random_inner(rng)))


def matched_deviation(values: np.ndarray, targets: np.ndarray) -> float:
    """Worst distance under the bijective matching of two multisets that
    makes it smallest: the bottleneck assignment (Burkard, Dell'Amico and
    Martello, Assignment Problems, 2009, ch. 6).

    No matching does better than the largest row or column minimum of the
    distance matrix; when the pairs at most that far apart hold a perfect
    matching, that bound is the value, else the value is found by
    bisection over the larger distances.
    """
    values = np.asarray(values, dtype=complex).reshape(-1)
    targets = np.asarray(targets, dtype=complex).reshape(-1)
    if values.shape != targets.shape:
        raise ValueError("multisets must have equal size")
    cost = np.abs(values[:, None] - targets[None, :])
    if not np.isfinite(cost).all():
        raise ValueError("multisets must have finite entries")
    if not values.size:
        return 0.0
    bound = max(cost.min(axis=1).max(), cost.min(axis=0).max())
    if _has_perfect_matching(cost <= bound):
        return float(bound)
    # the largest level allows every pair, so bisection ends on a match
    levels = np.unique(cost[cost > bound])
    i = bisect.bisect_left(levels, True, key=lambda level: _has_perfect_matching(cost <= level))
    return float(levels[i])


def _has_perfect_matching(allowed: np.ndarray) -> bool:
    """Whether each row i of a square boolean matrix can take its own
    column j with allowed[i, j], by Kuhn's augmenting paths; a search
    recurses at most one level per row."""
    neighbours = [np.flatnonzero(row).tolist() for row in allowed]
    row_of = [-1] * len(neighbours)  # the row that holds each column

    def augment(i, seen):
        for j in neighbours[i]:
            if j not in seen:
                seen.add(j)
                if row_of[j] < 0 or augment(row_of[j], seen):
                    row_of[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(neighbours)))


def oracle_deviations(model, oracle_matrix: np.ndarray) -> tuple[float, float]:
    """How far a truncated-shift oracle matrix is from a model operator.

    Returns the matched deviation of the oracle's eigenvalues from the
    model's and the largest gap between the two sorted singular value
    lists; both are invariant under the unitary equivalence between them.
    """
    eig_dev = matched_deviation(np.linalg.eigvals(oracle_matrix), model.eigenvalues())
    sv_dev = float(
        np.max(
            np.abs(
                np.linalg.svd(model.matrix, compute_uv=False)
                - np.linalg.svd(oracle_matrix, compute_uv=False)
            )
        )
    )
    return eig_dev, sv_dev


def _check(failures: int, worst: float | None = None) -> dict:
    out = {"passed": failures == 0, "failures": int(failures)}
    if worst is not None:
        out["worst"] = float(worst)
    return out


def _report(name: str, seed: int, cases: int, checks: dict, **extra) -> dict:
    """A suite's report, which passes when every check passes."""
    report = {"name": name, "seed": seed, "cases": cases, "checks": checks, **extra}
    report["passed"] = all(c["passed"] for c in checks.values())
    return report


def lattice_suite(seed: int, cases: int = 500, tolerance: float = 1e-8) -> dict:
    """Lattice laws on random triples plus order-versus-modulus coherence."""
    _check_tolerance(tolerance)
    rng = _suite_rng(seed, "lattice")
    law_failures = {
        "gcd_commutative": 0,
        "lcm_commutative": 0,
        "gcd_idempotent": 0,
        "absorption_gcd": 0,
        "absorption_lcm": 0,
        "gcd_divides_both": 0,
        "both_divide_lcm": 0,
        "product_roundtrip": 0,
    }
    for _ in range(cases):
        a = random_inner(rng)
        b = random_inner(rng)
        c = random_inner(rng)
        g, m = gcd(a, b), lcm(a, b)
        if not equiv(g, gcd(b, a)):
            law_failures["gcd_commutative"] += 1
        if not equiv(m, lcm(b, a)):
            law_failures["lcm_commutative"] += 1
        if not equiv(gcd(a, a), a):
            law_failures["gcd_idempotent"] += 1
        if not equiv(gcd(a, m), a):
            law_failures["absorption_gcd"] += 1
        if not equiv(lcm(a, g), a):
            law_failures["absorption_lcm"] += 1
        if not (divides(g, a) and divides(g, b)):
            law_failures["gcd_divides_both"] += 1
        if not (divides(a, m) and divides(b, m)):
            law_failures["both_divide_lcm"] += 1
        if not equiv(exact_divide(multiply(a, c), c), a):
            law_failures["product_roundtrip"] += 1

    order_failures = 0
    worst_excess = 0.0
    pair_count = max(1, cases // 2)
    for _ in range(pair_count):
        theta = random_inner(rng)
        phi = random_inner(rng)
        bigger = multiply(theta, phi)
        if not divides(theta, bigger):
            order_failures += 1
            continue
        extra = blaschke_factor(random_disk_point(rng))
        if divides(multiply(theta, extra), theta):
            order_failures += 1
            continue
        points = _random_disk_points(rng, 100, 0.9)
        excess = float(
            np.max(np.abs(bigger(points)) - np.abs(theta(points)))
        )
        worst_excess = max(worst_excess, excess)
        if excess > 1e-10:
            order_failures += 1

    checks = {name: _check(count) for name, count in law_failures.items()}
    checks["order_matches_modulus"] = _check(order_failures, worst_excess)
    return _report("lattice", seed, cases, checks)


def calculus_suite(seed: int, cases: int = 100, tolerance: float = 1e-8) -> dict:
    """Calculus axioms on random models: exactness, products, contractivity."""
    _check_tolerance(tolerance)
    rng = _suite_rng(seed, "calculus")
    exact_failures = 0
    product_failures = 0
    contraction_failures = 0
    worst_product = 0.0
    worst_norm_excess = 0.0
    for _ in range(cases):
        model = build_model_operator(random_finite_blaschke(rng, 2, 8))
        T = model.matrix
        eye = np.eye(T.shape[0], dtype=complex)
        if float(np.max(np.abs(apply(Polynomial((1.0,)), T) - eye))) != 0.0:
            exact_failures += 1
        if float(np.max(np.abs(apply(Polynomial((0.0, 1.0)), T) - T))) != 0.0:
            exact_failures += 1
        u = random_symbol(rng)
        v = random_symbol(rng)
        residual = check_multiplicativity(u, v, T)
        worst_product = max(worst_product, residual)
        if residual > tolerance:
            product_failures += 1
        report = check_contractivity(u, T, tolerance)
        worst_norm_excess = max(
            worst_norm_excess, report.operator_norm - report.boundary_sup
        )
        if not report.passed:
            contraction_failures += 1
    checks = {
        "unit_and_coordinate_exact": _check(exact_failures),
        "multiplicative": _check(product_failures, worst_product),
        "contractive": _check(contraction_failures, worst_norm_excess),
    }
    return _report("calculus", seed, cases, checks)


def model_suite(seed: int, cases: int = 50, tolerance: float = 1e-8) -> dict:
    """Model construction against its zeros, the truncated-shift oracle and its symbol.

    The oracle is the one independent reference: it rebuilds the operator
    from Taylor coefficients alone, and agrees up to unitary equivalence.
    """
    _check_tolerance(tolerance)
    rng = _suite_rng(seed, "models")
    eig_failures = 0
    oracle_failures = 0
    annihilation_failures = 0
    minimal_failures = 0
    worst_eig = 0.0
    worst_oracle_eig = 0.0
    worst_oracle_sv = 0.0
    worst_annihilation = 0.0
    for _ in range(cases):
        b = random_finite_blaschke(rng, 2, 6)
        zeros = np.array(b.blaschke.zeros_with_multiplicity())
        model = build_model_operator(b)
        T = model.matrix
        dev = matched_deviation(np.linalg.eigvals(T), zeros)
        worst_eig = max(worst_eig, dev)
        if dev > tolerance:
            eig_failures += 1
        oracle_matrix, _ = oracle_compressed_shift(b, 8 * len(zeros))
        dev_o, sv_dev = oracle_deviations(model, oracle_matrix)
        worst_oracle_eig = max(worst_oracle_eig, dev_o)
        worst_oracle_sv = max(worst_oracle_sv, sv_dev)
        if dev_o > tolerance or sv_dev > tolerance:
            oracle_failures += 1
        residual = operator_norm(apply(b, T))
        worst_annihilation = max(worst_annihilation, residual)
        if residual > tolerance:
            annihilation_failures += 1
        if not equiv(minimal_function(T), b, zero_tol=1e-6):
            minimal_failures += 1
    checks = {
        "eigenvalues_are_zeros": _check(eig_failures, worst_eig),
        "oracle_agreement": _check(
            oracle_failures, max(worst_oracle_eig, worst_oracle_sv)
        ),
        "symbol_annihilates": _check(annihilation_failures, worst_annihilation),
        "minimal_function_recovers_symbol": _check(minimal_failures),
    }
    return _report("model", seed, cases, checks)


def classification_suite(seed: int, cases: int = 20, tolerance: float = 1e-8) -> dict:
    """Divisor kernels of multiplicity-free models, compared per divisor."""
    _check_tolerance(tolerance)
    rng = _suite_rng(seed, "classification")
    multiplicity_free_count = 0
    dim_failures = 0
    minimal_failures = 0
    invariance_failures = 0
    containment_failures = 0
    distinctness_failures = 0
    worst_invariance = 0.0
    for _ in range(cases):
        b = random_finite_blaschke(rng, 2, 5)
        model = build_model_operator(b)
        T = model.matrix
        # a discarded draw, once a Krylov seed, keeps the report's bytes
        rng.integers(2**31)
        # one minimal function per model decides multiplicity-freeness (T
        # is cyclic exactly when it has degree n) and serves every kernel
        minimal = minimal_function(T)
        if minimal.blaschke_degree == model.dimension:
            multiplicity_free_count += 1
        kernels = []
        for phi in enumerate_blaschke_divisors(b):
            K, restriction, res = _divisor_kernel(T, phi, minimal)
            kernels.append((phi, K, K.projector()))
            if K.dimension != phi.blaschke_degree:
                dim_failures += 1
                continue
            worst_invariance = max(worst_invariance, res)
            if res > tolerance:
                invariance_failures += 1
            if not equiv(minimal_function(restriction), phi, zero_tol=1e-6):
                minimal_failures += 1
        for i, (phi_i, ki, _) in enumerate(kernels):
            if ki.dimension < 1:
                continue
            compared = []
            for j, (phi_j, kj, pj) in enumerate(kernels):
                if j == i:
                    continue
                contained = divides(phi_i, phi_j)
                distinct = (
                    i < j
                    and ki.dimension == kj.dimension
                    and not equiv(phi_i, phi_j)
                )
                if contained or distinct:
                    compared.append((contained, distinct, pj))
            if not compared:
                continue
            # ||F_i - P_j F_i||_2 for every compared j from one stacked SVD;
            # for equal dimensions it is the sine of the largest principal angle
            projectors = np.array([pj for _, _, pj in compared])
            gaps = np.linalg.svd(
                ki.frame - projectors @ ki.frame, compute_uv=False
            )[:, 0]
            for (contained, distinct, _), gap in zip(compared, gaps):
                if contained and gap > tolerance:
                    containment_failures += 1
                if distinct and gap <= np.sin(1e-6):
                    distinctness_failures += 1
    checks = {
        "multiplicity_free": _check(cases - multiplicity_free_count),
        "kernel_dimensions": _check(dim_failures),
        "restriction_minimal_functions": _check(minimal_failures),
        "kernel_invariance": _check(invariance_failures, worst_invariance),
        "divisibility_containment": _check(containment_failures),
        "distinct_subspaces": _check(distinctness_failures),
    }
    return _report("classification", seed, cases, checks)


def _extraction_round(T, h, annihilator, tolerance, counters):
    n = T.shape[0]
    try:
        cert, minimal = _extract(T, h, tolerance=tolerance, annihilator=annihilator)
    except (ImpossibleByTheoryError, ValueError):
        # on the suite's valid inputs a ValueError is the refusal of the
        # symbol as unconfirmed, and theory guarantees that it annihilates h
        counters["impossible"] += 1
        return
    except NotInvariantError as e:
        counters["invariance_failures"] += 1
        counters["worst_invariance"] = max(counters["worst_invariance"], e.residual)
        return
    counters["branches"][cert.branch] = counters["branches"].get(cert.branch, 0) + 1
    if not (1 <= cert.subspace.dimension <= n - 1):
        counters["dim_failures"] += 1
    counters["worst_invariance"] = max(
        counters["worst_invariance"], cert.invariance_residual
    )
    if cert.invariance_residual > tolerance:
        counters["invariance_failures"] += 1
    expected_branch = (
        "divisor_kernel" if minimal.blaschke_degree >= 2 else "eigenvector_line"
    )
    if cert.branch != expected_branch:
        counters["branch_failures"] += 1
    # T is a contraction with spectrum in the open disk, and the descended
    # minimal annihilator is a Blaschke product, never zero
    h_arr = np.asarray(h, dtype=complex).reshape(-1)
    residual = float(np.linalg.norm(_apply_checked(minimal, T) @ h_arr))
    if residual > tolerance * float(np.linalg.norm(h_arr)):
        counters["algebraic_failures"] += 1


def extraction_suite(seed: int, cases: int = 200, tolerance: float = 1e-8) -> dict:
    """Certified extraction on random models, nilpotent cells, and reruns.

    Every round passes the operator's symbol as the annihilator: b for the
    model of b, z^n for the Jordan cell J_n(0).
    """
    _check_tolerance(tolerance)
    rng = _suite_rng(seed, "extraction")
    counters = {
        "impossible": 0,
        "dim_failures": 0,
        "invariance_failures": 0,
        "branch_failures": 0,
        "algebraic_failures": 0,
        "worst_invariance": 0.0,
        "branches": {},
    }
    for _ in range(cases):
        model = build_model_operator(random_finite_blaschke(rng, 2, 8))
        h = random_vector(rng, model.dimension)
        _extraction_round(model.matrix, h, model.symbol, tolerance, counters)
    for size in range(2, 9):
        # the model of z^n is the Jordan cell J_n(0)
        nilpotent = blaschke_factor(0.0, size)
        cell = build_model_operator(nilpotent).matrix
        for _ in range(5):
            _extraction_round(cell, random_vector(rng, size), nilpotent, tolerance, counters)
    # the model-suite generator is re-derived here so extraction also covers
    # exactly the operators the model suite certified
    model_rng = _suite_rng(seed, "models")
    for _ in range(_DEFAULT_CASES["model"]):
        b = random_finite_blaschke(model_rng, 2, 6)
        model = build_model_operator(b)
        for _ in range(5):
            h = random_vector(rng, model.dimension)
            _extraction_round(model.matrix, h, b, tolerance, counters)
    checks = {
        "no_impossible_failures": _check(counters["impossible"]),
        "proper_dimensions": _check(counters["dim_failures"]),
        "invariance_certified": _check(
            counters["invariance_failures"], counters["worst_invariance"]
        ),
        "branch_matches_degree": _check(counters["branch_failures"]),
        "vectors_algebraic_for_own_minimal": _check(counters["algebraic_failures"]),
    }
    branch_counts = {k: counters["branches"][k] for k in sorted(counters["branches"])}
    return _report("extraction", seed, cases, checks, branch_counts=branch_counts)


_SUITES = {
    "lattice": lattice_suite,
    "calculus": calculus_suite,
    "model": model_suite,
    "classification": classification_suite,
    "extraction": extraction_suite,
}


def run_suite(name: str, seed: int, cases: int | None = None, tolerance: float = 1e-8) -> dict:
    if name not in _SUITES:
        raise ValueError("unknown suite %r (choose from %s)" % (name, ", ".join(SUITE_NAMES)))
    if cases is None:
        cases = _DEFAULT_CASES[name]
    if cases < 1:
        raise ValueError("cases must be positive")
    return _SUITES[name](seed, cases=cases, tolerance=tolerance)


def _suite_report(name: str, seed: int, cases: int | None, tolerance: float) -> dict:
    # what a worker runs: a function pickles by its name, which a tracer
    # that rebinds run_suite to a closure (bench/spans.py) would break
    return run_suite(name, seed, cases, tolerance)


def _can_fork() -> bool:
    """Whether run_all may fork one worker per suite: two usable CPUs or
    more, a platform with fork, and no other Python thread in the caller,
    which a fork could copy holding a lock."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus >= 2 and hasattr(os, "fork") and threading.active_count() == 1


def run_all(seed: int, cases: int | None = None, tolerance: float = 1e-8) -> dict:
    """Every suite's report, in SUITE_NAMES order.

    When _can_fork, each suite runs in its own worker forked from the
    caller; every worker is joined before this returns or raises.  Each
    suite draws only from its own _suite_rng stream and the suites share
    no mutable state, so the report is byte for byte that of the
    in-process loop.  A suite's error reaches the caller with its type,
    message and attributes, and of several, that of the earliest suite in
    SUITE_NAMES order, as in the loop.
    """
    if cases is not None and cases < 1:
        raise ValueError("cases must be positive")
    _check_tolerance(tolerance)
    if _can_fork():
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(len(SUITE_NAMES), mp_context=context) as pool:
            futures = [
                pool.submit(_suite_report, name, seed, cases, tolerance)
                for name in SUITE_NAMES
            ]
            suites = {name: f.result() for name, f in zip(SUITE_NAMES, futures)}
    else:
        suites = {name: run_suite(name, seed, cases, tolerance) for name in SUITE_NAMES}
    return {
        "seed": seed,
        "suites": suites,
        "passed": all(s["passed"] for s in suites.values()),
    }
