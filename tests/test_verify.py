import numpy as np
import pytest

from modelspace import equiv, extraction, verify
from modelspace.verify import (
    _SUITES,
    SUITE_NAMES,
    _suite_rng,
    matched_deviation,
    random_finite_blaschke,
    run_all,
    run_suite,
)


def test_random_disk_points_repeat_the_scalar_draws_bit_for_bit():
    for seed in range(50):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        points = verify._random_disk_points(rng, 100, 0.9)
        expected = [verify.random_disk_point(reference, 0.9) for _ in range(100)]
        assert np.array_equal(points.view(np.uint64), np.array(expected).view(np.uint64))
        assert rng.uniform() == reference.uniform()


def test_matched_deviation_handles_permutations():
    values = np.array([0.5, 0.2 + 0.1j, -0.3])
    shuffled = values[[2, 0, 1]]
    assert matched_deviation(values, shuffled) == 0.0
    assert matched_deviation(values, shuffled + 1e-9) == pytest.approx(1e-9, rel=1e-6)
    with pytest.raises(ValueError):
        matched_deviation(values, values[:2])


def test_matched_deviation_picks_optimal_pairing():
    # a greedy nearest match would pair both values to the same target
    values = np.array([0.0, 0.1])
    targets = np.array([0.05, 1.0])
    assert matched_deviation(values, targets) == pytest.approx(0.9, abs=1e-12)


def test_run_suite_validates_input():
    with pytest.raises(ValueError):
        run_suite("spectral", 1)
    with pytest.raises(ValueError):
        run_suite("lattice", 1, cases=0)
    for tolerance in (float("nan"), float("inf"), 0.0, -1e-8):
        with pytest.raises(ValueError, match="tolerance"):
            run_suite("extraction", 1, cases=1, tolerance=tolerance)
        with pytest.raises(ValueError, match="tolerance"):
            run_all(1, cases=1, tolerance=tolerance)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, -1e-8])
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_refuses_a_tolerance_that_passes_every_test(name, tolerance):
    # called directly, not through run_suite, which used to hold the only check
    with pytest.raises(ValueError, match="tolerance"):
        _SUITES[name](1, cases=1, tolerance=tolerance)


def test_suite_reports_are_deterministic():
    first = run_suite("lattice", 9, cases=15)
    second = run_suite("lattice", 9, cases=15)
    assert first == second
    assert first["passed"] is True
    assert first["seed"] == 9


def test_run_all_aggregates_every_suite():
    report = run_all(11, cases=3)
    assert sorted(report["suites"]) == sorted(SUITE_NAMES)
    assert report["passed"] is True
    assert all(s["cases"] == 3 for s in report["suites"].values())


def test_suite_generators_are_seed_sensitive():
    a = random_finite_blaschke(_suite_rng(1, "models"), 2, 6)
    b = random_finite_blaschke(_suite_rng(2, "models"), 2, 6)
    assert not equiv(a, b)
    again = random_finite_blaschke(_suite_rng(1, "models"), 2, 6)
    assert equiv(a, again)


def test_zero_generator_separates_zeros():
    rng = np.random.default_rng(13)
    for _ in range(20):
        b = random_finite_blaschke(rng, 2, 8)
        zeros = b.blaschke.zeros_with_multiplicity()
        for i in range(len(zeros)):
            for j in range(i + 1, len(zeros)):
                assert abs(zeros[i] - zeros[j]) > 5e-3


def test_extraction_rounds_compute_no_minimal_function(monkeypatch):
    calls = []
    rounds = []
    original_round = verify._extraction_round

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    def counting_round(*args, **kwargs):
        rounds.append(1)
        return original_round(*args, **kwargs)

    for name in ("minimal_function", "cyclic_subspace"):
        monkeypatch.setattr(extraction, name, counting(name, getattr(extraction, name)))
    monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig))
    monkeypatch.setattr(verify, "_extraction_round", counting_round)
    report = verify.extraction_suite(1, cases=3)
    assert report["passed"]
    # 3 random models, 7 x 5 Jordan cells, 5 vectors on each model-suite model
    assert len(rounds) == 3 + 35 + 5 * 50
    # every round passes its operator's symbol, and the annihilator route
    # computes no eigenvalue, minimal function or cyclic subspace
    assert calls == []


@pytest.mark.parametrize("seed", [37, 43])
def test_extraction_suite_certifies_the_nilpotent_cells_its_seed_draws(seed):
    # both seeds draw a vector for J_8 that the route without an
    # annihilator cannot extract from (see tests/test_extraction.py)
    report = run_suite("extraction", seed)
    assert report["passed"]
    assert report["branch_counts"] == {"divisor_kernel": 485}


def test_classification_computes_one_minimal_function_per_model(monkeypatch):
    calls = []
    models = []
    kernels = []
    original_minimal = extraction.minimal_function
    original_kernel = verify._divisor_kernel
    original_build = verify.build_model_operator

    def counting_minimal(*args, **kwargs):
        calls.append(1)
        return original_minimal(*args, **kwargs)

    def counting_kernel(*args, **kwargs):
        kernels.append(1)
        return original_kernel(*args, **kwargs)

    def counting_build(*args, **kwargs):
        models.append(1)
        return original_build(*args, **kwargs)

    # both namespaces: divisor_kernel_subspace looks the name up in extraction
    monkeypatch.setattr(extraction, "minimal_function", counting_minimal)
    monkeypatch.setattr(verify, "minimal_function", counting_minimal)
    monkeypatch.setattr(verify, "_divisor_kernel", counting_kernel)
    monkeypatch.setattr(verify, "build_model_operator", counting_build)
    report = verify.classification_suite(1, cases=3)
    assert report["passed"]
    assert len(models) == 3
    # every kernel has its divisor's dimension, so every kernel is restricted
    assert len(calls) == len(models) + len(kernels)


def test_classification_report_matches_recomputed_minimal_functions(monkeypatch):
    report = verify.classification_suite(1, cases=3)

    # the minimal function and the compression both computed afresh
    def recomputing_kernel(T, phi, minimal):
        K = extraction.divisor_kernel_subspace(T, phi)
        return (K, *extraction._compress(T, K.frame))

    monkeypatch.setattr(verify, "_divisor_kernel", recomputing_kernel)
    assert verify.classification_suite(1, cases=3) == report
