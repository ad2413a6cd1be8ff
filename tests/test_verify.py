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


def test_extraction_rounds_compute_two_minimal_functions(monkeypatch):
    calls = []
    rounds = []
    original_minimal = extraction.minimal_function
    original_round = verify._extraction_round

    def counting_minimal(*args, **kwargs):
        calls.append(1)
        return original_minimal(*args, **kwargs)

    def counting_round(*args, **kwargs):
        rounds.append(1)
        return original_round(*args, **kwargs)

    monkeypatch.setattr(extraction, "minimal_function", counting_minimal)
    monkeypatch.setattr(verify, "_extraction_round", counting_round)
    report = verify.extraction_suite(1, cases=3)
    assert report["passed"]
    # 3 random models, 7 x 5 Jordan cells, 5 vectors on each model-suite model
    assert len(rounds) == 3 + 35 + 5 * 50
    # the cyclic restriction and the certified restriction; the suite takes
    # the cyclic minimal function from the extraction instead of recomputing it
    assert len(calls) == 2 * len(rounds)
