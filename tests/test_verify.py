import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from modelspace import canonical_dumps, equiv, extraction, verify
from modelspace.cli import main
from modelspace.errors import ImpossibleByTheoryError, NotInvariantError
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


_EXTRACTION_CHECKS = [
    "branch_matches_degree",
    "invariance_certified",
    "no_impossible_failures",
    "proper_dimensions",
    "vectors_algebraic_for_own_minimal",
]


@pytest.mark.parametrize(
    "tolerance,check", [(1e-14, "no_impossible_failures"), (1e-16, "invariance_certified")]
)
def test_extraction_suite_reports_its_refusals_at_a_tight_tolerance(
    monkeypatch, capsys, tolerance, check
):
    # at 1e-14 the descent refuses some symbols as unconfirmed, at 1e-16
    # some lines fail below the rounding of their own test; both used to
    # abort the suite with exit 2 and no report
    report = run_suite("extraction", 1, tolerance=tolerance)
    assert sorted(report["checks"]) == _EXTRACTION_CHECKS
    assert not report["passed"]
    assert report["checks"][check]["failures"] > 0
    if check == "invariance_certified":
        assert report["checks"][check]["worst"] > tolerance
    monkeypatch.setenv("MODELSPACE_TOL", repr(tolerance))
    assert main(["verify", "extraction", "--seed", "1"]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == (canonical_dumps(report), "")


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _forbidden_fork():
    raise AssertionError("run_all forked a worker")


def _record_pids(monkeypatch):
    """Every suite's report also names the process that ran it."""
    for name in SUITE_NAMES:
        suite = verify._SUITES[name]

        def recording(seed, cases, tolerance, suite=suite):
            return {**suite(seed, cases=cases, tolerance=tolerance), "pid": os.getpid()}

        monkeypatch.setitem(verify._SUITES, name, recording)


def _failing(monkeypatch, name, make_error, delay=0.0):
    """Suite ``name`` raises make_error(pid of the process that ran it)."""

    def suite(seed, cases, tolerance):
        time.sleep(delay)
        raise make_error(os.getpid())

    monkeypatch.setitem(verify._SUITES, name, suite)


def _in_process(seed, cases=None):
    suites = {name: run_suite(name, seed, cases) for name in SUITE_NAMES}
    return {"seed": seed, "suites": suites, "passed": all(s["passed"] for s in suites.values())}


@pytest.mark.parametrize("seed,cases", [(42, None), (37, 3), (43, 3)])
def test_run_all_in_workers_prints_the_bytes_of_the_in_process_suites(monkeypatch, seed, cases):
    _cpus(monkeypatch, 2)
    assert canonical_dumps(run_all(seed, cases)) == canonical_dumps(_in_process(seed, cases))
    assert multiprocessing.active_children() == []


def test_run_all_runs_the_suites_in_forked_workers(monkeypatch):
    _cpus(monkeypatch, 2)
    _record_pids(monkeypatch)
    report = run_all(1, cases=1)
    assert list(report["suites"]) == list(SUITE_NAMES)
    assert os.getpid() not in {s["pid"] for s in report["suites"].values()}
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("condition", ["one_cpu", "cpu_count_one", "no_fork", "other_thread"])
def test_run_all_stays_in_process_where_forking_does_not_pay_or_is_unsafe(
    monkeypatch, condition
):
    _cpus(monkeypatch, 2)
    if condition == "one_cpu":
        _cpus(monkeypatch, 1)
    if condition == "cpu_count_one":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    if condition == "no_fork":
        monkeypatch.delattr(os, "fork", raising=False)
    else:
        monkeypatch.setattr(os, "fork", _forbidden_fork)
    _record_pids(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if condition == "other_thread":
        thread.start()
    try:
        report = run_all(37, cases=3)
    finally:
        stop.set()
    if condition == "other_thread":
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert canonical_dumps(report) == canonical_dumps(_in_process(37, 3))
    assert {s["pid"] for s in report["suites"].values()} == {os.getpid()}


def test_run_all_validates_before_forking(monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", _forbidden_fork)
    with pytest.raises(ValueError, match="cases"):
        run_all(1, cases=0)
    with pytest.raises(ValueError, match="tolerance"):
        run_all(1, tolerance=float("nan"))


@pytest.mark.parametrize(
    "make_error,attribute,value",
    [
        (lambda pid: NotInvariantError("residual in %d" % pid, residual=0.25), "residual", 0.25),
        (
            lambda pid: ImpossibleByTheoryError(
                "impossible in %d" % pid, diagnostics={"g_ratios": [(0.5j, 1e-3)]}
            ),
            "diagnostics",
            {"g_ratios": [(0.5j, 1e-3)]},
        ),
    ],
    ids=["NotInvariantError", "ImpossibleByTheoryError"],
)
def test_a_worker_error_reaches_the_caller_with_its_attributes(
    monkeypatch, make_error, attribute, value
):
    _cpus(monkeypatch, 2)
    _failing(monkeypatch, "model", make_error)
    error_type = type(make_error(0))
    with pytest.raises(error_type) as info:
        run_all(1, cases=1)
    assert type(info.value) is error_type
    assert int(str(info.value).split()[-1]) != os.getpid()
    assert getattr(info.value, attribute) == value
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_earliest_failing_suite_in_order_raises(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    # the later suite fails first
    _failing(monkeypatch, "calculus", lambda pid: ImpossibleByTheoryError("calculus"), 0.5)
    _failing(monkeypatch, "extraction", lambda pid: NotInvariantError("extraction", 1.0))
    with pytest.raises(ImpossibleByTheoryError, match="calculus"):
        run_all(1, cases=1)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "make_error,code,line",
    [
        (None, 3, ""),
        (lambda pid: NotInvariantError("no line", residual=1.0), 2, "NotInvariantError: no line\n"),
        (lambda pid: ValueError("bad draw"), 2, "invalid request: bad draw\n"),
    ],
    ids=["report", "NotInvariantError", "ValueError"],
)
def test_verify_all_keeps_its_exit_code_and_stderr_in_workers(
    monkeypatch, capsys, make_error, code, line
):
    # a tolerance at which the suites report failures, and exit 3, unless
    # the classification suite raises
    monkeypatch.setenv("MODELSPACE_TOL", "1e-16")
    if make_error is not None:
        _failing(monkeypatch, "classification", make_error)
    results = []
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        results.append((main(["verify", "all", "--seed", "1", "--cases", "2"]), *capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] == code and results[0][2] == line
    assert multiprocessing.active_children() == []
