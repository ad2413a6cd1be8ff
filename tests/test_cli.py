import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modelspace
from modelspace import blaschke_product, cli, gcd, inner_to_json, verify
from modelspace.cli import main


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def unit_singular(tmp_path):
    return write_json(
        tmp_path / "singular.json", {"singular": [{"angle": 0.0, "weight": 1.0}]}
    )


@pytest.fixture
def coordinate(tmp_path):
    return write_json(
        tmp_path / "z.json", {"blaschke": [{"zero": [0.0, 0.0], "multiplicity": 1}]}
    )


@pytest.fixture
def coordinate_cubed(tmp_path):
    return write_json(
        tmp_path / "z3.json", {"blaschke": [{"zero": [0.0, 0.0], "multiplicity": 3}]}
    )


def test_eval_singular_at_origin_has_frozen_bytes(unit_singular, capsys):
    assert main(["inner", "eval", "--z", "0", "0", unit_singular]) == 0
    assert capsys.readouterr().out == "[0.36787944117144233,0.0]\n"


def test_eval_blaschke_at_interior_point(coordinate, capsys):
    assert main(["inner", "eval", "--z", "0.5", "0", coordinate]) == 0
    assert json.loads(capsys.readouterr().out) == [0.5, 0.0]


def test_eval_outside_domain_is_a_domain_error(unit_singular, capsys):
    assert main(["inner", "eval", "--z", "1", "0", unit_singular]) == 2
    assert "requires" in capsys.readouterr().err


def test_divides_both_directions(coordinate, coordinate_cubed, capsys):
    assert main(["inner", "divides", coordinate, coordinate_cubed]) == 0
    assert json.loads(capsys.readouterr().out) == {"divides": True}
    assert main(["inner", "divides", coordinate_cubed, coordinate]) == 0
    assert json.loads(capsys.readouterr().out) == {"divides": False}


def test_gcd_output_matches_library(tmp_path, capsys):
    a = blaschke_product([0.5, 0.5, -0.25])
    b = blaschke_product([0.5, 0.3])
    fa = write_json(tmp_path / "a.json", inner_to_json(a))
    fb = write_json(tmp_path / "b.json", inner_to_json(b))
    assert main(["inner", "gcd", fa, fb]) == 0
    assert json.loads(capsys.readouterr().out) == inner_to_json(gcd(a, b))


def test_mul_then_div_roundtrips(tmp_path, coordinate, coordinate_cubed, capsys):
    assert main(["inner", "mul", coordinate, coordinate_cubed]) == 0
    product = capsys.readouterr().out
    fp = (tmp_path / "product.json")
    fp.write_text(product, encoding="utf-8")
    assert main(["inner", "div", str(fp), coordinate_cubed]) == 0
    quotient = json.loads(capsys.readouterr().out)
    assert quotient["blaschke"] == [{"zero": [0.0, 0.0], "multiplicity": 1}]


def test_div_by_non_divisor_is_a_domain_error(coordinate, coordinate_cubed, capsys):
    assert main(["inner", "div", coordinate, coordinate_cubed]) == 2
    assert "divide" in capsys.readouterr().err


def test_divisor_enumeration(coordinate_cubed, capsys):
    assert main(["inner", "divisors", coordinate_cubed]) == 0
    assert len(json.loads(capsys.readouterr().out)["divisors"]) == 4


def test_divisor_enumeration_past_the_cap_is_a_domain_error(tmp_path, capsys):
    huge = write_json(
        tmp_path / "huge.json", {"blaschke": [{"zero": [0.5, 0.0], "multiplicity": 10**9}]}
    )
    assert main(["inner", "divisors", huge]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ConditioningError: 1000000001 divisors exceed the enumeration cap 65536\n"
    )


def huge_multiplicity_input(tmp_path, command, multiplicity):
    """The file a command reads: a symbol with the given multiplicity, or for
    extract a valid degree-1 bundle whose symbol is given it."""
    symbol = {"blaschke": [{"zero": [0.5, 0.0], "multiplicity": multiplicity}]}
    if command != "extract":
        return write_json(tmp_path / "symbol.json", symbol)
    bundle = tmp_path / "bundle.json"
    one = write_json(
        tmp_path / "one.json", {"blaschke": [{"zero": [0.5, 0.0], "multiplicity": 1}]}
    )
    assert main(["model", one, "--out", str(bundle)]) == 0
    return write_json(bundle, dict(json.loads(bundle.read_text()), symbol=symbol))


@pytest.mark.parametrize(
    "command, multiplicity, code, message",
    [
        # 10**400 is a JSON integer whose Blaschke condition term overflows a double
        pytest.param(command, 10**400, 2, "InvalidZeroError: zero data does not sum",
                     id=command + "-1e400")
        for command in ("gcd", "divisors", "model", "extract")
    ] + [
        # 2**63 has a finite condition but no list of that many zeros fits
        pytest.param("model", 2**63, 2, "ConditioningError: degree 9223372036854775808 exceeds",
                     id="model-2**63"),
        pytest.param("extract", 2**63, 1,
                     "input error: matrix size 1 does not match the symbol degree",
                     id="extract-2**63"),
    ],
)
def test_huge_multiplicity_is_refused_with_a_message(
    tmp_path, capsys, command, multiplicity, code, message
):
    path = huge_multiplicity_input(tmp_path, command, multiplicity)
    capsys.readouterr()
    argv = {
        "gcd": ["inner", "gcd", path, path],
        "divisors": ["inner", "divisors", path],
        "model": ["model", path],
        "extract": ["extract", path, "--random"],
    }[command]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and "Traceback" not in captured.err


def test_model_checks_the_degree_cap_before_listing_zeros(tmp_path, monkeypatch, capsys):
    def listed(self):
        raise AssertionError("zeros listed for a symbol past the degree cap")

    monkeypatch.setattr(modelspace.BlaschkeFunction, "zeros_with_multiplicity", listed)
    path = huge_multiplicity_input(tmp_path, "model", 10**7)
    assert main(["model", path]) == 2
    assert capsys.readouterr().err == (
        "ConditioningError: degree 10000000 exceeds the supported cap 16\n"
    )


def test_missing_file_is_a_parse_error(capsys):
    assert main(["inner", "eval", "--z", "0", "0", "/nonexistent.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["inner", "eval", "--z", "0", "0", str(bad)]) == 1


def test_usage_errors_exit_one(capsys):
    assert main(["inner", "frobnicate"]) == 1
    assert main(["verify", "nonsense"]) == 1
    assert main([]) == 1


def test_model_bundle_shape(coordinate_cubed, capsys):
    assert main(["model", coordinate_cubed]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["matrix"]["n"] == 3
    assert len(bundle["basis_zeros"]) == 3
    assert bundle["matrix"]["entries"][1][0] == pytest.approx([1.0, 0.0], abs=1e-12)


def test_model_oracle_report(tmp_path, capsys):
    symbol = write_json(
        tmp_path / "b.json", inner_to_json(blaschke_product([0.4, -0.2 + 0.1j]))
    )
    assert main(["model", symbol, "--oracle"]) == 0
    oracle = json.loads(capsys.readouterr().out)["oracle"]
    assert isinstance(oracle["trunc_used"], int)
    assert oracle["eigenvalue_deviation"] <= 1e-8
    assert oracle["singular_value_deviation"] <= 1e-8


def test_model_of_singular_symbol_is_a_domain_error(unit_singular, capsys):
    assert main(["model", unit_singular]) == 2
    assert "singular" in capsys.readouterr().err


def test_out_file_duplicates_stdout(tmp_path, coordinate_cubed, capsys):
    out = tmp_path / "bundle.json"
    assert main(["model", coordinate_cubed, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out


def test_extract_random_is_deterministic(tmp_path, coordinate_cubed, capsys):
    bundle = tmp_path / "bundle.json"
    assert main(["model", coordinate_cubed, "--out", str(bundle)]) == 0
    capsys.readouterr()
    assert main(["extract", str(bundle), "--random", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["extract", str(bundle), "--random", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    cert = json.loads(first)
    assert cert["branch"] == "divisor_kernel"


def test_extract_explicit_vector(tmp_path, coordinate_cubed, capsys):
    bundle = tmp_path / "bundle.json"
    main(["model", coordinate_cubed, "--out", str(bundle)])
    capsys.readouterr()
    vec = write_json(tmp_path / "h.json", [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert main(["extract", str(bundle), "--h", vec]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["branch"] == "divisor_kernel"
    assert cert["invariance_residual"] <= 1e-8


def test_extract_prints_one_certificate_at_any_scale_of_h(tmp_path, coordinate_cubed, capsys):
    bundle = tmp_path / "bundle.json"
    main(["model", coordinate_cubed, "--out", str(bundle)])
    capsys.readouterr()
    h = [[0.5, -1.25], [2.0, 0.75], [-1.0, 0.5]]
    printed = []
    # 2**-70 h has norm below 1e-14, and the squares of 2**900 h overflow
    for k in (0, -70, 900):
        vec = write_json(
            tmp_path / ("h%d.json" % k), [[2.0**k * x, 2.0**k * y] for x, y in h]
        )
        assert main(["extract", str(bundle), "--h", vec]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[1] == printed[0] and printed[2] == printed[0]


def test_extract_zero_vector_is_a_domain_error(tmp_path, coordinate_cubed, capsys):
    bundle = tmp_path / "bundle.json"
    main(["model", coordinate_cubed, "--out", str(bundle)])
    capsys.readouterr()
    vec = write_json(tmp_path / "h0.json", [[0.0, 0.0]] * 3)
    assert main(["extract", str(bundle), "--h", vec]) == 2


def test_extract_length_mismatch_is_a_domain_error(tmp_path, coordinate_cubed, capsys):
    bundle = tmp_path / "bundle.json"
    main(["model", coordinate_cubed, "--out", str(bundle)])
    capsys.readouterr()
    vec = write_json(tmp_path / "h2.json", [[1.0, 0.0], [0.0, 0.0]])
    assert main(["extract", str(bundle), "--h", vec]) == 2


def test_extract_splits_off_an_exact_zero_of_the_bundle(tmp_path, capsys):
    symbol = write_json(tmp_path / "b.json", inner_to_json(
        blaschke_product([0.0, 0.2, -0.5 + 0.1j, 0.3j, 0.6, -0.1 - 0.4j])
    ))
    bundle = tmp_path / "bundle.json"
    assert main(["model", symbol, "--out", str(bundle)]) == 0
    capsys.readouterr()
    assert main(["extract", str(bundle), "--random"]) == 0
    cert = json.loads(capsys.readouterr().out)
    # the symbol is read off the bundle's diagonal, not estimated
    assert cert["divisor"]["blaschke"] == [{"multiplicity": 1, "zero": [0.0, 0.0]}]
    assert cert["restriction_minimal_function"] == cert["divisor"]
    # below the rounding of the final test itself: a refusal, not a fault
    assert main(["extract", str(bundle), "--random", "--tolerance", "1e-20"]) == 2
    assert capsys.readouterr().err.startswith("NotInvariantError: ")


def test_extract_certifies_a_bundle_one_ulp_off_the_closed_form(tmp_path, capsys):
    symbol = write_json(tmp_path / "a.json", {"blaschke": [
        {"zero": [0.5, 0.0], "multiplicity": 2}, {"zero": [-0.25, 0.0], "multiplicity": 1},
    ]})
    bundle = tmp_path / "bundle.json"
    assert main(["model", symbol, "--out", str(bundle)]) == 0
    capsys.readouterr()
    text = bundle.read_text()
    assert "0.8385254915624211," in text
    # within the loader's 1e-12 of the closed form but not bit for bit it,
    # so extraction takes the characteristic product of the matrix
    bundle.write_text(text.replace("0.8385254915624211,", "0.8385254915624212,"))
    assert main(["extract", str(bundle), "--random"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["branch"] == "divisor_kernel"
    assert cert["invariance_residual"] <= 1e-8


def test_verify_single_suite_json(capsys):
    assert main(["verify", "lattice", "--seed", "3", "--cases", "20"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["name"] == "lattice"
    assert report["passed"] is True
    assert report["cases"] == 20


def test_verify_csv_format(capsys):
    assert main(["verify", "lattice", "--seed", "3", "--cases", "10", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "suite,check,passed,failures,worst"
    assert len(lines) > 1
    assert all(line.startswith("lattice,") for line in lines[1:])


def test_verify_all_reports_every_suite(capsys):
    assert main(["verify", "all", "--seed", "5", "--cases", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(report["suites"]) == [
        "calculus", "classification", "extraction", "lattice", "model",
    ]
    assert report["passed"] is True


def test_verify_tolerance_env_override(monkeypatch, capsys):
    monkeypatch.setenv("MODELSPACE_TOL", "1e-30")
    assert main(["verify", "calculus", "--seed", "3", "--cases", "2"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False


def test_verify_bad_tolerance_env(monkeypatch, capsys):
    monkeypatch.setenv("MODELSPACE_TOL", "not-a-number")
    assert main(["verify", "lattice", "--cases", "2"]) == 1
    assert "MODELSPACE_TOL" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_non_finite_tolerance_env_is_a_parse_error(monkeypatch, capsys, value):
    monkeypatch.setenv("MODELSPACE_TOL", value)
    assert main(["verify", "extraction", "--cases", "3"]) == 1
    assert "MODELSPACE_TOL" in capsys.readouterr().err


def test_extract_non_finite_tolerance_is_an_invalid_request(
    tmp_path, coordinate_cubed, capsys
):
    bundle = tmp_path / "bundle.json"
    main(["model", coordinate_cubed, "--out", str(bundle)])
    capsys.readouterr()
    assert main(["extract", str(bundle), "--random", "--tolerance", "nan"]) == 2
    assert "invalid request" in capsys.readouterr().err


_FRESH_CLI = """
import json, sys

def loaded(top):
    return sorted(m for m in sys.modules if m.split(".")[0] == top)

import modelspace
bare = loaded("numpy") + loaded("scipy") + loaded("modelspace")
from modelspace.cli import main
codes = [main(argv.split("|")) for argv in sys.argv[1:]]
print(json.dumps({"codes": codes, "scipy": loaded("scipy"), "numpy": loaded("numpy"),
                  "modelspace": loaded("modelspace"), "bare": bare,
                  "stdlib": loaded("dataclasses") + loaded("inspect"),
                  "pool": loaded("concurrent") + loaded("multiprocessing")}))
"""


def _fresh_cli(*argvs):
    """Run main on each argv in one new interpreter; exit codes and the
    scipy, numpy and modelspace modules loaded (after a bare ``import
    modelspace``, and at the end), and whether dataclasses, inspect or a
    process pool module was loaded at the end."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_CLI, *("|".join(a) for a in argvs)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_numpy_only_commands_never_import_scipy(tmp_path):
    a = write_json(tmp_path / "a.json", inner_to_json(blaschke_product([0.5, 0.5, -0.25])))
    b = write_json(tmp_path / "b.json", inner_to_json(blaschke_product([0.5, 0.3])))
    bundle = str(tmp_path / "bundle.json")
    result = _fresh_cli(
        ["inner", "gcd", a, b],
        ["inner", "divisors", a],
        ["model", a, "--out", bundle],
        ["extract", bundle, "--random"],
        ["verify", "lattice", "--cases", "5"],
        ["verify", "calculus", "--cases", "3"],
        ["verify", "classification", "--cases", "2"],
        ["verify", "extraction", "--seed", "37"],
    )
    assert result["codes"] == [0, 0, 0, 0, 0, 0, 0, 0]
    assert result["scipy"] == []
    # only verify all imports the process pool
    assert result["pool"] == []


def test_model_oracle_imports_scipy_on_first_use(tmp_path):
    a = write_json(tmp_path / "a.json", inner_to_json(blaschke_product([0.4, -0.2 + 0.1j])))
    result = _fresh_cli(["model", a, "--oracle"])
    assert result["codes"] == [0]
    assert {"scipy.linalg", "scipy.optimize"} <= set(result["scipy"])


def test_lattice_commands_load_no_numpy(tmp_path):
    a = write_json(tmp_path / "a.json", inner_to_json(blaschke_product([0.5, 0.5, -0.25])))
    b = write_json(tmp_path / "b.json", inner_to_json(blaschke_product([0.5, 0.3])))
    c = write_json(tmp_path / "c.json", inner_to_json(blaschke_product([0.5])))
    result = _fresh_cli(
        ["inner", "gcd", a, b],
        ["inner", "lcm", a, b],
        ["inner", "divides", c, a],
        ["inner", "mul", a, b],
        ["inner", "div", a, c],
        ["inner", "divisors", a],
    )
    assert result["codes"] == [0] * 6
    assert result["numpy"] == []
    assert result["modelspace"] == [
        "modelspace", "modelspace.cli", "modelspace.errors", "modelspace.inner",
        "modelspace.serialize",
    ]
    assert result["stdlib"] == []


def test_bare_import_loads_no_numpy():
    result = _fresh_cli()
    assert result["bare"] == ["modelspace"]
    # importing the front end loads neither dataclasses nor inspect, nor
    # the process pool that verify all forks
    assert result["stdlib"] == []
    assert result["pool"] == []


def test_model_without_oracle_loads_neither_extraction_nor_verify(tmp_path):
    a = write_json(tmp_path / "a.json", inner_to_json(blaschke_product([0.4, -0.2 + 0.1j])))
    result = _fresh_cli(["model", a])
    assert result["codes"] == [0]
    assert "numpy" in result["numpy"]
    assert "modelspace.model" in result["modelspace"]
    assert "modelspace.extraction" not in result["modelspace"]
    assert "modelspace.verify" not in result["modelspace"]
    # operator_norm, for the oracle only, is imported inside it
    assert "modelspace.calculus" not in result["modelspace"]
    assert "modelspace.hardy" not in result["modelspace"]


def test_extract_does_not_load_the_circle_sampler(tmp_path):
    a = write_json(tmp_path / "a.json", inner_to_json(blaschke_product([0.4, -0.2 + 0.1j])))
    bundle = str(tmp_path / "bundle.json")
    result = _fresh_cli(["model", a, "--out", bundle], ["extract", bundle, "--random"])
    assert result["codes"] == [0, 0]
    assert "modelspace.extraction" in result["modelspace"]
    assert "modelspace.hardy" not in result["modelspace"]


def test_verify_choices_are_the_suite_names():
    assert cli.SUITE_NAMES == verify.SUITE_NAMES


# The package's public names before they became lazy, by source module.
_PUBLIC_NAMES = {
    "calculus": """ContractivityReport apply apply_spectral check_contractivity
        check_multiplicativity multiply_functions operator_norm""",
    "errors": """AccuracyError ConditioningError DegenerateModelError
        EvaluationDomainError IllConditionedSpectrumError ImpossibleByTheoryError
        InvalidZeroError ModelSpaceError NearBoundarySpectrumError NotADivisorError
        NotInvariantError RankAmbiguityError SerializationError
        TrivialAnnihilatorError TrivialElementError UnsupportedModelError""",
    "extraction": """ExtractionCertificate Subspace cyclic_subspace
        divisor_kernel_subspace extract_invariant_subspace invariance_residual
        is_multiplicity_free minimal_function restrict verify_algebraic""",
    "hardy": "CircleSampler circle_nodes fourier_coefficients h2_inner_product",
    "inner": """AtomicSingularMeasure BlaschkeFunction InnerFunction Polynomial
        ProductFunction RationalFunction blaschke_factor blaschke_product divides
        enumerate_blaschke_divisors equiv eval_blaschke_factor exact_divide gcd
        inner_one is_negligible lcm multiply singular_inner""",
    "model": "ModelOperator build_model_operator oracle_compressed_shift",
    "serialize": """canonical_dumps certificate_from_json certificate_to_json
        complex_from_json complex_to_json frame_from_json frame_to_json
        inner_from_json inner_to_json matrix_from_json matrix_to_json
        model_from_json model_to_json parse_json vector_from_json vector_to_json""",
}


def test_every_public_name_resolves_to_its_submodule_object():
    names = []
    for module_name, listed in _PUBLIC_NAMES.items():
        module = importlib.import_module("modelspace." + module_name)
        for name in listed.split():
            assert getattr(modelspace, name) is getattr(module, name)
            names.append(name)
    assert sorted(names) == modelspace.__all__
    assert set(names) <= set(dir(modelspace))
    assert modelspace.__version__ == "0.1.0"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        modelspace.no_such_name
    assert not hasattr(modelspace, "SUITE_NAMES")
    with pytest.raises(ImportError):
        exec("from modelspace import no_such_name", {})
