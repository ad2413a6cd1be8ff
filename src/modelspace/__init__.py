"""Desk-scale laboratory for inner functions and finite model operators.

Every public name is loaded from its submodule on first access (PEP 562),
so ``import modelspace`` costs no numpy and a command pays only for the
modules it uses.
"""

import importlib

# submodule -> the public names it provides here
_EXPORTS = {
    "calculus": (
        "ContractivityReport",
        "apply",
        "apply_spectral",
        "check_contractivity",
        "check_multiplicativity",
        "multiply_functions",
        "operator_norm",
    ),
    "errors": (
        "AccuracyError",
        "ConditioningError",
        "DegenerateModelError",
        "EvaluationDomainError",
        "IllConditionedSpectrumError",
        "ImpossibleByTheoryError",
        "InvalidZeroError",
        "ModelSpaceError",
        "NearBoundarySpectrumError",
        "NotADivisorError",
        "NotInvariantError",
        "RankAmbiguityError",
        "SerializationError",
        "TrivialAnnihilatorError",
        "TrivialElementError",
        "UnsupportedModelError",
    ),
    "extraction": (
        "ExtractionCertificate",
        "Subspace",
        "cyclic_subspace",
        "divisor_kernel_subspace",
        "extract_invariant_subspace",
        "invariance_residual",
        "is_multiplicity_free",
        "minimal_function",
        "restrict",
        "verify_algebraic",
    ),
    "hardy": (
        "CircleSampler",
        "circle_nodes",
        "fourier_coefficients",
        "h2_inner_product",
    ),
    "inner": (
        "AtomicSingularMeasure",
        "BlaschkeFunction",
        "InnerFunction",
        "Polynomial",
        "ProductFunction",
        "RationalFunction",
        "blaschke_factor",
        "blaschke_product",
        "divides",
        "enumerate_blaschke_divisors",
        "equiv",
        "eval_blaschke_factor",
        "exact_divide",
        "gcd",
        "inner_one",
        "is_negligible",
        "lcm",
        "multiply",
        "singular_inner",
    ),
    "model": (
        "ModelOperator",
        "build_model_operator",
        "oracle_compressed_shift",
    ),
    "serialize": (
        "canonical_dumps",
        "certificate_from_json",
        "certificate_to_json",
        "complex_from_json",
        "complex_to_json",
        "frame_from_json",
        "frame_to_json",
        "inner_from_json",
        "inner_to_json",
        "matrix_from_json",
        "matrix_to_json",
        "model_from_json",
        "model_to_json",
        "parse_json",
        "vector_from_json",
        "vector_to_json",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
