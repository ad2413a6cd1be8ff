"""Canonical JSON encoding for every value the package exchanges.

Complex numbers are [real, imag] pairs, atoms are emitted in their
canonical order, keys are sorted, and separators are compact, so equal
values always serialize to identical bytes.  Negative zero is normalized
away at construction time by the value types themselves.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import SerializationError
from .extraction import ExtractionCertificate, Subspace
from .inner import AtomicSingularMeasure, BlaschkeFunction, InnerFunction
from .model import ModelOperator, ModelSpaceBasis, compressed_shift_matrix

# Largest entrywise deviation a model bundle's matrix may show from the
# closed form of its symbol; entries are bounded by 1, so this is relative.
_BUNDLE_TOL = 1e-12


def _num(x) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SerializationError("expected a number, got %r" % (x,))
    x = float(x)
    if not np.isfinite(x):
        raise SerializationError("numbers must be finite, got %r" % x)
    return 0.0 if x == 0.0 else x


def complex_to_json(z: complex) -> list:
    z = complex(z)
    return [_num(z.real), _num(z.imag)]


def complex_from_json(obj) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise SerializationError("complex values are [real, imag] pairs, got %r" % (obj,))
    return complex(_num(obj[0]), _num(obj[1]))


def inner_to_json(theta: InnerFunction) -> dict:
    return {
        "gamma": complex_to_json(theta.gamma),
        "blaschke": [
            {"zero": complex_to_json(alpha), "multiplicity": int(mult)}
            for alpha, mult in theta.blaschke.atoms
        ],
        "singular": [
            {"angle": _num(angle), "weight": _num(weight)}
            for angle, weight in theta.singular.atoms
        ],
    }


def inner_from_json(obj) -> InnerFunction:
    if not isinstance(obj, dict):
        raise SerializationError("inner function must be an object, got %r" % type(obj).__name__)
    try:
        gamma = complex_from_json(obj.get("gamma", [1.0, 0.0]))
        blaschke = tuple(
            (complex_from_json(atom["zero"]), int(atom["multiplicity"]))
            for atom in obj.get("blaschke", [])
        )
        singular = tuple(
            (_num(atom["angle"]), _num(atom["weight"]))
            for atom in obj.get("singular", [])
        )
    except (KeyError, TypeError) as e:
        raise SerializationError("malformed inner function: %s" % e)
    return InnerFunction(
        gamma=gamma,
        blaschke=BlaschkeFunction(blaschke),
        singular=AtomicSingularMeasure(singular),
    )


def matrix_to_json(A: np.ndarray) -> dict:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SerializationError("matrix serialization needs a square array")
    return {
        "n": int(A.shape[0]),
        "entries": [[complex_to_json(x) for x in row] for row in A],
    }


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise SerializationError("matrix object needs keys 'n' and 'entries'")
    n = obj["n"]
    if not isinstance(n, int) or n < 0:
        raise SerializationError("matrix size must be a nonnegative integer")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != n:
        raise SerializationError("matrix entries must hold %r rows" % n)
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise SerializationError("matrix row %d must hold %r entries" % (i, n))
        for j, cell in enumerate(row):
            out[i, j] = complex_from_json(cell)
    return out


def vector_to_json(v: np.ndarray) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [complex_to_json(x) for x in v]


def vector_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list):
        raise SerializationError("vector must be a list of [real, imag] pairs")
    return np.array([complex_from_json(x) for x in obj], dtype=complex)


def frame_to_json(frame: np.ndarray) -> dict:
    frame = np.asarray(frame, dtype=complex)
    return {
        "rows": int(frame.shape[0]),
        "cols": int(frame.shape[1]),
        "entries": [[complex_to_json(x) for x in row] for row in frame],
    }


def frame_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or not {"rows", "cols", "entries"} <= set(obj):
        raise SerializationError("frame object needs keys 'rows', 'cols', 'entries'")
    rows, cols = obj["rows"], obj["cols"]
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 0 or cols < 0:
        raise SerializationError("frame shape must be nonnegative integers")
    out = np.zeros((rows, cols), dtype=complex)
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows:
        raise SerializationError("frame entries must hold %r rows" % rows)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise SerializationError("frame row %d must hold %r entries" % (i, cols))
        for j, cell in enumerate(row):
            out[i, j] = complex_from_json(cell)
    return out


def model_to_json(model: ModelOperator) -> dict:
    return {
        "symbol": inner_to_json(model.symbol),
        "matrix": matrix_to_json(model.matrix),
        "basis_zeros": [complex_to_json(z) for z in model.basis.zeros],
    }


def model_from_json(obj) -> ModelOperator:
    if not isinstance(obj, dict) or "symbol" not in obj or "matrix" not in obj:
        raise SerializationError("model bundle needs keys 'symbol' and 'matrix'")
    symbol = inner_from_json(obj["symbol"])
    matrix = matrix_from_json(obj["matrix"])
    zeros = tuple(symbol.blaschke.zeros_with_multiplicity())
    if matrix.shape[0] != len(zeros):
        raise SerializationError(
            "matrix size %d does not match the symbol degree %d"
            % (matrix.shape[0], len(zeros))
        )
    deviation = float(np.max(np.abs(matrix - compressed_shift_matrix(zeros)), initial=0.0))
    if deviation > _BUNDLE_TOL:
        raise SerializationError(
            "model matrix deviates from the closed form of its symbol by %.3e "
            "(limit %.0e)" % (deviation, _BUNDLE_TOL)
        )
    return ModelOperator(
        symbol=symbol, matrix=matrix, basis=ModelSpaceBasis(zeros)
    )


def certificate_to_json(cert: ExtractionCertificate) -> dict:
    return {
        "branch": cert.branch,
        "divisor": None if cert.divisor is None else inner_to_json(cert.divisor),
        "frame": frame_to_json(cert.subspace.frame),
        "invariance_residual": _num(cert.invariance_residual),
        "restriction_minimal_function": inner_to_json(
            cert.restriction_minimal_function
        ),
    }


def certificate_from_json(obj) -> ExtractionCertificate:
    if not isinstance(obj, dict):
        raise SerializationError("certificate must be an object")
    try:
        branch = obj["branch"]
        divisor = obj["divisor"]
        frame = frame_from_json(obj["frame"])
        residual = _num(obj["invariance_residual"])
        restriction = inner_from_json(obj["restriction_minimal_function"])
    except KeyError as e:
        raise SerializationError("certificate missing key %s" % e)
    subspace = Subspace(frame, frame.shape[0])
    try:
        return ExtractionCertificate(
            branch=branch,
            divisor=None if divisor is None else inner_from_json(divisor),
            subspace=subspace,
            invariance_residual=residual,
            restriction_minimal_function=restriction,
        )
    except ValueError as e:
        raise SerializationError(str(e))


def canonical_dumps(obj) -> str:
    """Serialize to the canonical byte form: sorted keys, compact separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SerializationError("invalid JSON: %s" % e)
