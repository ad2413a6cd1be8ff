"""Canonical JSON encoding for every value the package exchanges.

Complex numbers are [real, imag] pairs, atoms are emitted in their
canonical order, keys are sorted, and separators are compact, so equal
values always serialize to identical bytes.  Negative zero is normalized
away at construction time by the value types themselves, and by the array
codecs here.

Arrays are encoded and decoded a whole array at a time.  numpy and the
model and extraction modules are imported only by the functions that need
them, so the inner-function lattice serializes on the standard library.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import TYPE_CHECKING

from .errors import SerializationError
from .inner import AtomicSingularMeasure, BlaschkeFunction, InnerFunction

if TYPE_CHECKING:
    import numpy as np

    from .extraction import ExtractionCertificate
    from .model import ModelOperator

# Largest entrywise deviation a model bundle's matrix may show from the
# closed form of its symbol; entries are bounded by 1, so this is relative.
_BUNDLE_TOL = 1e-12
# the one encoder behind canonical_dumps
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _num(x) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SerializationError("expected a number, got %r" % (x,))
    try:
        x = float(x)
    except OverflowError:
        raise SerializationError("integer too large for a double")
    if not math.isfinite(x):
        raise SerializationError("numbers must be finite, got %r" % x)
    return 0.0 if x == 0.0 else x


def _is_count(x) -> bool:
    """Whether x is a JSON integer >= 0 (bools are not integers here)."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _pair(obj) -> tuple:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise SerializationError("complex values are [real, imag] pairs, got %r" % (obj,))
    return _num(obj[0]), _num(obj[1])


def complex_to_json(z: complex) -> list:
    z = complex(z)
    return [_num(z.real), _num(z.imag)]


def complex_from_json(obj) -> complex:
    return complex(*_pair(obj))


def _finite(parts: np.ndarray) -> np.ndarray:
    """parts unchanged, or the error for its first non-finite number."""
    import numpy as np

    finite = np.isfinite(parts)
    if not finite.all():
        raise SerializationError("numbers must be finite, got %r" % float(parts[~finite][0]))
    return parts


def _pairs_to_json(A: np.ndarray) -> list:
    """Nested [real, imag] pairs of every entry of a complex array."""
    import numpy as np

    # adding 0.0 turns -0.0 into 0.0 and leaves every other value's bits alone
    return _finite(np.stack([A.real, A.imag], -1) + 0.0).tolist()


def _pairs_from_json(cells: list, shape: tuple) -> np.ndarray:
    """Complex array of the given shape from a flat list of [real, imag] pairs."""
    import numpy as np

    numbers = None
    if set(map(type, cells)) <= {list} and set(map(len, cells)) <= {2}:
        numbers = list(chain.from_iterable(cells))
    if numbers is None or not set(map(type, numbers)) <= {float}:
        # integers, tuples or a malformed pair: convert pair by pair, which
        # raises on the first offender as complex_from_json does
        numbers = [x for cell in cells for x in _pair(cell)]
    parts = _finite(np.array(numbers, dtype=float) + 0.0)
    return parts.view(complex).reshape(shape)


def _rows_from_json(entries, rows: int, cols: int, what: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != rows:
        raise SerializationError("%s entries must hold %r rows" % (what, rows))
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise SerializationError("%s row %d must hold %r entries" % (what, i, cols))
    return _pairs_from_json(list(chain.from_iterable(entries)), (rows, cols))


def _multiplicity(x) -> int:
    if not _is_count(x) or x < 1:
        raise SerializationError("multiplicity must be an integer >= 1, got %r" % (x,))
    return x


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
            (complex_from_json(atom["zero"]), _multiplicity(atom["multiplicity"]))
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
    import numpy as np

    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SerializationError("matrix serialization needs a square array")
    return {"n": int(A.shape[0]), "entries": _pairs_to_json(A)}


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise SerializationError("matrix object needs keys 'n' and 'entries'")
    n = obj["n"]
    if not _is_count(n):
        raise SerializationError("matrix size must be a nonnegative integer")
    return _rows_from_json(obj["entries"], n, n, "matrix")


def vector_to_json(v: np.ndarray) -> list:
    import numpy as np

    return _pairs_to_json(np.asarray(v, dtype=complex).reshape(-1))


def vector_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list):
        raise SerializationError("vector must be a list of [real, imag] pairs")
    return _pairs_from_json(obj, (len(obj),))


def frame_to_json(frame: np.ndarray) -> dict:
    import numpy as np

    frame = np.asarray(frame, dtype=complex)
    return {
        "rows": int(frame.shape[0]),
        "cols": int(frame.shape[1]),
        "entries": _pairs_to_json(frame),
    }


def frame_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or not {"rows", "cols", "entries"} <= set(obj):
        raise SerializationError("frame object needs keys 'rows', 'cols', 'entries'")
    rows, cols = obj["rows"], obj["cols"]
    if not _is_count(rows) or not _is_count(cols):
        raise SerializationError("frame shape must be nonnegative integers")
    return _rows_from_json(obj["entries"], rows, cols, "frame")


def model_to_json(model: ModelOperator) -> dict:
    return {
        "symbol": inner_to_json(model.symbol),
        "matrix": matrix_to_json(model.matrix),
        "basis_zeros": [
            complex_to_json(z) for z in model.symbol.blaschke.zeros_with_multiplicity()
        ],
    }


def model_from_json(obj) -> ModelOperator:
    import numpy as np

    from .model import ModelOperator, compressed_shift_matrix

    if not isinstance(obj, dict) or "symbol" not in obj or "matrix" not in obj:
        raise SerializationError("model bundle needs keys 'symbol' and 'matrix'")
    symbol = inner_from_json(obj["symbol"])
    matrix = matrix_from_json(obj["matrix"])
    zeros = symbol.blaschke.zeros_with_multiplicity()
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
    return ModelOperator(symbol=symbol, matrix=matrix)


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
    from .extraction import ExtractionCertificate, Subspace

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
    return _ENCODER.encode(obj) + "\n"


def parse_json(text: str):
    # besides JSONDecodeError, json.loads raises ValueError for an integer
    # past the interpreter's digit limit and RecursionError for deep nesting
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise SerializationError("invalid JSON: %s" % e)
