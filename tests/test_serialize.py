import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modelspace import (
    InnerFunction,
    blaschke_product,
    build_model_operator,
    canonical_dumps,
    certificate_from_json,
    certificate_to_json,
    complex_from_json,
    complex_to_json,
    extract_invariant_subspace,
    frame_from_json,
    frame_to_json,
    inner_from_json,
    inner_to_json,
    matrix_from_json,
    matrix_to_json,
    model_from_json,
    model_to_json,
    multiply,
    parse_json,
    singular_inner,
    vector_from_json,
    vector_to_json,
)
from modelspace.cli import main
from modelspace.errors import SerializationError
from modelspace.serialize import _BUNDLE_TOL


def test_complex_roundtrip_and_negative_zero():
    assert complex_to_json(1.5 - 2.25j) == [1.5, -2.25]
    assert complex_from_json([1.5, -2.25]) == 1.5 - 2.25j
    assert complex_to_json(complex(-0.0, -0.0)) == [0.0, 0.0]


def test_complex_rejects_malformed_input():
    for bad in ([1.0], [1.0, 2.0, 3.0], "1+2j", [True, 0.0], [float("inf"), 0.0]):
        with pytest.raises(SerializationError):
            complex_from_json(bad)


def test_inner_function_roundtrip():
    theta = multiply(
        blaschke_product([0.5, 0.5, -0.3 + 0.2j], gamma=1j),
        singular_inner([(1.0, 0.75), (4.0, 0.5)]),
    )
    again = inner_from_json(inner_to_json(theta))
    assert again == theta


def test_inner_function_missing_keys_default_to_one():
    theta = inner_from_json({})
    assert theta.is_constant
    assert theta.gamma == 1.0


def test_inner_function_malformed_atoms():
    with pytest.raises(SerializationError):
        inner_from_json({"blaschke": [{"zero": [0.5, 0.0]}]})
    with pytest.raises(SerializationError):
        inner_from_json({"singular": [{"angle": 0.0}]})
    with pytest.raises(SerializationError):
        inner_from_json([1, 2, 3])


def test_matrix_roundtrip():
    rng = np.random.default_rng(61)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    again = matrix_from_json(matrix_to_json(A))
    np.testing.assert_array_equal(again, A)


def test_matrix_shape_validation():
    with pytest.raises(SerializationError):
        matrix_to_json(np.zeros((2, 3)))
    with pytest.raises(SerializationError):
        matrix_from_json({"n": 2, "entries": [[[0.0, 0.0]]]})
    with pytest.raises(SerializationError):
        matrix_from_json({"n": "2", "entries": []})
    with pytest.raises(SerializationError):
        matrix_from_json({"entries": []})


def test_vector_and_frame_roundtrip():
    rng = np.random.default_rng(62)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    np.testing.assert_array_equal(vector_from_json(vector_to_json(v)), v)
    q, _ = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    np.testing.assert_array_equal(frame_from_json(frame_to_json(q)), q)


def test_model_roundtrip_rebuilds_basis():
    model = build_model_operator(blaschke_product([0.4, -0.2 + 0.1j]))
    blob = model_to_json(model)
    assert blob["basis_zeros"] == [[-0.2, 0.1], [0.4, 0.0]]
    again = model_from_json(blob)
    np.testing.assert_array_equal(again.matrix, model.matrix)
    assert again.symbol == model.symbol
    assert model_to_json(again) == blob


def test_model_size_consistency_is_checked():
    model = build_model_operator(blaschke_product([0.4, -0.2]))
    blob = model_to_json(model)
    blob["matrix"]["n"] = 3
    blob["matrix"]["entries"] = [[[0.0, 0.0]] * 3] * 3
    with pytest.raises(SerializationError):
        model_from_json(blob)


def test_model_bundle_with_an_edited_entry_is_refused():
    model = build_model_operator(blaschke_product([0.5, -0.3 + 0.2j, 0.7j]))
    blob = model_to_json(model)
    model_from_json(blob)
    blob["matrix"]["entries"][2][0][1] += 1e-9
    with pytest.raises(SerializationError, match="closed form"):
        model_from_json(blob)


# `model` output for this symbol from the earlier quadrature build
_QUADRATURE_BUNDLE = (
    '{"basis_zeros":[[-0.3,0.2],[0.0,0.7],[0.0,0.7],[0.5,0.0]],"matrix":{"entries":'
    '[[[-0.30000000000000004,0.20000000000000012],[0.0,0.0],[0.0,0.0],[0.0,0.0]],'
    '[[0.5542354401127042,-0.36949029340846967],[1.1102230246251565e-16,0.6999999999999996],'
    '[0.0,0.0],[0.0,0.0]],[[0.38796480807889294,-0.2586432053859288],'
    '[1.3530843112619095e-16,-0.5099999999999998],[-1.0408340855860843e-17,0.6999999999999998],'
    '[0.0,0.0]],[[0.3293335052683034,-0.2195556701788689],'
    '[1.0408340855860843e-17,-0.4329260906898542],[-3.469446951953614e-17,-0.6184658438426491],'
    '[0.5,-3.469446951953614e-17]]],"n":4},"symbol":{"blaschke":[{"multiplicity":1,'
    '"zero":[-0.3,0.2]},{"multiplicity":2,"zero":[0.0,0.7]},{"multiplicity":1,'
    '"zero":[0.5,0.0]}],"gamma":[1.0,0.0],"singular":[]}}\n'
)


def test_quadrature_built_bundles_still_load(tmp_path, capsys):
    model = model_from_json(parse_json(_QUADRATURE_BUNDLE))
    assert model.symbol.blaschke.zeros_with_multiplicity() == [-0.3 + 0.2j, 0.7j, 0.7j, 0.5]
    # closed-form bundles with one entry moved to either side of the limit
    rng = np.random.default_rng(41)
    for degree in (2, 8, 16):
        zeros = [0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                 for _ in range(degree)]
        closed = build_model_operator(blaschke_product(zeros))
        for factor, loads in ((0.5, True), (2.0, False)):
            blob = model_to_json(closed)
            blob["matrix"]["entries"][-1][0][0] += factor * _BUNDLE_TOL
            path = tmp_path / ("bundle_%d_%g.json" % (degree, factor))
            path.write_text(canonical_dumps(blob), encoding="utf-8")
            code = main(["extract", str(path), "--random"])
            err = capsys.readouterr().err
            if loads:
                moved = model_from_json(parse_json(path.read_text(encoding="utf-8")))
                assert np.max(np.abs(moved.matrix - closed.matrix)) > 0.0
                # loaded; degree 16 is then refused by extraction's own cap
                assert code != 1 and "input error" not in err
            else:
                with pytest.raises(SerializationError, match="closed form"):
                    model_from_json(parse_json(path.read_text(encoding="utf-8")))
                assert code == 1
                assert err.startswith("input error: model matrix deviates")


def test_certificate_roundtrip():
    model = build_model_operator(blaschke_product([0.0, 0.0, 0.0]))
    cert = extract_invariant_subspace(model.matrix, np.eye(3)[:, 0])
    again = certificate_from_json(certificate_to_json(cert))
    assert again.branch == cert.branch
    assert again.divisor == cert.divisor
    assert again.invariance_residual == cert.invariance_residual
    np.testing.assert_array_equal(again.subspace.frame, cert.subspace.frame)
    assert again.restriction_minimal_function == cert.restriction_minimal_function


def test_canonical_dumps_is_sorted_compact_and_newline_terminated():
    text = canonical_dumps({"b": 1, "a": [1.0, 2.0]})
    assert text == '{"a":[1.0,2.0],"b":1}\n'
    assert canonical_dumps({"a": 1}) == canonical_dumps({"a": 1})


def test_canonical_dumps_refuses_non_finite():
    with pytest.raises(ValueError):
        canonical_dumps({"a": float("nan")})


def test_canonical_serialization_is_byte_stable():
    theta = multiply(
        blaschke_product([0.5, -0.3 + 0.2j], gamma=np.exp(0.3j)),
        singular_inner([(2.0, 1.25)]),
    )
    first = canonical_dumps(inner_to_json(theta))
    second = canonical_dumps(inner_to_json(inner_from_json(json.loads(first))))
    assert first == second


def test_parse_json_maps_decode_errors():
    assert parse_json('{"a": 1}') == {"a": 1}
    with pytest.raises(SerializationError):
        parse_json("{not json")


# Per-entry reference codecs: the scalar-at-a-time encoders and decoders
# that the array codecs replace.  They must agree byte for byte and bit for
# bit on every input the reference handles.


def _ref_num(x):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SerializationError("expected a number, got %r" % (x,))
    x = float(x)
    if not np.isfinite(x):
        raise SerializationError("numbers must be finite, got %r" % x)
    return 0.0 if x == 0.0 else x


def _ref_complex_to_json(z):
    z = complex(z)
    return [_ref_num(z.real), _ref_num(z.imag)]


def _ref_complex_from_json(obj):
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise SerializationError("complex values are [real, imag] pairs, got %r" % (obj,))
    return complex(_ref_num(obj[0]), _ref_num(obj[1]))


def _ref_frame_to_json(frame):
    frame = np.asarray(frame, dtype=complex)
    return {
        "rows": int(frame.shape[0]),
        "cols": int(frame.shape[1]),
        "entries": [[_ref_complex_to_json(x) for x in row] for row in frame],
    }


def _ref_frame_from_json(obj):
    rows, cols = obj["rows"], obj["cols"]
    out = np.zeros((rows, cols), dtype=complex)
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows:
        raise SerializationError("frame entries must hold %r rows" % rows)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise SerializationError("frame row %d must hold %r entries" % (i, cols))
        for j, cell in enumerate(row):
            out[i, j] = _ref_complex_from_json(cell)
    return out


def _ref_vector_to_json(v):
    return [_ref_complex_to_json(x) for x in np.asarray(v, dtype=complex).reshape(-1)]


def _ref_vector_from_json(obj):
    return np.array([_ref_complex_from_json(x) for x in obj], dtype=complex)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, 0.1, -2.5]
_finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
# JSON numbers as parse_json returns them: floats, and integers, some past 2**53
_json_numbers = _finite_floats | st.integers(-(2**70), 2**70)


@st.composite
def _complex_frames(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    parts = draw(st.lists(_finite_floats, min_size=2 * rows * cols, max_size=2 * rows * cols))
    A = np.array(parts, dtype=float).view(complex)
    return A.reshape(rows, cols)


@st.composite
def _frame_objects(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entries = [[[draw(_json_numbers), draw(_json_numbers)] for _ in range(cols)]
               for _ in range(rows)]
    return {"rows": rows, "cols": cols, "entries": entries}


@settings(deadline=None)
@given(A=_complex_frames())
@example(A=np.zeros((0, 3), dtype=complex))
@example(A=np.zeros((3, 0), dtype=complex))
@example(A=np.array([[complex(-0.0, -0.0), complex(5e-324, -1e308)]]))
def test_array_encoders_match_the_per_entry_reference(A):
    frame = frame_to_json(A)
    assert frame == _ref_frame_to_json(A)
    assert canonical_dumps(frame) == canonical_dumps(_ref_frame_to_json(A))
    v = A.reshape(-1)
    assert canonical_dumps(vector_to_json(v)) == canonical_dumps(_ref_vector_to_json(v))
    if A.shape[0] == A.shape[1]:
        ref = {"n": A.shape[0], "entries": _ref_frame_to_json(A)["entries"]}
        assert canonical_dumps(matrix_to_json(A)) == canonical_dumps(ref)


@settings(deadline=None)
@given(obj=_frame_objects())
@example(obj={"rows": 0, "cols": 3, "entries": []})
@example(obj={"rows": 2, "cols": 0, "entries": [[], []]})
@example(obj={"rows": 1, "cols": 2, "entries": [[[-0.0, 0], [5e-324, -1e308]]]})
@example(obj={"rows": 1, "cols": 2, "entries": [[[-0.0, 0.5], [-5e-324, -0.0]]]})
def test_array_decoders_match_the_per_entry_reference(obj):
    ref = _ref_frame_from_json(obj)
    assert _same_bits(frame_from_json(obj), ref)
    cells = [cell for row in obj["entries"] for cell in row]
    assert _same_bits(vector_from_json(cells), _ref_vector_from_json(cells))
    if obj["rows"] == obj["cols"]:
        square = {"n": obj["rows"], "entries": obj["entries"]}
        assert _same_bits(matrix_from_json(square), ref)
    # decoding the encoder's output gives back the same bits
    assert _same_bits(frame_from_json(parse_json(canonical_dumps(frame_to_json(ref)))), ref)


_BAD_NUMBERS = [True, False, "1.0", None, [1.0], {"re": 1.0}]


@settings(deadline=None)
@given(obj=_frame_objects().filter(lambda o: o["rows"] * o["cols"] > 0), data=st.data())
def test_array_decoders_reject_what_the_reference_rejects(obj, data):
    rows, cols = obj["rows"], obj["cols"]
    i, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
    fault = data.draw(st.sampled_from(["number", "pair", "row", "nonfinite"]))
    if fault == "number":
        obj["entries"][i][j][data.draw(st.integers(0, 1))] = data.draw(
            st.sampled_from(_BAD_NUMBERS))
    elif fault == "pair":
        obj["entries"][i][j] = data.draw(st.sampled_from(
            [[1.0], [1.0, 2.0, 3.0], [], "1+2j", 1.0, None]))
    elif fault == "row":
        obj["entries"][i] = obj["entries"][i][:-1]
    else:
        bad = data.draw(st.sampled_from(["NaN", "Infinity", "-Infinity"]))
        obj["entries"][i][j][1] = parse_json(bad)
    with pytest.raises(SerializationError) as ref:
        _ref_frame_from_json(obj)
    with pytest.raises(SerializationError) as new:
        frame_from_json(obj)
    assert str(new.value) == str(ref.value)
    if fault != "row":
        cells = [cell for row in obj["entries"] for cell in row]
        with pytest.raises(SerializationError):
            vector_from_json(cells)


@pytest.mark.parametrize("text", ["[[NaN, 0.0]]", "[[0.0, Infinity]]", "[[1.0, 2.0], [-Infinity, 0]]"])
def test_non_finite_numbers_are_refused_both_ways(text):
    cells = parse_json(text)
    with pytest.raises(SerializationError, match="finite"):
        vector_from_json(cells)
    with pytest.raises(SerializationError, match="finite"):
        frame_from_json({"rows": 1, "cols": len(cells), "entries": [cells]})
    A = np.array([[complex(*cell) for cell in cells]])
    with pytest.raises(SerializationError) as ref:
        _ref_frame_to_json(A)
    for encode in (frame_to_json, vector_to_json):
        with pytest.raises(SerializationError) as new:
            encode(A)
        assert str(new.value) == str(ref.value)
    with pytest.raises(SerializationError, match="finite"):
        matrix_to_json(A[:, -1:])


def test_decoded_arrays_do_not_alias_their_input():
    obj = {"n": 1, "entries": [[[0.5, -0.25]]]}
    A = matrix_from_json(obj)
    A[0, 0] = 0.0
    assert obj["entries"] == [[[0.5, -0.25]]]
    assert matrix_from_json(obj)[0, 0] == 0.5 - 0.25j


# Strict number decoding: every malformed number is an input error.

_HUGE = "1" + "0" * 399  # a JSON integer with no double


def test_an_integer_too_large_for_a_double_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"blaschke": [{"zero": [%s, 0.0], "multiplicity": 1}]}' % _HUGE,
                    encoding="utf-8")
    assert main(["inner", "divisors", str(path)]) == 1
    assert capsys.readouterr().err.startswith("input error:")
    for decode, obj in (
        (complex_from_json, parse_json("[%s, 0]" % _HUGE)),
        (vector_from_json, parse_json("[[0.5, 0], [%s, 0]]" % _HUGE)),
        (matrix_from_json, parse_json('{"n": 1, "entries": [[[%s, 0]]]}' % _HUGE)),
    ):
        with pytest.raises(SerializationError, match="too large"):
            decode(obj)


@pytest.mark.parametrize("text", ["2.7", "true", '"2"', "1e400", "0", "-1", "null", "[2]"])
def test_multiplicity_must_be_a_positive_json_integer(text):
    obj = parse_json('{"blaschke": [{"zero": [0.5, 0.0], "multiplicity": %s}]}' % text)
    with pytest.raises(SerializationError, match="multiplicity"):
        inner_from_json(obj)


def test_multiplicity_accepts_json_integers():
    obj = parse_json('{"blaschke": [{"zero": [0.5, 0.0], "multiplicity": 3}]}')
    assert inner_from_json(obj).blaschke.atoms == ((0.5 + 0j, 3),)


def test_array_sizes_reject_bools():
    with pytest.raises(SerializationError, match="size"):
        matrix_from_json({"n": True, "entries": [[[1.0, 0.0]]]})
    with pytest.raises(SerializationError, match="shape"):
        frame_from_json({"rows": True, "cols": 1, "entries": [[[1.0, 0.0]]]})
    with pytest.raises(SerializationError, match="shape"):
        frame_from_json({"rows": 1, "cols": True, "entries": [[[1.0, 0.0]]]})
    with pytest.raises(SerializationError, match="shape"):
        frame_from_json({"rows": False, "cols": 0, "entries": []})


def test_frame_shape_is_checked_against_its_entries_before_allocation():
    with pytest.raises(SerializationError, match="rows"):
        frame_from_json({"rows": 10**7, "cols": 10**7, "entries": []})


@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100000], ids=["digits", "depth"])
def test_parse_json_maps_digit_and_depth_limits(text):
    with pytest.raises(SerializationError, match="invalid JSON"):
        parse_json(text)
