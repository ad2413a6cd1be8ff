import json

import numpy as np
import pytest

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
    quadrature_model_operator,
    singular_inner,
    vector_from_json,
    vector_to_json,
)
from modelspace.errors import SerializationError


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
    again = model_from_json(model_to_json(model))
    np.testing.assert_array_equal(again.matrix, model.matrix)
    assert again.basis.zeros == model.basis.zeros
    assert again.symbol == model.symbol


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


def test_quadrature_built_bundles_still_load():
    model = model_from_json(parse_json(_QUADRATURE_BUNDLE))
    assert model.basis.zeros == (-0.3 + 0.2j, 0.7j, 0.7j, 0.5)
    rng = np.random.default_rng(41)
    for degree in (2, 8, 16):
        zeros = [0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                 for _ in range(degree)]
        quadrature = quadrature_model_operator(blaschke_product(zeros))
        blob = parse_json(canonical_dumps(model_to_json(quadrature)))
        np.testing.assert_array_equal(model_from_json(blob).matrix, quadrature.matrix)


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
