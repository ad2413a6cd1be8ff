"""The package names the benchmark's span wrappers and runner read.

``bench/spans.py`` runs on the standard library alone, so it is loaded
here from its file, unchanged; its traced mode breaks if a name it
rebinds or reads goes missing.
"""

import importlib
import importlib.util
from pathlib import Path

import modelspace
from modelspace import blaschke_product, build_model_operator

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for module_name, attr, _, _ in _load_spans().TRACED:
        module = importlib.import_module("modelspace." + module_name)
        assert callable(getattr(module, attr)), (module_name, attr)


def test_sampler_node_counts_feed_the_layer_metrics():
    counts = list(modelspace.CircleSampler().node_counts())
    assert counts and all(isinstance(n, int) and n > 0 for n in counts)
    layers = _load_spans().layer_metrics([], 1, counts)
    assert layers["model.quadrature_nodes"] == 0.0


def test_traced_build_records_zero_samples():
    spans = _load_spans()
    model = build_model_operator(blaschke_product([0.5, -0.3j]))
    assert model.samples_used == 0
    tracer = spans.Tracer()
    with tracer.installed():
        from modelspace import model as model_module

        model_module.build_model_operator(blaschke_product([0.5, -0.3j]))
    assert [(s[0], s[5]) for s in tracer.spans] == [("model.build", (2, 0))]
    assert model_module.build_model_operator is build_model_operator
