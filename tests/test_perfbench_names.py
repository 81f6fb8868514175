"""The benchmark tracer names functions of the package by string; each name
must still resolve, so that deleting or renaming a function cannot break
``perfbench/run.py --trace 1`` unnoticed.  The tracer is read, not run."""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def layers(tracer):
    """Layer name -> module, named as the tracer names them."""
    return {m.__name__.rpartition(".")[2].lstrip("_"): m for m in tracer.package_modules()}


def resolve(layers, name: str):
    layer, _, qual = name.partition(".")
    obj = layers[layer]
    for attr in qual.split("."):
        obj = getattr(obj, attr)
    return obj


def test_every_layer_function_resolves(tracer, layers):
    for layer, functions in tracer.LAYERS.items():
        for qual in functions:
            assert callable(resolve(layers, f"{layer}.{qual}")), f"{layer}.{qual}"


def test_coverage_names_are_wrapped_functions(tracer, layers):
    wrapped = {f"{layer}.{qual}" for layer, quals in tracer.LAYERS.items() for qual in quals}
    for table in (tracer.MUST_CALL, tracer.MUST_NOT_CALL):
        for workload, names in table.items():
            for name in names:
                assert name in wrapped, (workload, name)
                assert callable(resolve(layers, name)), (workload, name)


def test_constructor_counts_resolve(tracer, layers):
    for counter, (layer, cls_name, attr) in tracer.CONSTRUCTOR_COUNTS.items():
        cls = getattr(layers[layer], cls_name)
        assert callable(cls.__dict__[attr]), counter
