"""The benchmark's tracer wraps lab functions by name from outside; every
name it relies on must still resolve, or a refactor silently drops spans."""

import importlib
import importlib.util
import inspect
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function(dotted: str):
    short, attr = dotted.split(".")
    module = importlib.import_module(f"drail_lab.{short}")
    return module, getattr(module, attr, None)


def test_traced_function_names_resolve(tracing):
    names = [n for names in tracing.STAGES.values() for n in names]
    names += list(tracing.ROWS_ARG) + list(tracing.CAPTURE)
    names += [f"{short}.{attr}" for short, attrs in tracing.PRIVATE.items() for attr in attrs]
    names.append("trainer.train")  # the parent span of the stages
    for dotted in names:
        module, fn = _function(dotted)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, dotted


def test_rows_arg_positions_name_the_row_argument(tracing):
    for dotted, position in tracing.ROWS_ARG.items():
        _, fn = _function(dotted)
        assert len(inspect.signature(fn).parameters) > position, dotted


def test_traced_methods_sit_in_their_class(tracing):
    for short, classes in tracing.METHODS.items():
        module = importlib.import_module(f"drail_lab.{short}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for method in methods:
                assert inspect.isfunction(vars(cls).get(method)), f"{short}.{cls_name}.{method}"
