"""The benchmark's tracer wraps lab functions by name from outside; every
name it relies on must still resolve, or a refactor silently drops spans."""

import importlib
import importlib.util
import inspect
import os

import numpy as np
import pytest

from drail_lab import envs, trainer

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


@pytest.fixture(scope="module")
def sine_expert(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "sine.drld")
    envs.dataset_save(envs.sine_expert_sample(envs.SineWorldSpec(), 200, np.random.default_rng(0)), path)
    return path


@pytest.mark.parametrize("kind", ["drail", "gail", "diffail"])
def test_traced_train_sees_every_stage(tracing, sine_expert, kind):
    # the stage split counts spans that are direct children of trainer.train;
    # a traced function between them (or an update reached through a table
    # built at import) would move the time into trainer.other_s unnoticed
    cfg = trainer.config_from_dict({
        "method": kind, "env": "sine", "expert_path": sine_expert, "total_env_steps": 64, "seed": 2,
        "disc_hidden": [8], "disc_batch": 16, "schedule_steps": 8, "policy_hidden": [8],
        "value_hidden": [8], "eval_episodes": 4,
        "ppo": {"rollout_steps": 32, "minibatch_size": 16, "epochs": 1},
    })
    with tracing.Tracer() as tracer:
        trainer.train(cfg)
    spans = tracing.SpanTable(tracer)
    in_train = spans.under(("trainer.train",))
    update = f"discriminators.{kind}_update"
    # two iterations of 32 rollout rows in minibatches of 16
    assert spans.count(update, where=in_train) == spans.count(update) == 4
    stages = tracing.stage_times(spans)
    for stage in ("disc_update", "label", "rollout", "ppo"):
        assert stages[stage] > 0.0, stage
