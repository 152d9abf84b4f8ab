"""Span tracer that wraps the lab's public functions from outside.

`Tracer.install()` replaces every public module-level function of the
seven lab modules (and a few public methods) with a wrapper that records
one span per call: name, start, end, parent span and, for the functions
whose cost is reported per row, the number of rows. Spans stay in flat
arrays in memory; `uninstall()` puts the original functions back.
Nothing inside the lab is edited, so spans sit at the module boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("cli", "trainer", "envs", "policy_opt", "discriminators", "diffusion", "nn_core")

# public methods traced besides module-level functions: env steps and
# resets, and the parameter-snapshot copy that PPO makes per minibatch
METHODS = {
    "envs": {"PointReach": ("step", "reset"), "SineWorld": ("step", "reset")},
    "nn_core": {"ParamStore": ("with_values",)},
}

# private helpers traced because a per-layer figure needs them
PRIVATE = {"cli": ("_write_json",)}


def _leading_rows(x) -> int:
    shape = np.shape(x)
    return int(shape[0]) if len(shape) == 2 else 1


# functions whose cost is reported per row: which positional argument
# holds the rows
ROWS_ARG = {
    "nn_core.forward_batch": 2,
    "nn_core.backward_batch": 2,
    "diffusion.batched_losses": 1,
    "discriminators.reward_for": 1,
    "discriminators.discriminator_probs": 1,
}

# calls whose first inputs and outputs are kept for an independent check
CAPTURE = ("policy_opt.compute_gae",)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.rows = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.captured: dict[str, tuple] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span opened by the benchmark itself."""
        idx = self._open(self._id(name), 0)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int, rows: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.rows.append(rows)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        rows_arg = ROWS_ARG.get(name)
        rows_kw = list(inspect.signature(fn).parameters)[rows_arg] if rows_arg is not None else None
        capture = name in CAPTURE
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = 0
            if rows_arg is not None:
                rows = _leading_rows(args[rows_arg] if len(args) > rows_arg else kwargs[rows_kw])
            idx = tracer._open(nid, rows)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if capture and name not in tracer.captured:
                tracer.captured[name] = (
                    tuple(np.array(a, copy=True) if isinstance(a, np.ndarray) else a for a in args),
                    tuple(np.array(r, copy=True) for r in result),
                )
            return result

        return traced

    def install(self) -> None:
        mods = {short: importlib.import_module(f"drail_lab.{short}") for short in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                public = not attr.startswith("_") or attr in PRIVATE.get(short, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        # rebind every name bound to a wrapped function, including the
        # `from .x import f` copies in other modules
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patch(mod, attr, wrapped[id(obj)])
        for short, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[short], cls_name)
                for m in methods:
                    self._patch(cls, m, self._wrap(f"{short}.{cls_name}.{m}", vars(cls)[m]))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


class SpanTable:
    """Numpy view of the recorded spans with inclusive and self times."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        self.nid = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.rows = np.frombuffer(tracer.rows, dtype=np.int64).copy()
        self.start = np.frombuffer(tracer.start, dtype=np.float64).copy()
        self.dur = np.frombuffer(tracer.end, dtype=np.float64) - self.start
        has_parent = self.parent >= 0
        child = np.zeros_like(self.dur)
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        # a layer's self time: its span minus what its child spans cover
        self.self_time = self.dur - child

    def __len__(self) -> int:
        return self.nid.size

    def save(self, path: str) -> None:
        """Write the spans out, one array per field, for later analysis."""
        np.savez_compressed(path, names=np.array(self.names), name_id=self.nid, parent=self.parent,
                            rows=self.rows, start=self.start, end=self.start + self.dur)

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.nid, ids)

    def under(self, parent_names: tuple[str, ...]) -> np.ndarray:
        """Spans whose direct parent is one of the named spans."""
        pm = self.mask(*parent_names)
        has_parent = self.parent >= 0
        out = np.zeros(len(self), dtype=bool)
        out[has_parent] = pm[self.parent[has_parent]]
        return out

    def count(self, *names: str, where: np.ndarray | None = None) -> int:
        m = self.mask(*names) if where is None else self.mask(*names) & where
        return int(np.sum(m))

    def total(self, *names: str, where: np.ndarray | None = None) -> float:
        m = self.mask(*names) if where is None else self.mask(*names) & where
        return float(np.sum(self.dur[m]))

    def mean_us(self, *names: str) -> float:
        m = self.mask(*names)
        return float(np.mean(self.dur[m]) * 1e6) if np.any(m) else 0.0


# --- per-layer figures ----------------------------------------------------

# the train loop's stages, by the spans that are direct children of
# trainer.train; every other child and the loop's own self time is "other"
STAGES = {
    "rollout": ("trainer.collect_rollout",),
    "disc_update": ("discriminators.drail_update", "discriminators.diffail_update",
                    "discriminators.gail_update"),
    "label": ("trainer.label_rewards",),
    "gae": ("policy_opt.compute_gae", "policy_opt.normalize_advantages"),
    "ppo": ("policy_opt.ppo_update",),
    "eval": ("trainer.evaluate",),
}

# rows per call, as the traffic has them: single rows (rollout and eval),
# PPO minibatches, discriminator minibatches, and large-batch fits/maps
BUCKETS = (("n1", 1, 1), ("n2-64", 2, 64), ("n65-1024", 65, 1024), ("n1025up", 1025, None))

KINDS = ("drail", "diffail", "gail")


def stage_times(t: SpanTable) -> dict[str, float]:
    in_train = t.under(("trainer.train",))
    out = {stage: t.total(*names, where=in_train) for stage, names in STAGES.items()}
    staged = t.mask(*(n for names in STAGES.values() for n in names)) & in_train
    train = t.mask("trainer.train")
    out["other"] = float(np.sum(t.self_time[train]) + np.sum(t.dur[in_train & ~staged]))
    return out


def _per_row_us(t: SpanTable, name: str, lo: int = 1, hi: int | None = None) -> tuple[int, float]:
    m = t.mask(name) & (t.rows >= lo)
    if hi is not None:
        m &= t.rows <= hi
    rows = int(np.sum(t.rows[m]))
    return int(np.sum(m)), (float(np.sum(t.dur[m])) * 1e6 / rows if rows else 0.0)


def layer_metrics(t: SpanTable) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced round, as {name: (value, unit)}.
    Per-call times are inclusive (a call's cost as its caller sees it);
    the train stages use self time so that they add up."""
    stages = stage_times(t)
    in_train = t.under(("trainer.train",))
    in_map = t.under(("cli.cmd_reward_map",))
    in_cmd = t.under(("cli.cmd_train", "cli.cmd_gen_expert"))
    steps = ("envs.PointReach.step", "envs.SineWorld.step")
    m = {
        "trainer.rollout_s": (stages["rollout"], "s"),
        "trainer.eval_s": (stages["eval"], "s"),
        "trainer.eval_calls": (t.count("trainer.evaluate", where=in_train), "count"),
        "trainer.ppo_s": (stages["ppo"], "s"),
        "trainer.disc_update_s": (stages["disc_update"], "s"),
        "trainer.label_s": (stages["label"], "s"),
        "trainer.gae_s": (stages["gae"], "s"),
        "trainer.other_s": (stages["other"], "s"),
        "trainer.iterations": (t.count("trainer.collect_rollout", where=in_train), "count"),
        "envs.step_calls": (t.count(*steps), "count"),
        "envs.step_us": (t.mean_us(*steps), "us"),
        "envs.reset_calls": (t.count("envs.PointReach.reset", "envs.SineWorld.reset"), "count"),
        "envs.expert_gen_s": (t.total("envs.gen_expert_dataset", "envs.sine_expert_sample"), "s"),
        "policy_opt.sample_us": (t.mean_us("policy_opt.policy_sample"), "us"),
        "policy_opt.value_single_us": (t.mean_us("policy_opt.value_single"), "us"),
        "policy_opt.adam_calls": (t.count("nn_core.adam_step", where=t.under(("policy_opt.ppo_update",))), "count"),
        "nn_core.adam_us": (t.mean_us("nn_core.adam_step"), "us"),
        "nn_core.with_values_calls": (t.count("nn_core.ParamStore.with_values"), "count"),
        "nn_core.with_values_us": (t.mean_us("nn_core.ParamStore.with_values"), "us"),
        "diffusion.rows": (int(np.sum(t.rows[t.mask("diffusion.batched_losses")])), "count"),
        "diffusion.batched_losses_us_per_row": (_per_row_us(t, "diffusion.batched_losses")[1], "us"),
        "discriminators.reward_for_us_per_row": (_per_row_us(t, "discriminators.reward_for")[1], "us"),
        "discriminators.probs_us_per_cell": (_per_row_us(t, "discriminators.discriminator_probs")[1], "us"),
        "cli.reward_map.load_s": (t.total("discriminators.load_discriminator", where=in_map), "s"),
        "cli.reward_map.csv_s": (t.total("trainer.grid_to_csv", where=in_map), "s"),
        "cli.write_s": (t.total("policy_opt.save_policy", "discriminators.save_discriminator",
                                "envs.dataset_save", "cli._write_json", where=in_cmd), "s"),
    }
    for kind in KINDS:
        m[f"discriminators.update_us.{kind}"] = (t.mean_us(f"discriminators.{kind}_update"), "us")
    for fn, short in (("nn_core.forward_batch", "forward"), ("nn_core.backward_batch", "backward")):
        for label, lo, hi in BUCKETS:
            calls, us = _per_row_us(t, fn, lo, hi)
            if short == "backward" and label == "n1":
                continue  # the lab makes no single-row backward call
            m[f"nn_core.{short}_calls.{label}"] = (calls, "count")
            m[f"nn_core.{short}_us_per_row.{label}"] = (us, "us")
    return m


def check_accounting(checks, t: SpanTable, command_walls: list[float]) -> None:
    """The stage times and trainer.other_s add up to the traced train loop,
    which covers nearly all of the train commands' wall time."""
    stages = stage_times(t)
    loop = t.total("trainer.train")
    walls = sum(command_walls)
    ok = (abs(sum(stages.values()) - loop) <= 1e-9 * loop
          and bool(np.all(t.self_time >= -1e-9)) and 0.9 * walls <= loop <= walls)
    checks.add("train stages add up to the train wall time", ok,
               f"stages + other {sum(stages.values()):.4f} s, loop {loop:.4f} s, "
               f"train commands {walls:.4f} s")
