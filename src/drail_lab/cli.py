"""Command-line front end: dataset generation, training runs, evaluation,
reward-landscape export, and artifact inspection.

Every command resolves all randomness from explicit seeds, so identical
invocations produce identical artifacts. Exit codes: 0 success, 2 usage,
validation or out-of-memory error, 3 numerical abort during training.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import envs, nn_core
from .discriminators import load_discriminator, save_discriminator
from .envs import ENV_NAMES, SineWorldSpec, dataset_save, gen_expert_dataset, sine_expert_sample, sine_grid
from .errors import NumericalAbort
from .fileio import atomic_write
from .policy_opt import load_policy, save_policy
from .trainer import config_from_dict, config_to_dict, evaluate, grid_to_csv, reward_map, train

FORMAT_VERSION = "drail-lab/1"

EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _write_json(path: str, data: dict) -> None:
    atomic_write(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _manifest(kind: str, seed: int, config: dict, artifacts: dict) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "seed": seed,
        "config": config,
        "artifacts": artifacts,
    }


def _check_noise_scale(value: float) -> None:
    if not 0.0 <= value <= envs._MAX_NOISE_SCALE:  # NaN fails too
        raise ValueError(f"--noise-scale must be >= 0 and <= {envs._MAX_NOISE_SCALE:g}, got {value}")


# --- gen-expert ---------------------------------------------------------------


def cmd_gen_expert(args: argparse.Namespace) -> int:
    if args.env not in ENV_NAMES:
        raise ValueError(f"unknown env {args.env!r}; valid envs: {', '.join(ENV_NAMES)}")
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    _check_noise_scale(args.noise_scale)
    rng = np.random.default_rng(args.seed)
    if args.env == "sine":
        dataset = sine_expert_sample(SineWorldSpec(), args.n, rng)
    else:
        try:
            dataset = gen_expert_dataset(args.n, rng, noise_scale=args.noise_scale,
                                         horizon=args.horizon, wall=args.wall)
        except RuntimeError as e:  # the expert cannot reach the goal under these settings
            raise ValueError(str(e)) from None
    dataset_save(dataset, args.out)
    config = {
        "env": args.env,
        "n": args.n,
        "noise_scale": args.noise_scale,
        "horizon": args.horizon,
        "wall": args.wall,
    }
    _write_json(args.out + ".manifest.json",
                _manifest("gen-expert", args.seed, config, {"dataset": args.out}))
    print(f"wrote {len(dataset)} transitions ({dataset.num_trajectories} trajectories) to {args.out}")
    return 0


# --- train ----------------------------------------------------------------------


def _parse_override(text: str) -> tuple[list[str], object]:
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ValueError(f"override {text!r} must look like key=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def _apply_overrides(config: dict, overrides: list[str]) -> dict:
    for text in overrides:
        path, value = _parse_override(text)
        node = config
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"override {text!r} descends into non-mapping key {part!r}")
        node[path[-1]] = value
    return config


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    # a manifest wraps the resolved config; accept either form
    if "config" in data and "format_version" in data:
        inner = data["config"]
        if not isinstance(inner, dict):
            raise ValueError("manifest 'config' entry must be a JSON object")
        return inner
    return data


def cmd_train(args: argparse.Namespace) -> int:
    config_dict = _apply_overrides(_load_config_file(args.config), args.set or [])
    cfg = config_from_dict(config_dict)
    if not cfg.expert_path:
        raise ValueError("config key 'expert_path' is required")
    if not os.path.isfile(cfg.expert_path):
        raise ValueError(f"expert dataset not found: {cfg.expert_path}")

    result = train(cfg)
    os.makedirs(args.out, exist_ok=True)

    metrics_path = os.path.join(args.out, "metrics.csv")
    atomic_write(metrics_path, result.csv_text)
    policy_path = os.path.join(args.out, "policy.drlp")
    save_policy(policy_path, result.policy)
    artifacts = {"metrics": metrics_path, "policy": policy_path}
    if result.discriminator is not None:
        disc_path = os.path.join(args.out, "discriminator.drlp")
        save_discriminator(disc_path, result.discriminator)
        artifacts["discriminator"] = disc_path
    if result.final_eval is not None:
        eval_path = os.path.join(args.out, "final_eval.json")
        _write_json(eval_path, dataclasses.asdict(result.final_eval))
        artifacts["final_eval"] = eval_path
    # the loop's counts ride along; a rerun reads only the config
    _write_json(os.path.join(args.out, "manifest.json"),
                dict(_manifest("train", cfg.seed, config_to_dict(cfg), artifacts), counters=result.counters))

    last = result.metrics[-1]
    success = "n/a" if last["success_rate"] is None else f"{last['success_rate']:.3f}"
    print(f"run complete: {last['env_steps']} env steps, {last['iter']} iterations, "
          f"final success rate {success}; artifacts in {args.out}")
    return 0


# --- eval -----------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    _check_noise_scale(args.noise_scale)
    policy = load_policy(args.checkpoint)
    try:
        report = evaluate(
            policy,
            args.env,
            args.episodes,
            args.seed,
            noise_scale=args.noise_scale,
            horizon=args.horizon,
            wall=args.wall,
            stochastic=args.stochastic,
            n_seeds=args.n_seeds,
        )
    except NumericalAbort as e:  # no training runs here: the values come from the file
        raise ValueError(f"policy {args.checkpoint}: {e}") from None
    print(json.dumps(dataclasses.asdict(report), sort_keys=True))
    return 0


# --- reward-map -------------------------------------------------------------------


def _parse_resolution(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"resolution {text!r} must look like 101x121")
    s_res, a_res = (int(p) for p in parts)
    if s_res < 2 or a_res < 2:
        raise ValueError("resolution axes must be >= 2")
    return s_res, a_res


def cmd_reward_map(args: argparse.Namespace) -> int:
    disc = load_discriminator(args.checkpoint)
    s_res, a_res = _parse_resolution(args.resolution)
    grid = sine_grid(s_res, a_res)
    rng = np.random.default_rng(args.seed)
    result = reward_map(disc, grid, rng, samples_per_cell=args.samples)
    atomic_write(args.out, grid_to_csv(result))
    print(f"wrote {s_res}x{a_res} {result.method} reward grid to {args.out}")
    return 0


# --- inspect ---------------------------------------------------------------------


def _describe_checkpoint(path: str) -> str:
    params, specs, trailer = nn_core.load_params(path)
    dims = [specs[0].in_dim] + [spec.out_dim for spec in specs]
    arch = "->".join(str(d) for d in dims)
    head = f"checkpoint: layers {arch}, {len(params)} parameters"
    # a policy's trailer is its log_std, 8 bytes per action; a
    # discriminator's (17 or 42 bytes) is never a multiple of 8
    if len(trailer) == 8 * specs[-1].out_dim:
        log_std = load_policy(path).log_std
        return f"{head}, kind policy (log_std={np.array2string(log_std, precision=4)})"
    disc = load_discriminator(path)
    return f"{head}, kind {disc.kind} ({disc.describe()})"


def cmd_inspect(args: argparse.Namespace) -> int:
    with open(args.path, "rb") as fh:
        magic = fh.read(4)
    if magic == envs.DATASET_MAGIC:
        dataset = envs.dataset_load(args.path)
        print(f"dataset: state_dim={dataset.state_dim} action_dim={dataset.action_dim} "
              f"transitions={len(dataset)} trajectories={dataset.num_trajectories}")
        return 0
    if magic == nn_core.CHECKPOINT_MAGIC:
        print(_describe_checkpoint(args.path))
        return 0
    raise ValueError(f"unrecognized file format (magic {magic!r})")


# --- argument parsing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="drail-lab",
                                     description="Adversarial imitation learning laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)
    # the episode settings that gen-expert and eval share
    episodes = argparse.ArgumentParser(add_help=False)
    episodes.add_argument("--seed", type=int, default=0)
    episodes.add_argument("--noise-scale", type=float, default=1.0)
    episodes.add_argument("--horizon", type=int, default=envs.DEFAULT_HORIZON)
    episodes.add_argument("--wall", action="store_true")

    gen = sub.add_parser("gen-expert", parents=[episodes], help="record a scripted-expert dataset")
    gen.add_argument("--env", required=True, help=f"one of: {', '.join(ENV_NAMES)}")
    gen.add_argument("--n", type=int, required=True,
                     help="sine: number of pairs; point_reach: number of trajectories")
    gen.add_argument("-o", "--out", required=True, help="dataset output path")
    gen.set_defaults(func=cmd_gen_expert)

    tr = sub.add_parser("train", help="run the training loop from a JSON config")
    tr.add_argument("--config", required=True, help="config JSON or a prior run manifest")
    tr.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a config entry (dotted keys reach ppo.*)")
    tr.add_argument("-o", "--out", default="run", help="run directory (default: run)")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", parents=[episodes], help="evaluate a policy checkpoint")
    ev.add_argument("checkpoint")
    ev.add_argument("--env", required=True)
    ev.add_argument("--episodes", type=int, default=50)
    ev.add_argument("--stochastic", action="store_true")
    ev.add_argument("--n-seeds", type=int, default=1)
    ev.set_defaults(func=cmd_eval)

    rm = sub.add_parser("reward-map", help="export the discriminator landscape over the sine grid")
    rm.add_argument("checkpoint")
    rm.add_argument("--resolution", default="101x121", help="s-by-a lattice, e.g. 101x121")
    rm.add_argument("--samples", type=int, default=4, help="probabilities per cell, each from sample_count draws")
    rm.add_argument("--seed", type=int, default=0)
    rm.add_argument("-o", "--out", required=True, help="CSV output path")
    rm.set_defaults(func=cmd_reward_map)

    ins = sub.add_parser("inspect", help="print dataset or checkpoint headers")
    ins.add_argument("path")
    ins.set_defaults(func=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalAbort as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
