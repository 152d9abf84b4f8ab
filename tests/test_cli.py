"""End-to-end command-line contract tests (run in-process via cli.main)."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import drail_lab
from drail_lab import cli, nn_core, trainer
from drail_lab.discriminators import build_diffail, build_drail, build_gail, save_discriminator
from drail_lab.envs import dataset_load
from drail_lab.policy_opt import GaussianPolicy, build_policy, save_policy


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def sine_dataset(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "sine.drld")
    assert run_cli("gen-expert", "--env", "sine", "--n", "400", "--seed", "1", "-o", path) == 0
    return path


@pytest.fixture(scope="module")
def point_dataset(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "point.drld")
    assert run_cli("gen-expert", "--env", "point_reach", "--n", "60", "--seed", "3", "-o", path) == 0
    return path


def _tiny_config(expert_path, **extra):
    cfg = {
        "method": "drail",
        "env": "sine",
        "expert_path": expert_path,
        "total_env_steps": 128,
        "seed": 5,
        "disc_hidden": [16, 16],
        "disc_batch": 32,
        "schedule_steps": 16,
        "policy_hidden": [16, 16],
        "value_hidden": [16, 16],
        "eval_episodes": 8,
        "ppo": {"rollout_steps": 64, "minibatch_size": 32, "epochs": 2},
    }
    cfg.update(extra)
    return cfg


# --- gen-expert ----------------------------------------------------------------


def test_gen_expert_sine_counts_and_output(tmp_path, capsys):
    out = str(tmp_path / "e.drld")
    assert run_cli("gen-expert", "--env", "sine", "--n", "1000", "--seed", "1", "-o", out) == 0
    assert "1000 transitions" in capsys.readouterr().out
    assert len(dataset_load(out)) == 1000
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["config"]["env"] == "sine"
    assert manifest["seed"] == 1
    assert manifest["artifacts"]["dataset"] == out


def test_gen_expert_is_byte_identical(tmp_path):
    a = str(tmp_path / "a.drld")
    b = str(tmp_path / "b.drld")
    for out in (a, b):
        assert run_cli("gen-expert", "--env", "sine", "--n", "200", "--seed", "9", "-o", out) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_gen_expert_point_reach_trajectories(tmp_path):
    out = str(tmp_path / "p.drld")
    assert run_cli("gen-expert", "--env", "point_reach", "--n", "20", "--seed", "0", "-o", out) == 0
    assert dataset_load(out).num_trajectories == 20


def test_gen_expert_rejects_unknown_env(tmp_path, capsys):
    rc = run_cli("gen-expert", "--env", "nosuch", "--n", "5", "-o", str(tmp_path / "x.drld"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "sine" in err and "point_reach" in err


def test_gen_expert_unreachable_horizon_is_a_usage_error(tmp_path, capsys):
    # 5 steps cannot carry the expert to the goal, so every attempt fails
    out = tmp_path / "x.drld"
    rc = run_cli("gen-expert", "--env", "point_reach", "--n", "2", "--horizon", "5", "-o", str(out))
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: scripted expert success rate too low: 0/20 attempts succeeded\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "1e308"])
@pytest.mark.parametrize("command", ["gen-expert", "eval"])
def test_bad_noise_scale_exits_2_naming_the_flag(tmp_path, capsys, command, value):
    # rejected before any work: no dataset written, no episode run, no numpy warning
    out = tmp_path / "x.drld"
    if command == "gen-expert":
        argv = ["gen-expert", "--env", "point_reach", "--n", "3", "-o", str(out)]
    else:
        ckpt = str(tmp_path / "p.drlp")
        save_policy(ckpt, build_policy(6, 2, (8, 8), seed=0))
        argv = ["eval", ckpt, "--env", "point_reach", "--episodes", "3"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(*argv, f"--noise-scale={value}")
    assert rc == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("error: --noise-scale") and err.count("\n") == 1
    assert not out.exists()


# --- train -----------------------------------------------------------------------


def test_train_smoke_writes_run_artifacts(tmp_path, sine_dataset, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(sine_dataset)))
    run_dir = str(tmp_path / "run")
    assert run_cli("train", "--config", str(cfg_path), "-o", run_dir) == 0
    for name in ("manifest.json", "metrics.csv", "policy.drlp", "discriminator.drlp", "final_eval.json"):
        assert os.path.isfile(os.path.join(run_dir, name)), name
    assert "run complete" in capsys.readouterr().out
    manifest = json.loads(open(os.path.join(run_dir, "manifest.json")).read())
    assert manifest["config"]["method"] == "drail"
    assert manifest["config"]["total_env_steps"] == 128


def test_train_set_override_reaches_manifest(tmp_path, sine_dataset):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(sine_dataset)))
    run_dir = str(tmp_path / "run")
    assert run_cli("train", "--config", str(cfg_path), "-o", run_dir,
                   "--set", "method=gail", "--set", "ppo.lr=0.0001") == 0
    manifest = json.loads(open(os.path.join(run_dir, "manifest.json")).read())
    assert manifest["config"]["method"] == "gail"
    assert manifest["config"]["ppo"]["lr"] == 0.0001
    assert not os.path.isfile(os.path.join(run_dir, "..", "discriminator.drlp"))


def test_train_rerun_from_manifest_reproduces_metrics(tmp_path, sine_dataset):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(sine_dataset)))
    first = str(tmp_path / "first")
    second = str(tmp_path / "second")
    assert run_cli("train", "--config", str(cfg_path), "-o", first) == 0
    assert run_cli("train", "--config", os.path.join(first, "manifest.json"), "-o", second) == 0
    a = open(os.path.join(first, "metrics.csv"), "rb").read()
    b = open(os.path.join(second, "metrics.csv"), "rb").read()
    assert a == b


def test_train_manifest_counters_match_the_adam_steps_run(tmp_path, sine_dataset, monkeypatch):
    # ragged: 64-row rollouts in batches of 24 give 3 discriminator and,
    # over 2 epochs, 6 PPO minibatches per iteration
    adam_calls, results = [], []
    real_adam, real_train = nn_core._adam_apply, cli.train
    monkeypatch.setattr(nn_core, "_adam_apply", lambda *a: adam_calls.append(1) or real_adam(*a))
    monkeypatch.setattr(cli, "train", lambda cfg: results.append(real_train(cfg)) or results[-1])
    cfg = _tiny_config(sine_dataset, disc_batch=24, ppo={"rollout_steps": 64, "minibatch_size": 24, "epochs": 2})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    run_dir = str(tmp_path / "run")
    assert run_cli("train", "--config", str(cfg_path), "-o", run_dir) == 0
    counters = results[0].counters
    assert counters["disc_minibatches"] == 2 * 3 and counters["ppo_minibatches"] == 2 * 2 * 3
    assert len(adam_calls) == counters["disc_minibatches"] + counters["ppo_minibatches"]
    assert counters["lockstep_steps"] == 2 * 64 // math.gcd(64, trainer._N_ENVS)
    manifest = json.loads(open(os.path.join(run_dir, "manifest.json")).read())
    assert manifest["counters"] == counters
    assert all(type(v) is int for v in counters.values())


def test_train_missing_expert_path_fails_fast(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config("")))
    assert run_cli("train", "--config", str(cfg_path), "-o", str(tmp_path / "r")) == 2
    assert "expert_path" in capsys.readouterr().err


def test_train_nonexistent_expert_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config("/nonexistent/e.drld")))
    assert run_cli("train", "--config", str(cfg_path), "-o", str(tmp_path / "r")) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("expert", ["four-byte", "wrong-widths"])
def test_train_bad_expert_exits_2_without_a_run_directory(tmp_path, sine_dataset, capsys, expert):
    # train loads and checks the expert; the run directory waits for artifacts
    if expert == "four-byte":
        path = tmp_path / "e.drld"
        path.write_bytes(b"DRLD")
        cfg = _tiny_config(str(path))
    else:
        cfg = _tiny_config(sine_dataset, env="point_reach")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("train", "--config", str(cfg_path), "-o", str(tmp_path / "r")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not os.path.exists(tmp_path / "r")


def _overflowing_policy():
    """A 1->4->1 policy whose every mean-net value is 1e308: its means overflow."""
    policy = build_policy(1, 1, (4,), seed=0)
    return GaussianPolicy(policy.mean_params.with_values(np.full(len(policy.mean_params), 1e308)), policy.log_std)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("stochastic", [False, True])
def test_train_with_an_overflowing_policy_is_a_numerical_abort(tmp_path, sine_dataset, capsys, monkeypatch,
                                                               stochastic):
    # the values come from the run, so evaluating them is a stage of it
    monkeypatch.setattr(trainer, "bc_train", lambda *args: _overflowing_policy())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(sine_dataset, method="bc", eval_stochastic=stochastic)))
    assert run_cli("train", "--config", str(cfg_path), "-o", str(tmp_path / "r")) == 3
    assert capsys.readouterr().err == "numerical abort: iteration 1, evaluation: policy mean is non-finite\n"
    assert not os.path.exists(tmp_path / "r")


def test_train_unknown_config_key_named(tmp_path, sine_dataset, capsys):
    cfg = _tiny_config(sine_dataset)
    cfg["disc_widht"] = [8]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("train", "--config", str(cfg_path), "-o", str(tmp_path / "r")) == 2
    assert "disc_widht" in capsys.readouterr().err


@pytest.mark.parametrize("override, key", [
    ("ppo=3", "ppo"),
    ('seed="abc"', "seed"),
    ('disc_lr="x"', "disc_lr"),
    ("ppo.epochs=0", "ppo.epochs"),
    ("ppo.minibatch_size=0", "ppo.minibatch_size"),
    ("noise_scale=-1", "noise_scale"),  # the sine world ignores both, yet they must be valid
    ("noise_scale=1e308", "noise_scale"),
    ("horizon=0", "horizon"),
    ("schedule_steps=100001", "schedule_steps"),  # past what a checkpoint may declare
    ("reward_sample_count=129", "reward_sample_count"),  # labeling allocates every draw up front
    ("sample_count=129", "sample_count"),
    ('time_mode="scalar"', "time_mode"),  # the key of manifests written before the one time encoding
    ("seed=-1", "seed"),
    ("disc_lr=-1", "disc_lr"),
    ("bc_lr=-1", "bc_lr"),  # a drail run never reads it, yet it must be valid
    ("max_expert_trajectories=0", "max_expert_trajectories"),
    ("ppo.gamma=0.9", "ppo.gamma"),  # retired keys pass only at their fixed values
    ("label_dim=-1", "label_dim"),
    ("time_embed_dim=-2", "time_embed_dim"),
    ("disc_hidden=[0]", "disc_hidden"),  # a width the nets cannot be built with
    ("policy_hidden=[-3]", "policy_hidden"),
    ("value_hidden=[0]", "value_hidden"),
])
def test_train_bad_override_exits_2_naming_the_key(tmp_path, sine_dataset, capsys, override, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(sine_dataset)))
    assert run_cli("train", "--config", str(cfg_path), "-o", str(tmp_path / "r"), "--set", override) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "r")  # rejected before the run starts


def test_train_stage_rejection_exits_3(tmp_path, sine_dataset, capsys, monkeypatch):
    def reject(*args, **kwargs):
        raise ValueError("rejected")

    monkeypatch.setattr(trainer, "compute_gae", reject)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(sine_dataset)))
    assert run_cli("train", "--config", str(cfg_path), "-o", str(tmp_path / "r")) == 3
    assert capsys.readouterr().err == "numerical abort: iteration 1, advantage estimation: rejected\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_numerical_abort_exit_code(tmp_path, sine_dataset, capsys):
    # an absurd discriminator lr overflows the forward pass within one iteration
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(sine_dataset, disc_lr=1e154)))
    assert run_cli("train", "--config", str(cfg_path), "-o", str(tmp_path / "r")) == 3
    assert "numerical abort" in capsys.readouterr().err


def test_train_bc_method(tmp_path, sine_dataset):
    cfg = _tiny_config(sine_dataset, method="bc", bc_epochs=3)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    run_dir = str(tmp_path / "run")
    assert run_cli("train", "--config", str(cfg_path), "-o", run_dir) == 0
    assert os.path.isfile(os.path.join(run_dir, "policy.drlp"))
    assert not os.path.isfile(os.path.join(run_dir, "discriminator.drlp"))


# --- eval -------------------------------------------------------------------------


def test_eval_reports_episode_count(tmp_path, capsys):
    ckpt = str(tmp_path / "p.drlp")
    save_policy(ckpt, build_policy(1, 1, (8, 8), seed=0))
    assert run_cli("eval", ckpt, "--env", "sine", "--episodes", "7", "--seed", "2") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["episodes"] == 7
    assert set(report) == {"success_rate", "mean_return", "episodes", "per_seed"}


def test_eval_bc_policy_reaches_expert_success(tmp_path, point_dataset, capsys):
    # behavior-cloned controller stands in for the scripted expert
    cfg = {
        "method": "bc",
        "env": "point_reach",
        "expert_path": point_dataset,
        "seed": 0,
        "bc_epochs": 400,
        "eval_episodes": 20,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    run_dir = str(tmp_path / "run")
    assert run_cli("train", "--config", str(cfg_path), "-o", run_dir) == 0
    capsys.readouterr()
    ckpt = os.path.join(run_dir, "policy.drlp")
    assert run_cli("eval", ckpt, "--env", "point_reach", "--episodes", "30", "--seed", "11") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["success_rate"] >= 0.99


def test_eval_corrupt_checkpoint(tmp_path, capsys):
    bad = tmp_path / "bad.drlp"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert run_cli("eval", str(bad), "--env", "sine") == 2
    assert "bad magic" in capsys.readouterr().err


def test_eval_rejects_discriminator_checkpoint(tmp_path, capsys):
    ckpt = str(tmp_path / "d.drlp")
    save_discriminator(ckpt, build_drail(1, 1, hidden=(8, 8), T=8, seed=0))
    assert run_cli("eval", ckpt, "--env", "sine") == 2


@pytest.mark.parametrize("dims, env, env_dims", [((6, 2), "sine", (1, 1)), ((1, 1), "point_reach", (6, 2))])
def test_eval_policy_for_another_env_exits_2_naming_both_widths(tmp_path, capsys, dims, env, env_dims):
    ckpt = str(tmp_path / "p.drlp")
    save_policy(ckpt, build_policy(*dims, (8, 8), seed=0))
    assert run_cli("eval", ckpt, "--env", env, "--episodes", "3") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.index(str(dims)) < err.index(str(env_dims))
    assert repr(env) in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", [[], ["--stochastic"]])
def test_eval_of_an_overflowing_policy_exits_2_naming_the_file(tmp_path, capsys, mode):
    path = str(tmp_path / "big.drlp")
    save_policy(path, _overflowing_policy())
    assert run_cli("eval", path, "--env", "sine", "--episodes", "3", *mode) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: policy {path}:") and err.count("\n") == 1, err


# --- reward-map --------------------------------------------------------------------


def test_reward_map_layout_and_untrained_values(tmp_path):
    # label_dim=0 gives one head that both labels read, so an untrained
    # classifier scores exactly 0.5 everywhere; labeled fresh nets have much wider spread
    ckpt = str(tmp_path / "d.drlp")
    save_discriminator(ckpt, build_drail(1, 1, label_dim=0, hidden=(16, 16), T=16, seed=4))
    out = str(tmp_path / "grid.csv")
    assert run_cli("reward-map", ckpt, "--resolution", "101x121", "--seed", "3", "-o", out) == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 102
    assert all(len(line.split(",")) == 122 for line in lines)
    cells = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    assert np.all(np.abs(cells - 0.5) < 0.05)


def test_reward_map_deterministic(tmp_path):
    ckpt = str(tmp_path / "d.drlp")
    save_discriminator(ckpt, build_drail(1, 1, hidden=(8, 8), T=8, seed=1))
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    for out in (a, b):
        assert run_cli("reward-map", ckpt, "--resolution", "21x31", "--seed", "7", "-o", out) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


# runs argv[1:] as a child and prints its ru_maxrss; a child forked from a
# large process (pytest) would count that process's pages as its own
_MAXRSS_LAUNCHER = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def test_reward_map_peak_memory_stays_bounded(tmp_path):
    # 101x121 cells x 4 draws is 48,884 denoiser rows per call, each walked
    # once for both heads; walked in one piece (twice over, when each label
    # walked its own rows) their activations peaked near 250 MB
    ckpt = str(tmp_path / "d.drlp")
    save_discriminator(ckpt, build_drail(1, 1, sample_count=4, seed=2))
    src = os.path.dirname(os.path.dirname(os.path.abspath(drail_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _MAXRSS_LAUNCHER, sys.executable, "-m", "drail_lab.cli",
                          "reward-map", ckpt, "--resolution", "101x121", "--samples", "4",
                          "-o", str(tmp_path / "map.csv")],
                         env=env, capture_output=True, text=True, check=True).stdout
    code, maxrss_kib = (int(x) for x in out.split())
    assert code == 0
    assert maxrss_kib / 1024.0 < 150.0


def test_reward_map_memory_does_not_grow_with_draws(tmp_path):
    # 101x121 cells x 128 draws is 1.6M denoiser rows (3.1M when each label
    # walked its own); built in one piece those peaked near 1.6 GB, scored a block at a time
    # only the draws and the per-row losses grow with them
    ckpt = str(tmp_path / "d.drlp")
    save_discriminator(ckpt, build_drail(1, 1, sample_count=128, seed=2))
    src = os.path.dirname(os.path.dirname(os.path.abspath(drail_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _MAXRSS_LAUNCHER, sys.executable, "-m", "drail_lab.cli",
                          "reward-map", ckpt, "--resolution", "101x121", "--samples", "1",
                          "-o", str(tmp_path / "map.csv")],
                         env=env, capture_output=True, text=True, check=True).stdout
    code, maxrss_kib = (int(x) for x in out.split())
    assert code == 0
    assert maxrss_kib / 1024.0 < 250.0


def test_reward_map_rejects_policy_checkpoint(tmp_path, capsys):
    ckpt = str(tmp_path / "p.drlp")
    save_policy(ckpt, build_policy(1, 1, (8, 8), seed=0))
    out = str(tmp_path / "grid.csv")
    assert run_cli("reward-map", ckpt, "-o", out) == 2


def test_reward_map_of_a_label_column_drail_checkpoint_exits_2_naming_the_input_width(tmp_path, capsys):
    # drail checkpoints of ten label input columns and one output head, as
    # written before the label picked an output head, are not read
    _, _, trailer = build_drail(1, 1, hidden=(8,), T=8, seed=0).checkpoint()
    specs = nn_core.mlp_specs((1 + 1 + 10 + 16, 8, 2), "relu")
    ckpt = str(tmp_path / "old.drlp")
    nn_core.save_params(ckpt, nn_core.init_params(specs, 0), specs, trailer)
    assert run_cli("reward-map", ckpt, "-o", str(tmp_path / "g.csv")) == 2
    assert capsys.readouterr().err == "error: denoiser input width 28 != 18\n"


def test_reward_map_bad_resolution(tmp_path, capsys):
    ckpt = str(tmp_path / "d.drlp")
    save_discriminator(ckpt, build_drail(1, 1, hidden=(8, 8), T=8, seed=1))
    assert run_cli("reward-map", ckpt, "--resolution", "101", "-o", str(tmp_path / "g.csv")) == 2
    assert "resolution" in capsys.readouterr().err


# --- inspect -----------------------------------------------------------------------


def test_inspect_dataset(sine_dataset, capsys):
    assert run_cli("inspect", sine_dataset) == 0
    out = capsys.readouterr().out
    assert "dataset" in out and "transitions=400" in out


def test_inspect_checkpoints(tmp_path, capsys):
    pol = str(tmp_path / "p.drlp")
    save_policy(pol, build_policy(2, 2, (8, 8), seed=0))
    assert run_cli("inspect", pol) == 0
    assert "kind policy" in capsys.readouterr().out

    for name, disc, expected in (
        ("drail", build_drail(1, 1, hidden=(8, 8), T=8, seed=0), ("kind drail (", "T=8")),
        ("gail", build_gail(2, 1, hidden=(8,), seed=0), ("kind gail (state_dim=2, action_dim=1)",)),
        ("diffail", build_diffail(1, 2, hidden=(8,), T=12, sample_count=3, seed=0),
         ("kind diffail (state_dim=1, action_dim=2, label_dim=0, T=12, sample_count=3)",)),
    ):
        path = str(tmp_path / f"{name}.drlp")
        save_discriminator(path, disc)
        assert run_cli("inspect", path) == 0
        out = capsys.readouterr().out
        assert all(text in out for text in expected), out


def _small_discriminators():
    return {
        "drail": build_drail(1, 1, label_dim=2, hidden=(4,), T=8, sample_count=2, seed=0),
        "gail": build_gail(1, 1, hidden=(4,), seed=0),
        "diffail": build_diffail(1, 1, hidden=(4,), T=8, sample_count=2, seed=0),
    }


@pytest.mark.parametrize("kind", ["drail", "diffail"])
def test_unknown_time_mode_code_exits_2_naming_the_field(tmp_path, capsys, kind):
    path = tmp_path / "d.drlp"
    save_discriminator(str(path), _small_discriminators()[kind])
    data = bytearray(path.read_bytes())
    # the time-mode byte, 16 bytes (four u32 dims) into the 41-byte metadata
    # that ends the file, is always 0; 1 was the code of a scalar encoding
    assert data[-41 + 16] == 0
    for code in (1, 7):
        data[-41 + 16] = code
        path.write_bytes(bytes(data))
        assert run_cli("reward-map", str(path), "--resolution", "5x5", "-o", str(tmp_path / "g.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "time_mode" in err
        assert run_cli("inspect", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "time_mode" in err


# runs argv[1:] through cli.main under a 2 GiB address-space limit, so a
# checkpoint that asks for more fails here instead of exhausting the machine
_LIMITED_CLI = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
    "from drail_lab import cli\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("kind", ["drail", "diffail"])
@pytest.mark.parametrize("field, offset", [("T", 17), ("sample_count", 29)])
def test_oversized_trailer_field_exits_2_naming_the_field(tmp_path, kind, field, offset):
    path = tmp_path / "d.drlp"
    save_discriminator(str(path), _small_discriminators()[kind])
    data = bytearray(path.read_bytes())
    # the field's u32 within the 41-byte metadata that ends the file
    data[-41 + offset : -41 + offset + 4] = (2**31 - 1).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    src = os.path.dirname(os.path.dirname(os.path.abspath(drail_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    for argv in (["reward-map", str(path), "--resolution", "5x5", "-o", str(tmp_path / "g.csv")],
                 ["inspect", str(path)]):
        proc = subprocess.run([sys.executable, "-c", _LIMITED_CLI, *argv], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, (argv[0], proc.stderr)
        assert field in proc.stderr


def test_request_too_large_for_memory_exits_2(tmp_path):
    disc, pol = tmp_path / "d.drlp", tmp_path / "p.drlp"
    save_discriminator(str(disc), _small_discriminators()["gail"])
    save_policy(str(pol), build_policy(6, 2, (8, 8), seed=0))
    src = os.path.dirname(os.path.dirname(os.path.abspath(drail_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    # each asks numpy for one array far past the limit, which fails at once
    for argv in (["reward-map", str(disc), "--resolution", "100000x100000", "-o", str(tmp_path / "m.csv")],
                 ["eval", str(pol), "--env", "point_reach", "--episodes", "10000000000"],
                 ["gen-expert", "--env", "sine", "--n", "10000000000", "-o", str(tmp_path / "s.drld")],
                 ["gen-expert", "--env", "point_reach", "--n", "1000000000", "-o", str(tmp_path / "r.drld")]):
        proc = subprocess.run([sys.executable, "-c", _LIMITED_CLI, *argv], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, (argv[0], proc.stderr)
        assert proc.stderr.startswith("error: Unable to allocate"), proc.stderr


def test_inspect_truncated_discriminator_checkpoints_exit_0_or_2(tmp_path):
    # every prefix of each kind's file: a clean report or a usage error,
    # never an exception out of main
    for kind, disc in _small_discriminators().items():
        full = tmp_path / f"{kind}.drlp"
        save_discriminator(str(full), disc)
        data = full.read_bytes()
        cut = tmp_path / f"{kind}-cut.drlp"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            assert run_cli("inspect", str(cut)) in (0, 2), (kind, n)


def _policy_bytes(tmp_path):
    path = tmp_path / "p.drlp"
    save_policy(str(path), build_policy(1, 1, (4,), seed=0))
    return bytearray(path.read_bytes())


def _set_bytes(data, offset, value: bytes):
    data[offset : offset + len(value)] = value
    return bytes(data)


def _dataset_bytes(tmp_path):
    path = tmp_path / "s.drld"
    assert run_cli("gen-expert", "--env", "sine", "--n", "5", "-o", str(path)) == 0
    return bytearray(path.read_bytes())


def _unknown_activation(tmp_path):
    # the first layer's activation byte follows magic, version, layer count,
    # its name (u32 length, then UTF-8) and its two u32 dims
    data = _policy_bytes(tmp_path)
    name_len = int.from_bytes(data[12:16], "little")
    return _set_bytes(data, 16 + name_len + 8, bytes([9]))


def _not_utf8_layer_name(data: bytearray) -> bytes:
    # the first layer's name (u32 length, then its bytes) follows magic,
    # version and layer count; 0xff opens no UTF-8 sequence
    name_len = int.from_bytes(data[12:16], "little")
    return _set_bytes(data, 16, b"\xff" * name_len)


def _unknown_kind(tmp_path):
    path = tmp_path / "g.drlp"
    save_discriminator(str(path), _small_discriminators()["gail"])
    data = bytearray(path.read_bytes())
    # the kind code opens the 17-byte gail trailer
    return _set_bytes(data, len(data) - 17, bytes([9]))


def _bad_done_flag(tmp_path):
    # a transition record ends with its done byte
    data = _dataset_bytes(tmp_path)
    return _set_bytes(data, len(data) - 1, bytes([2]))


# (how to corrupt a valid file, what the error names). After the 4-byte
# magic, a DRLP header holds its version (u32 LE); a DRLD header holds its
# version, state_dim and action_dim (u32 LE), then the count (u64 LE)
CORRUPT_FILES = {
    "drlp-version": (lambda p: _set_bytes(_policy_bytes(p), 4, (7).to_bytes(4, "little")),
                     "unsupported checkpoint version 7"),
    "drlp-activation": (_unknown_activation, "unknown activation code 9"),
    "drlp-layer-name": (lambda p: _not_utf8_layer_name(_policy_bytes(p)), "can't decode byte 0xff"),
    "discriminator-kind": (_unknown_kind, "unknown discriminator kind 9"),
    "drld-short-header": (lambda p: bytes(_dataset_bytes(p)[:10]), "truncated dataset header"),
    "drld-empty-dims": (lambda p: _set_bytes(_dataset_bytes(p), 8, (0).to_bytes(4, "little")),
                        "dataset header declares empty dimensions"),
    "drld-done-flag": (_bad_done_flag, "done flags must be 0 or 1"),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_FILES))
def test_inspect_corrupt_file_exits_2_naming_the_fault(tmp_path, capsys, case):
    corrupt, fault = CORRUPT_FILES[case]
    path = tmp_path / "corrupt.bin"
    path.write_bytes(corrupt(tmp_path))
    capsys.readouterr()
    assert run_cli("inspect", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fault in err, err


@pytest.mark.parametrize("command", ["eval", "reward-map"])
def test_checkpoint_with_a_layer_name_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    if command == "eval":
        data, args = _policy_bytes(tmp_path), ["--env", "sine", "--episodes", "1"]
    else:
        path = tmp_path / "d.drlp"
        save_discriminator(str(path), _small_discriminators()["drail"])
        data, args = bytearray(path.read_bytes()), ["--resolution", "3x3", "-o", str(tmp_path / "g.csv")]
    bad = tmp_path / "bad.drlp"
    bad.write_bytes(_not_utf8_layer_name(data))
    assert run_cli(command, str(bad), *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "can't decode byte 0xff" in err, err


def test_inspect_unknown_format(tmp_path, capsys):
    path = tmp_path / "x.bin"
    path.write_bytes(b"\x00\x01\x02\x03more")
    assert run_cli("inspect", str(path)) == 2
    assert "unrecognized" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_policy_with_non_finite_log_std_exits_2_naming_it(tmp_path, capsys, bad):
    # the trailer of a 1-action policy is its one log-std value
    data = _policy_bytes(tmp_path)
    path = str(tmp_path / "bad.drlp")
    with open(path, "wb") as fh:
        fh.write(_set_bytes(data, len(data) - 8, np.array(bad, "<f8").tobytes()))
    evaluate = ["eval", path, "--env", "sine", "--episodes", "3"]
    for argv in (["inspect", path], evaluate, evaluate + ["--stochastic"]):
        capsys.readouterr()
        assert run_cli(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "log_std" in err, (argv, err)


# --- fuzzing -----------------------------------------------------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10**300, 10**400) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_TRAIN_KEYS = sorted(trainer.TrainConfig.__annotations__)
_PPO_KEYS = sorted(trainer.PpoConfig.__annotations__)
_KEYS = st.sampled_from(_TRAIN_KEYS) | st.text(max_size=6)
_CONFIGS = st.dictionaries(_KEYS, _JSON_VALUES, max_size=6) | st.builds(
    lambda top, ppo: {**top, "ppo": ppo}, st.dictionaries(_KEYS, _JSON_VALUES, max_size=4),
    st.dictionaries(st.sampled_from(_PPO_KEYS) | st.text(max_size=6), _JSON_VALUES, max_size=4))
_OVERRIDES = st.text(max_size=12) | st.builds(
    lambda key, value: f"{key}={value}",
    st.sampled_from(_TRAIN_KEYS + [f"ppo.{k}" for k in _PPO_KEYS]) | st.text(max_size=6),
    _JSON_VALUES.map(json.dumps) | st.text(max_size=8))


@settings(max_examples=300, deadline=None)
@given(data=_CONFIGS, overrides=st.lists(_OVERRIDES, max_size=3))
@example(data={}, overrides=["disc_lr=1" + "0" * 400])  # an int past the float range
def test_fuzzed_config_gives_a_config_or_a_value_error(data, overrides):
    try:
        cfg = trainer.config_from_dict(cli._apply_overrides(data, overrides))
    except ValueError:
        return
    assert isinstance(cfg, trainer.TrainConfig)


@pytest.fixture(scope="module")
def fuzz_seed_files(tmp_path_factory):
    """(bytes, eval env) of one small valid file of each kind."""
    root = tmp_path_factory.mktemp("seeds")
    files = {}
    for name, policy, env in (("point-policy", build_policy(6, 2, (4,), seed=0), "point_reach"),
                              ("sine-policy", build_policy(1, 1, (4,), seed=1), "sine")):
        save_policy(str(root / name), policy)
        files[name] = env
    for kind, disc in _small_discriminators().items():
        save_discriminator(str(root / kind), disc)
        files[kind] = "sine"
    assert run_cli("gen-expert", "--env", "sine", "--n", "5", "-o", str(root / "sine-data")) == 0
    assert run_cli("gen-expert", "--env", "point_reach", "--n", "1", "--horizon", "40",
                   "-o", str(root / "point-data")) == 0
    files.update({"sine-data": "sine", "point-data": "point_reach"})
    return {name: ((root / name).read_bytes(), env) for name, env in files.items()}


# NaN, inf and -inf as float64, then u32 counts far past any bound
_SPLICES = [np.array(v, "<f8").tobytes() for v in (np.nan, np.inf, -np.inf)] + [
    v.to_bytes(4, "little") for v in (2**32 - 1, 2**31 - 1, 2**24)]
# offsets from -64 to 64 reach the headers and the trailers, the others the values
_OFFSETS = st.integers(-64, 64) | st.integers(0, 2**16)
_MUTATIONS = st.lists(st.one_of(
    st.tuples(st.just("flip"), _OFFSETS, st.integers(1, 255)),
    st.tuples(st.just("cut"), _OFFSETS, st.just(0)),
    st.tuples(st.just("splice"), _OFFSETS, st.integers(0, len(_SPLICES) - 1)),
), min_size=1, max_size=3)


def _mutate(data: bytes, mutations) -> bytes:
    out = bytearray(data)
    for op, at, arg in mutations:
        if not out:
            break
        at %= len(out)
        if op == "flip":
            out[at] ^= arg
        elif op == "cut":
            del out[at:]
        else:
            out[at : at + len(_SPLICES[arg])] = _SPLICES[arg]
    return bytes(out)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["point-policy", "sine-policy", "drail", "gail", "diffail", "sine-data", "point-data"]),
       mutations=_MUTATIONS)
def test_fuzzed_files_exit_0_or_2_with_one_error_line(fuzz_seed_files, tmp_path_factory, name, mutations):
    data, env_name = fuzz_seed_files[name]
    root = tmp_path_factory.mktemp("fuzz")
    path = str(root / "mutated.bin")
    with open(path, "wb") as fh:
        fh.write(_mutate(data, mutations))
    src = os.path.dirname(os.path.dirname(os.path.abspath(drail_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    runs = (["inspect", path],
            ["eval", path, "--env", env_name, "--episodes", "2", "--horizon", "20"],
            ["reward-map", path, "--resolution", "5x5", "--samples", "1", "-o", str(root / "map.csv")])
    # the three commands run side by side, each under the 2 GiB limit
    procs = [subprocess.Popen([sys.executable, "-c", _LIMITED_CLI, *argv], env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True) for argv in runs]
    try:
        for argv, proc in zip(runs, procs):
            err = proc.communicate(timeout=60)[1]
            assert proc.returncode in (0, 2) and "Traceback" not in err, (argv[0], name, mutations, err)
            if proc.returncode == 2:
                errors = [line for line in err.splitlines() if line.startswith("error:")]
                assert len(errors) == 1, (argv[0], name, mutations, err)
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
