"""Crash-safe writes: a failed write leaves the old file and no temp file."""

import os

import numpy as np
import pytest

from drail_lab import cli, envs, nn_core
from drail_lab.fileio import atomic_write
from drail_lab.policy_opt import build_policy, load_policy, save_policy


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old contents that are longer than the new ones\n")
    atomic_write(str(path), "new\n")
    assert path.read_text() == "new\n"
    atomic_write(str(path), b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"
    assert os.listdir(tmp_path) == ["out.csv"]


@pytest.mark.parametrize("fail_at", ["fsync", "replace"])
def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch, fail_at):
    # the new bytes are already in the temp file when fsync or the rename fails
    path = tmp_path / "policy.drlp"
    old = build_policy(2, 1, (4,), seed=0)
    save_policy(str(path), old)
    before = path.read_bytes()

    def boom(*args):
        raise OSError(f"simulated failure in {fail_at}")

    monkeypatch.setattr(os, fail_at, boom)
    with pytest.raises(OSError, match="simulated"):
        save_policy(str(path), build_policy(2, 1, (4,), seed=1))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["policy.drlp"]
    assert np.array_equal(load_policy(str(path)).mean_params.values, old.mean_params.values)


def test_writers_go_through_atomic_write(tmp_path, monkeypatch):
    written = []
    real = atomic_write

    def spy(path, data):
        written.append(os.path.basename(path))
        real(path, data)

    for module in (cli, envs, nn_core):
        monkeypatch.setattr(module, "atomic_write", spy)
    expert = str(tmp_path / "e.drld")
    assert cli.main(["gen-expert", "--env", "sine", "--n", "50", "--seed", "0", "-o", expert]) == 0
    assert written == ["e.drld", "e.drld.manifest.json"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"method": "drail", "env": "sine", "expert_path": "%s", "total_env_steps": 32, '
                   '"schedule_steps": 8, "eval_episodes": 2, "policy_hidden": [4], "value_hidden": [4], '
                   '"disc_hidden": [4], "ppo": {"rollout_steps": 32, "minibatch_size": 32, "epochs": 1}}' % expert)
    written.clear()
    assert cli.main(["train", "--config", str(cfg), "-o", str(tmp_path / "run")]) == 0
    assert sorted(written) == ["discriminator.drlp", "final_eval.json", "manifest.json", "metrics.csv", "policy.drlp"]
    written.clear()
    grid = str(tmp_path / "map.csv")
    assert cli.main(["reward-map", str(tmp_path / "run" / "discriminator.drlp"), "--resolution", "3x3",
                     "-o", grid]) == 0
    assert written == ["map.csv"]
