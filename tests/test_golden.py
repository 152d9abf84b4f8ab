"""Golden bytes: sha256 of the run artifacts of small fixed training runs.

A change that keeps the float operations, RNG draws and checks of the
training loop keeps these hashes. A change that moves them on purpose
(a new RNG stream, a reordered sum) updates the table in the same change
and says why. The hashes hold for one machine and numpy/BLAS build.
"""

import hashlib
import json
import os

import pytest

from drail_lab import cli

ARTIFACTS = ("metrics.csv", "policy.drlp", "discriminator.drlp", "final_eval.json")

_SMALL = {
    "total_env_steps": 1024,
    "seed": 11,
    "disc_hidden": [32, 32],
    "schedule_steps": 50,
    "eval_interval": 512,
    "eval_episodes": 5,
    "ppo": {"rollout_steps": 512, "minibatch_size": 64, "epochs": 3},
}

# name -> (expert env, config); gail adds the wall, diffail a stochastic eval
CASES = {
    "drail-point_reach": ("point_reach", dict(_SMALL, method="drail", env="point_reach")),
    "gail-point_reach": ("point_reach", dict(_SMALL, method="gail", env="point_reach", wall=True)),
    "diffail-point_reach": ("point_reach", dict(_SMALL, method="diffail", env="point_reach",
                                                eval_stochastic=True)),
    "bc-point_reach": ("point_reach", {"method": "bc", "env": "point_reach", "seed": 11,
                                       "bc_epochs": 20, "eval_episodes": 5}),
    "drail-sine": ("sine", dict(_SMALL, method="drail", env="sine", eval_episodes=20,
                                ppo={"rollout_steps": 256, "minibatch_size": 64, "epochs": 3})),
}

GOLDEN = {
    "bc-point_reach": {
        "metrics.csv": "9096cfd4aa728bb45e5d43d268156923b0e3165a529380484f7cde47b584d41e",
        "policy.drlp": "170b2e62760a7b7748c153efe05f27df89e09f460b94ca04a7d3cc57c766c42d",
        "final_eval.json": "b98cf1ebb3bcc69678e2b2ee2caacd3853c2e7d3fdf66ae06f2da33593c149de",
    },
    "diffail-point_reach": {
        "metrics.csv": "f5ae9f9fbf88ef5a8e0fd1ae16c585c5ff10f9be8355ee7e14e4c343ef2d603b",
        "policy.drlp": "bd1bebfc0edcfa153f57ccd5b0ecc8bb3f229c921e443355d00743b987d98443",
        "discriminator.drlp": "b2681faa063f0bf2209f3e62c759346b3fd4dec8cae9d61ceb776c0aa5471b3c",
        "final_eval.json": "482df8cfa60aebe0d5debc8311d1f226ef8c1f3e364c4e6938a6e56264c12f68",
    },
    "drail-point_reach": {
        "metrics.csv": "111529ace91bb2fe85f2c378a65ef3ee37e38a1cb1b66e15925954a438776fcb",
        "policy.drlp": "1af46ace0e5011d867a3288f72db9c0907939d42e7622e826cecc6ec52d0e341",
        "discriminator.drlp": "5d98fa4866c8f64237c95e063632c75182e5dea178ba874b4282e91b9cea4df3",
        "final_eval.json": "482df8cfa60aebe0d5debc8311d1f226ef8c1f3e364c4e6938a6e56264c12f68",
    },
    "drail-sine": {
        "metrics.csv": "6e6db9c9324d563c1604cd961c141439cd81da220a8a82fcd671af98a7bf4ecb",
        "policy.drlp": "f9378e88aae2707782fec3973e4435e29f6d8e553002575d7c239b4a8c8e44b3",
        "discriminator.drlp": "06197f1b20f5060e02618d76e1ab49c8b56605b0fb9cf75c345b50da6064ba26",
        "final_eval.json": "c7d5b643173f8b664dddc600a3913df617d24a82aa542698aadeaba982460042",
    },
    "gail-point_reach": {
        "metrics.csv": "1451a7a7a8fa5ed93b31ca7ac7594a16e3c96806dce60d28a5c2f41cb67cc98c",
        "policy.drlp": "03a60d889fdf32e7a1083f69ce634a3eafdd4e96e8e9a4c116c8a318aff74898",
        "discriminator.drlp": "32f7de69a5d30147e1b16e1e8806999cb9bed4da8602be0da850940bcc50eb2d",
        "final_eval.json": "482df8cfa60aebe0d5debc8311d1f226ef8c1f3e364c4e6938a6e56264c12f68",
    },
}


@pytest.fixture(scope="module")
def experts(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-experts")
    paths = {"point_reach": str(root / "point.drld"), "sine": str(root / "sine.drld")}
    assert cli.main(["gen-expert", "--env", "point_reach", "--n", "20", "--seed", "3",
                     "-o", paths["point_reach"]]) == 0
    assert cli.main(["gen-expert", "--env", "sine", "--n", "500", "--seed", "2", "-o", paths["sine"]]) == 0
    return paths


def run_digests(run_dir: str) -> dict:
    out = {}
    for name in ARTIFACTS:
        path = os.path.join(run_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def train_case(name: str, experts: dict, tmp_path) -> dict:
    env, config = CASES[name]
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(dict(config, expert_path=experts[env])))
    run_dir = str(tmp_path / name)
    assert cli.main(["train", "--config", str(cfg_path), "-o", run_dir]) == 0
    return run_digests(run_dir)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_run_bytes(name, experts, tmp_path):
    assert train_case(name, experts, tmp_path) == GOLDEN[name]
