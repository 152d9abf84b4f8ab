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

# The drail and diffail runs were last re-recorded when the denoiser's
# first layer was folded (data, time and label terms computed apart, the
# time terms once per distinct timestep): their floats moved in the last
# bits. The gail and bc runs and the expert datasets did not move.
GOLDEN = {
    "bc-point_reach": {
        "metrics.csv": "9096cfd4aa728bb45e5d43d268156923b0e3165a529380484f7cde47b584d41e",
        "policy.drlp": "170b2e62760a7b7748c153efe05f27df89e09f460b94ca04a7d3cc57c766c42d",
        "final_eval.json": "b98cf1ebb3bcc69678e2b2ee2caacd3853c2e7d3fdf66ae06f2da33593c149de",
    },
    "diffail-point_reach": {
        "metrics.csv": "52ecb35c740516547595e6383af3f3081081ea5148c750514690c487826542db",
        "policy.drlp": "8210f3b0d28386777844a565973cc0768679199ff9e2c70f79dc35ff1ac6de0a",
        "discriminator.drlp": "3522fe47d00e3cb5f03c81a83f0246af49792a2fcef3fe401ec983b5ac4805b2",
        "final_eval.json": "482df8cfa60aebe0d5debc8311d1f226ef8c1f3e364c4e6938a6e56264c12f68",
    },
    "drail-point_reach": {
        "metrics.csv": "c9f937a1273b04c9d1ba47c05133fcc5b6e1e3569f2f15309b738ed5c765a496",
        "policy.drlp": "c29a535609ad6232a9a5bb5a644c02e4fa4c4696207aec12469a5dadd24de181",
        "discriminator.drlp": "06ac700b975b74a4aec281ee470aa008112cc1ad96e26450ab2e1078fcfea791",
        "final_eval.json": "482df8cfa60aebe0d5debc8311d1f226ef8c1f3e364c4e6938a6e56264c12f68",
    },
    "drail-sine": {
        "metrics.csv": "5053fd760d65f932475153c6f8e1967dc3bc645430b7ae3d8ea33a323c3a9856",
        "policy.drlp": "94490dfbe9a99d2e5b3db779e9187fed9a7f0789bdaa1087f879ac092438a0c0",
        "discriminator.drlp": "15a1c9e20073652e2167279c08320e8dd294f49f5a41b6078872d8176c2561d3",
        "final_eval.json": "c8e8b9918ae39e3cf8baf0ef762b9b4aa35c027c9bab1824e6393753285195e4",
    },
    "gail-point_reach": {
        "metrics.csv": "e2b0aca25bcdf7726e0b99f6f7bd08146b98b722e65aac8ee1c36f539312a9dd",
        "policy.drlp": "a08b9a2f24f5a4df43bb1a083f1d9a1a4d511f0c75eb9c6728b41a47822c616c",
        "discriminator.drlp": "904f879fec92a20f1832e7bc82a80b762d3d372745038ade7b36092b072523c4",
        "final_eval.json": "482df8cfa60aebe0d5debc8311d1f226ef8c1f3e364c4e6938a6e56264c12f68",
    },
}


# sha256 of `gen-expert --env point_reach --n 100 --seed 4`, without and
# with the wall
EXPERT_DATASETS = {
    False: "4e15d6b9da137441eaab0618c48227ba8b58e5c55c465d787c21ac3a3db50931",
    True: "785c185f57299956c5b3e686cc3660759e604e7f840928cc4c5b63a070acb366",
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


@pytest.mark.parametrize("wall", [False, True])
def test_golden_expert_dataset_bytes(wall, tmp_path):
    path = str(tmp_path / "expert.drld")
    args = ["gen-expert", "--env", "point_reach", "--n", "100", "--seed", "4", "-o", path]
    assert cli.main(args + ["--wall"] * wall) == 0
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == EXPERT_DATASETS[wall]
