"""Golden bytes: sha256 of the run artifacts of small fixed training runs.

A change that keeps the float operations, RNG draws and checks of the
training loop keeps these hashes. A change that moves them on purpose
(a new RNG stream, a reordered sum) updates the table in the same change
and says why. The hashes hold for one machine and numpy/BLAS build.
"""

import hashlib
import json
import os
import subprocess
import sys

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

# The two drail runs were last re-recorded when DRAIL's denoiser traded its
# ten label input columns for a real and a fake output head: another
# network, so other init values, predictions and updates. Every drail
# artifact moved but the point_reach final_eval.json, which reads success
# 0.0 before and after. The gail, diffail and bc runs and the expert
# datasets, which have no condition label, did not move. Before that, the
# four adversarial runs moved when the PPO learning rate default went from
# 1e-4 to 2e-4 (these configs pin minibatch_size and epochs, not lr) and a
# run's lockstep envs from gcd(rollout_steps, 16) to gcd(rollout_steps, 64).
GOLDEN = {
    "bc-point_reach": {
        "metrics.csv": "9096cfd4aa728bb45e5d43d268156923b0e3165a529380484f7cde47b584d41e",
        "policy.drlp": "170b2e62760a7b7748c153efe05f27df89e09f460b94ca04a7d3cc57c766c42d",
        "final_eval.json": "b98cf1ebb3bcc69678e2b2ee2caacd3853c2e7d3fdf66ae06f2da33593c149de",
    },
    "diffail-point_reach": {
        "metrics.csv": "9517aa8fb8b6cea6fb14f67756bb2c5f3993b766293c6e052ef45512d88111f8",
        "policy.drlp": "2ff565b6844e99b8fa289e80fdd23360ccc06280d1550903fe397024063ed459",
        "discriminator.drlp": "bb1ff399ea2f0e722ee658b99dfb1d40f8c6f0af1e56d401e076774566a9974d",
        "final_eval.json": "482df8cfa60aebe0d5debc8311d1f226ef8c1f3e364c4e6938a6e56264c12f68",
    },
    "drail-point_reach": {
        "metrics.csv": "ab842bbf53624b7062794d6d70dde2fcc247a7372b0d200570e2c0c3c9efbe8c",
        "policy.drlp": "697e5df843fc46979d5ffadd5baa7a00d9615950e0aed513333f9f6de1161572",
        "discriminator.drlp": "7b9361b0a60a327b3372c52c79373424bd172e6575ae49a90c07a71d9e806f57",
        "final_eval.json": "482df8cfa60aebe0d5debc8311d1f226ef8c1f3e364c4e6938a6e56264c12f68",
    },
    "drail-sine": {
        "metrics.csv": "a15ee2eee2882c2108b7b8db031c5457bbd6d51120f7210775041d691fb0aa6e",
        "policy.drlp": "94e992000cdc3beb4e72e119af18ad0b1407c87a9ae436faf85d2ad0ccc03da9",
        "discriminator.drlp": "f7f597f37c572505d480068a50b8fe80584fa24517f99e00da544f8e360614eb",
        "final_eval.json": "c8e8b9918ae39e3cf8baf0ef762b9b4aa35c027c9bab1824e6393753285195e4",
    },
    "gail-point_reach": {
        "metrics.csv": "4c18dc7793b704742bcba12d6b204eb98947957a099b44a083944baf95d30728",
        "policy.drlp": "3c41138f3daf2e89b32cbb2c345a759f6017fb1fe5e815f498421c4b396a4e99",
        "discriminator.drlp": "102bee10b5c3b0b9051a5333c7335fd50409130c0e159a52cbd7b0b9cfd8ece7",
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


# runs cli commands, given as a JSON list of argument lists, in a process
# of its own, so that the BLAS thread count set in its environment holds
_CLI_RUNS = """
import json, sys
from drail_lab import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
"""


def test_bytes_do_not_depend_on_the_blas_thread_count(experts, tmp_path):
    # the drail-sine case and its gail twin, each trained and its 101x121
    # map drawn under one and under three BLAS threads (never more). The
    # twin keeps the default 64-64 net, whose map's bytes would move with
    # the thread count were it walked in one piece; the 32-32 nets' would not.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    case = CASES["drail-sine"][1]
    configs = {"drail": case, "gail": dict(case, method="gail", disc_hidden=[64, 64])}
    digests = {}
    for threads in (1, 3):
        root = tmp_path / f"threads-{threads}"
        root.mkdir()
        commands = []
        for method in ("drail", "gail"):
            cfg_path = root / f"{method}.json"
            cfg_path.write_text(json.dumps(dict(configs[method], expert_path=experts["sine"])))
            run_dir = str(root / method)
            commands.append(["train", "--config", str(cfg_path), "-o", run_dir])
            commands.append(["reward-map", os.path.join(run_dir, "discriminator.drlp"), "--resolution", "101x121",
                             "--samples", "4", "-o", os.path.join(run_dir, "map.csv")])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        subprocess.run([sys.executable, "-c", _CLI_RUNS, json.dumps(commands)], env=env, capture_output=True,
                       check=True)
        for method in ("drail", "gail"):
            with open(root / method / "map.csv", "rb") as fh:
                map_digest = hashlib.sha256(fh.read()).hexdigest()
            digests[threads, method] = dict(run_digests(str(root / method)), map=map_digest)
    for method in ("drail", "gail"):
        assert len(digests[1, method]) == 5
        assert digests[3, method] == digests[1, method], method
