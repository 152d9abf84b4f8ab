#!/usr/bin/env python3
"""drail-lab benchmark: runs the lab's commands as a user does and reports
end-to-end throughput, or, with --trace 1, a per-layer split from spans.

    python3 bench/run.py --workload reach-drail --seed 1 --seconds 20 --trace 0

A run repeats whole rounds of one workload until --seconds have passed
(at least one round). A round, all from --seed, runs:

- set-up: `drail-lab gen-expert` for the workload's task, three times
  over the round (each a fresh process; the median wall is `setup_s`);
- the three discriminator kinds fitted on sine expert pairs against
  uniform pairs (bench/sine_fit.py), then `drail-lab reward-map` of each,
  three times over the round;
- `drail-lab train` (method drail) on the workload's task, then for
  reach-drail a `drail-lab eval` on held-out seeds; a rerun from a run's
  manifest must give the same bytes.

Every command is checked (bench/checks.py). The last stdout line is the
JSON result; the full result, with an environment stamp and every check,
also goes to bench/out/, and so do a traced run's spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# one BLAS thread and no labeling threads, before numpy is imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("DRAIL_THREADS", None)

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
FIT_SCRIPT = os.path.join(BENCH, "sine_fit.py")

EVAL_EPISODES = 100
EVAL_SEED_OFFSET = 1_000_000  # eval seeds seed + 1e6: none feeds training
SINE_EXPERT_PAIRS = 5000
BLIND_MAP_RES = (11, 13)


# why each workload exists is in BENCHMARK.json and bench/README.md
@dataclass(frozen=True)
class Workload:
    env: str  # task of gen-expert and train
    expert_n: int  # gen-expert --n
    train_steps: int  # total_env_steps of the timed train
    rerun_steps: int  # total_env_steps of the train rerun for the byte check
    eval_floor: float | None  # success floor of the trained policy
    map_res: tuple[int, int]
    map_samples: int  # reward-map --samples: diffusion draws per cell


WORKLOADS = {
    "reach-drail": Workload(
        env="point_reach", expert_n=100, train_steps=131072, rerun_steps=2048,
        eval_floor=0.5, map_res=(21, 25), map_samples=256),
    "sine-disc": Workload(
        env="sine", expert_n=SINE_EXPERT_PAIRS, train_steps=16384, rerun_steps=16384,
        eval_floor=None, map_res=(101, 121), map_samples=4),
}

KINDS = ("drail", "diffail", "gail")
END_TO_END = ("train_env_steps_per_s", *(f"fit_pairs_per_s.{k}" for k in KINDS),
              "reward_map_cells_per_s", "setup_s", "peak_rss_mb")
UNITS = {"train_env_steps_per_s": "1/s", "reward_map_cells_per_s": "1/s", "setup_s": "s",
         "peak_rss_mb": "MB", **{f"fit_pairs_per_s.{k}": "1/s" for k in KINDS}}


class CommandFailed(RuntimeError):
    pass


class Runner:
    """Runs lab commands as fresh processes, as a user does, or, given a
    tracer, in this process under it. Counts attempts and failures."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.peak_kb = 0
        self.train_walls: list[float] = []

    def cli(self, args: list[str]) -> tuple[float, str]:
        return self._run("cli", args)

    def fit(self, args: list[str]) -> tuple[float, str]:
        return self._run("fit", args)

    def _run(self, what: str, args: list[str]) -> tuple[float, str]:
        self.attempted += 1
        try:
            if self.tracer is not None:
                wall, out = self._in_process(what, args)
            else:
                wall, out = self._subprocess(what, args)
        except CommandFailed:
            self.failed += 1
            raise
        if what == "cli" and args[0] == "train":
            self.train_walls.append(wall)
        return wall, out

    def _subprocess(self, what: str, args: list[str]) -> tuple[float, str]:
        prog = ["-m", "drail_lab.cli"] if what == "cli" else [FIT_SCRIPT]
        env = dict(os.environ, PYTHONPATH=SRC)
        with open(os.devnull, "rb") as null_in, \
                open(os.path.join(OUT, f".stdout-{os.getpid()}"), "w+") as out, \
                open(os.path.join(OUT, f".stderr-{os.getpid()}"), "w+") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *prog, *args], stdin=null_in, stdout=out,
                                    stderr=err, env=env, cwd=ROOT)
            # wait4 gives this child's own peak resident set
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            raise CommandFailed(f"{what} {' '.join(args)}: exit {proc.returncode}: {stderr.strip()[-400:]}")
        return wall, stdout

    def _in_process(self, what: str, args: list[str]) -> tuple[float, str]:
        import sine_fit
        from drail_lab import cli

        buf = io.StringIO()
        name = f"bench.{args[0] if what == 'cli' else 'fit'}"
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), self.tracer.span(name):
            code = cli.main(args) if what == "cli" else sine_fit.main(args)
        wall = time.perf_counter() - t0
        if code != 0:
            raise CommandFailed(f"{what} {' '.join(args)}: exit {code}")
        return wall, buf.getvalue()


def write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def train(runner: Runner, rdir: str, name: str, config: dict) -> tuple[str, float]:
    cfg_path = os.path.join(rdir, f"{name}.json")
    write_json(cfg_path, config)
    run_dir = os.path.join(rdir, name)
    wall, _ = runner.cli(["train", "--config", cfg_path, "-o", run_dir])
    return run_dir, wall


def run_round(w: Workload, seed: int, runner: Runner, rdir: str, samples: dict, checks, blind_ckpt: str) -> None:
    """One whole round of the workload; timings go to samples, checks run
    on what each command wrote. The fitted models are checked apart, by
    check_fits, because those checks call into the lab.

    Repeated commands (set-up, maps, the train rerun) are spread over the
    round, so that their median does not rest on one slow spell of the
    machine."""
    import checks as ck

    os.makedirs(rdir)
    expert = os.path.join(rdir, "expert.drld")
    digests = set()

    def setup() -> None:
        wall, _ = runner.cli(["gen-expert", "--env", w.env, "--n", str(w.expert_n), "--seed", str(seed),
                              "-o", expert])
        samples["setup_s"].append(wall)
        digests.add(ck.sha256(expert))

    res = f"{w.map_res[0]}x{w.map_res[1]}"
    maps: list[tuple[str, ...]] = []

    def reward_maps() -> None:
        wall = 0.0
        for kind in KINDS:
            csv = os.path.join(rdir, f"{kind}-{len(maps)}.csv")
            wall += runner.cli(["reward-map", os.path.join(rdir, f"{kind}.drlp"), "--resolution", res,
                                "--samples", str(w.map_samples), "--seed", str(seed), "-o", csv])[0]
            ck.check_map(checks, kind, csv, w.map_res)
        samples["reward_map_cells_per_s"].append(len(KINDS) * w.map_res[0] * w.map_res[1] / wall)
        maps.append(tuple(ck.sha256(os.path.join(rdir, f"{kind}-{len(maps)}.csv")) for kind in KINDS))

    setup()
    sine_expert = expert
    if w.env != "sine":
        sine_expert = os.path.join(rdir, "sine.drld")
        runner.cli(["gen-expert", "--env", "sine", "--n", str(SINE_EXPERT_PAIRS), "--seed", str(seed),
                    "-o", sine_expert])
    _, out = runner.fit(["--expert", sine_expert, "--seed", str(seed), "--out", rdir])
    fit = json.loads(out.strip().splitlines()[-1])
    for kind in KINDS:
        samples[f"fit_pairs_per_s.{kind}"].append(fit["pairs_per_call"][kind] / fit["median_call_s"][kind])
    reward_maps()
    setup()

    # one evaluation, at the end: the figure then does not hang on when a
    # seed's policy starts to succeed (failing episodes run 200 steps)
    config = {"method": "drail", "env": w.env, "expert_path": expert, "seed": seed,
              "eval_interval": w.train_steps}
    run_dir, wall = train(runner, rdir, "run", dict(config, total_env_steps=w.train_steps))
    samples["train_env_steps_per_s"].append(w.train_steps / wall)
    ck.check_metrics_csv(checks, os.path.join(run_dir, "metrics.csv"), w.train_steps)
    if w.eval_floor is not None:
        _, out = runner.cli(["eval", os.path.join(run_dir, "policy.drlp"), "--env", w.env,
                             "--episodes", str(EVAL_EPISODES), "--seed", str(EVAL_SEED_OFFSET + seed)])
        ck.check_eval(checks, out, w.eval_floor)
    reward_maps()

    base = run_dir
    if w.rerun_steps != w.train_steps:
        base, _ = train(runner, rdir, "short", dict(config, total_env_steps=w.rerun_steps))
    rerun_dir = os.path.join(rdir, "rerun")
    wall, _ = runner.cli(["train", "--config", os.path.join(base, "manifest.json"), "-o", rerun_dir])
    if base == run_dir:
        samples["train_env_steps_per_s"].append(w.train_steps / wall)
    checks.add("train rerun from manifest is byte-identical", ck.run_digests(base) == ck.run_digests(rerun_dir),
               "sha256 of metrics.csv, policy.drlp, discriminator.drlp")
    setup()
    checks.add("gen-expert reruns are byte-identical", len(digests) == 1, "3 runs")
    reward_maps()
    checks.add("reward-map reruns are byte-identical", len(set(maps)) == 1, f"{len(maps)} passes")

    blind_csv = os.path.join(rdir, "blind.csv")
    runner.cli(["reward-map", blind_ckpt, "--resolution", f"{BLIND_MAP_RES[0]}x{BLIND_MAP_RES[1]}",
                "--samples", "2", "--seed", str(seed), "-o", blind_csv])
    ck.check_blind_map(checks, blind_csv)


def check_fits(rdir: str, seed: int, checks) -> None:
    import checks as ck

    for kind in KINDS:
        ck.check_fitted(checks, kind, os.path.join(rdir, f"{kind}.drlp"), seed)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in (*THREAD_VARS, "DRAIL_THREADS")},
        "machine": platform.machine(),
    }


def make_blind_checkpoint(path: str, seed: int) -> None:
    """A DRAIL classifier with label_dim 0 cannot tell real from fake."""
    from drail_lab import discriminators as dm

    dm.save_discriminator(path, dm.build_drail(1, 1, label_dim=0, sample_count=4, seed=seed))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="drail-lab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "drail_lab", "cli.py")):
        print(f"error: the lab's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks as ck

    w = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = os.path.join(OUT, f"work-{tag}")
    os.makedirs(work)
    checks = ck.Checks()
    try:
        blind = os.path.join(work, "blind.drlp")
        make_blind_checkpoint(blind, args.seed)
        if args.trace:
            runner, metrics = traced(w, args.seed, work, checks, blind, os.path.join(OUT, f"spans-{tag}.npz"))
        else:
            runner, metrics = untraced(w, args.seed, args.seconds, work, checks, blind)
    except CommandFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        for stream in ("stdout", "stderr"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(OUT, f".{stream}-{os.getpid()}"))

    for name, ok, detail in checks.results:
        print(f"check {'PASS' if ok else 'FAIL'} | {name} | {detail}")
    result = {"correct": checks.ok, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    stamp = environment()
    write_json(os.path.join(OUT, f"result-{tag}.json"),
               dict(result, environment=stamp, workload=args.workload, seed=args.seed,
                    checks=[{"name": n, "ok": ok, "detail": d} for n, ok, d in checks.results]))
    print(json.dumps({"environment": stamp}))
    print(json.dumps(result))
    return 0


def untraced(w: Workload, seed: int, seconds: float, work: str, checks, blind: str):
    runner = Runner()
    samples = _samples()
    t0 = time.monotonic()
    rounds = 0
    while rounds == 0 or time.monotonic() - t0 < seconds:
        rdir = os.path.join(work, f"round{rounds}")
        run_round(w, seed, runner, rdir, samples, checks, blind)
        check_fits(rdir, seed, checks)
        rounds += 1
    metrics = {name: (statistics.median(vals), UNITS[name]) for name, vals in samples.items()}
    metrics["peak_rss_mb"] = (runner.peak_kb / 1024.0, UNITS["peak_rss_mb"])
    return runner, metrics


def traced(w: Workload, seed: int, work: str, checks, blind: str, spans_path: str):
    """One round with every public lab function wrapped, all in this
    process; the spans are saved to spans_path. Its wall time against an
    untraced run's shows the overhead."""
    import checks as ck
    import tracing

    tracer = tracing.Tracer()
    runner = Runner(tracer)
    rdir = os.path.join(work, "traced")
    t0 = time.perf_counter()
    with tracer:
        run_round(w, seed, runner, rdir, _samples(), checks, blind)
    wall = time.perf_counter() - t0
    check_fits(rdir, seed, checks)
    table = tracing.SpanTable(tracer)
    table.save(spans_path)
    metrics = tracing.layer_metrics(table)
    tracing.check_accounting(checks, table, runner.train_walls)
    ck.check_gae(checks, tracer.captured["policy_opt.compute_gae"])
    metrics.update({
        "trace.wall_s": (wall, "s"),
        "trace.train_wall_s": (runner.train_walls[0], "s"),
        "trace.spans": (len(table), "count"),
    })
    return runner, metrics


def _samples() -> dict:
    return {name: [] for name in END_TO_END if name != "peak_rss_mb"}


if __name__ == "__main__":
    sys.exit(main())
