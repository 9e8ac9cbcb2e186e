"""The benchmark's workloads: inputs built from a seed, one round, its checks.

A round is the unit that is timed: one ``reproduce-paper`` invocation, one
``run_ensemble`` call, or one ``ifs-demo`` invocation, each called in
process through the package's public entry points.  Round ``i`` of a run
takes its seed from ``(seed, i)``, so the same ``--seed`` gives the same
inputs round by round, and no two rounds of a run repeat the same work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np

from ergodic_smpc import cli, ifs, smpc
from ergodic_smpc.experiment import ExperimentConfig

import checks

# ensemble-smpc: particles, horizon, SAA sample count and the half-width of
# the uniform box around m* that the particles start in.
PARTICLES = 1000
ENSEMBLE_STEPS = 20
ENSEMBLE_SAA = 100
ENSEMBLE_SPREAD = 0.5
# ifs-demo's default trajectory length.
DEMO_STEPS = 100_000


def round_seed(seed: int, index: int) -> int:
    """32-bit seed of round ``index`` of a run with master ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class PaperWorkload:
    """reproduce-paper on the default configuration, one trial per worker."""

    def __init__(self, seed: int, workers: int):
        self.seed = seed
        self.workers = workers
        # One trial per worker: short rounds, and no worker of the pool idles.
        self.trials = workers
        self.ops_per_round = self.trials
        self.steps_per_round = self.trials * ExperimentConfig().n_iterations

    def setup(self) -> None:
        pass

    def run(self, index: int, out: Path, serial: bool = False, tracer=None):
        workers = 1 if serial else self.workers
        return _quiet_cli(["reproduce-paper", "--trials", str(self.trials),
                           "--workers", str(workers),
                           "--seed", str(round_seed(self.seed, index)), "--out", str(out)])

    def check(self, out: Path, result) -> dict:
        outcome = checks.check_experiment(out)
        if result != 0 and not outcome["errors"]:
            outcome["problems"].append(f"reproduce-paper exited {result} with no failed trial")
        outcome["digest"] = checks.tree_digest(out)
        outcome["bytes"], outcome["files"] = checks.tree_size(out)
        return outcome


class EnsembleWorkload:
    """run_ensemble of the SAA closed loop from a spread initial measure."""

    def __init__(self, seed: int):
        self.seed = seed
        self.ops_per_round = PARTICLES
        self.steps_per_round = PARTICLES * ENSEMBLE_STEPS

    def setup(self) -> None:
        problem = smpc.generate_problem(smpc.GenerationSpec.default(), seed=self.seed)
        self.problem = problem.to_dict()
        self.loop = smpc.smpc_closed_loop_ifs(problem, ENSEMBLE_SAA)
        center = checks.stationary_mean(self.problem)
        offsets = np.random.default_rng(self.seed).uniform(
            -ENSEMBLE_SPREAD, ENSEMBLE_SPREAD, size=(PARTICLES, center.size))
        self.initial = center + offsets

    def run(self, index: int, out: Path, serial: bool = False, tracer=None):
        loop = tracer.wrap_system(self.loop) if tracer is not None else self.loop
        return ifs.run_ensemble(loop, self.initial, ENSEMBLE_STEPS,
                                seed=round_seed(self.seed, index))

    def check(self, out: Path, measure) -> dict:
        h = hashlib.sha256()
        for edges, props in zip(measure.edges, measure.proportions):
            h.update(edges.tobytes())
            h.update(props.tobytes())
        return {"attempted": PARTICLES, "failed": 0,
                "problems": checks.check_ensemble(measure, self.problem, self.initial,
                                                  ENSEMBLE_STEPS),
                "digest": h.hexdigest()}


class DemoWorkload:
    """ifs-demo bernoulli at its default length."""

    def __init__(self, seed: int):
        self.seed = seed
        self.ops_per_round = 1
        self.steps_per_round = DEMO_STEPS

    def setup(self) -> None:
        pass

    def run(self, index: int, out: Path, serial: bool = False, tracer=None):
        return _quiet_cli(["ifs-demo", "bernoulli", "--iters", str(DEMO_STEPS),
                           "--seed", str(round_seed(self.seed, index)), "--out", str(out)])

    def check(self, out: Path, result) -> dict:
        problems = [] if result == 0 else [f"ifs-demo exited {result}"]
        problems += checks.check_bernoulli(out)
        size, files = checks.tree_size(out)
        return {"attempted": 1, "failed": 0, "problems": problems,
                "digest": checks.tree_digest(out), "bytes": size, "files": files}


def make(name: str, seed: int, nproc: int):
    """The workload called ``name``, with inputs keyed by ``seed``."""
    if name == "paper-reference":
        return PaperWorkload(seed, workers=1)
    if name == "paper-parallel":
        return PaperWorkload(seed, workers=nproc)
    if name == "ensemble-smpc":
        return EnsembleWorkload(seed)
    if name == "bernoulli-demo":
        return DemoWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
