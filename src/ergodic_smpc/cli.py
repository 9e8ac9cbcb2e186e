"""Command-line front end.

Subcommands: generate (draw a problem instance), check (contraction
conditions), run (one closed-loop simulation), reproduce-paper (the full
multi-trial experiment), ifs-demo (reference IFS runs with known
invariant measures).  The seed resolves as flag > config file > the
ERGODIC_SMPC_SEED environment variable > 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .ergodics import ks_distance_to_cdf
from .errors import NumericalBlowupError
from .experiment import (
    ExperimentConfig,
    atomic_write_text,
    check_problem,
    emit_run_artifacts,
    run_experiment,
    simulate_and_report,
)
from .ifs import DiscreteIFS, simulate
from .smpc import GenerationSpec, MPCProblem, generate_problem

_SEED_ENV = "ERGODIC_SMPC_SEED"


def _env_seed() -> int | None:
    raw = os.environ.get(_SEED_ENV)
    return int(raw) if raw else None


def _resolve_seed(flag_seed: int | None, file_data: dict | None = None) -> int:
    """The seed rule: flag > the file's "seed" key > ERGODIC_SMPC_SEED > 0."""
    file_seed = None if file_data is None else file_data.get("seed")
    for candidate in (flag_seed, file_seed, _env_seed()):
        if candidate is not None:
            return int(candidate)
    return 0


def _load_json(path: str | None) -> dict | None:
    return None if path is None else json.loads(Path(path).read_text())


def _apply_overrides(config: ExperimentConfig, args, file_data: dict | None) -> ExperimentConfig:
    updates = {"seed": _resolve_seed(args.seed, file_data)}
    for flag, name in [("trials", "n_trials"), ("iters", "n_iterations"),
                       ("saa_samples", "saa_samples"), ("bins", "n_bins"),
                       ("windows", "n_windows"), ("tolerance", "tolerance")]:
        value = getattr(args, flag, None)
        if value is not None:
            updates[name] = value
    return replace(config, **updates)


def cmd_generate(args) -> int:
    data = _load_json(args.spec)
    spec = GenerationSpec.default() if data is None else GenerationSpec.from_dict(data)
    problem = generate_problem(spec, seed=_resolve_seed(args.seed, data))
    atomic_write_text(args.out, problem.to_json() + "\n")
    for name, mat in [("A", problem.a), ("Q", problem.q), ("R", problem.r)]:
        spectrum = ", ".join(format(v, ".12g") for v in np.linalg.eigvalsh(mat))
        print(f"{name} spectrum: {spectrum}")
    pattern = ", ".join(f"({r},{c})" for r, c in problem.noise.pattern)
    print(f"noise pattern: {pattern} bound {problem.noise.bound:g}")
    print(f"wrote {args.out}")
    return 0


def cmd_check(args) -> int:
    problem = MPCProblem.from_json(Path(args.problem).read_text())
    seed = _resolve_seed(args.seed)
    analytic, sampled = check_problem(problem, seed=seed,
                                      n_points=args.points, n_pairs=args.pairs)
    combined = {"linear_sufficient": analytic.to_dict(),
                "average_contraction": sampled.to_dict()}
    atomic_write_text(args.out, json.dumps(combined, indent=2) + "\n")
    print(f"linear sufficient condition: {analytic.label} "
          f"(bound {analytic.constants['bound']:.6g})")
    print(f"average contraction: {sampled.label} "
          f"(lambda_hat {sampled.constants['lambda_hat']:.6g})")
    print(f"wrote {args.out}")
    return 0


def cmd_run(args) -> int:
    problem = MPCProblem.from_json(Path(args.problem).read_text())
    data = _load_json(args.config)
    config = _apply_overrides(ExperimentConfig.from_dict(data or {}), args, data)
    try:
        run = simulate_and_report(
            problem, args.out,
            n_iterations=config.n_iterations, saa_samples=config.saa_samples,
            n_bins=config.n_bins, n_windows=config.n_windows,
            tolerance=config.tolerance, burn_in_frac=config.burn_in_frac,
            seed=config.seed, x0=config.x0)
    except NumericalBlowupError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1
    print(f"diagnostic verdict: {run['diagnostic'].verdict}")
    print(f"wrote artifacts under {args.out}")
    return 0


def cmd_reproduce_paper(args) -> int:
    data = _load_json(args.config)
    config = ExperimentConfig.from_dict(data or {})
    if args.smoke:
        config = config.smoke()
    config = _apply_overrides(config, args, data)
    results = run_experiment(config, args.out, workers=args.workers)
    for res in results:
        if res.ok:
            print(f"trial {res.trial_id}: analytic "
                  f"{'pass' if res.analytic_pass else 'fail'}, sampled "
                  f"{'pass' if res.sampled_pass else 'fail'}, "
                  f"{'stabilizing' if res.stabilizing else 'not-stabilizing'}, "
                  f"max last TV {max(res.tv_last):.4f}")
        else:
            print(f"trial {res.trial_id}: FAILED ({res.error})")
    failures = [r for r in results if not r.ok]
    print(f"{len(results) - len(failures)}/{len(results)} trials completed; "
          f"summary in {Path(args.out) / 'summary.csv'}")
    return 1 if failures else 0


def _bernoulli_ifs() -> tuple[DiscreteIFS, np.ndarray]:
    probs = np.array([0.5, 0.5])
    ifs = DiscreteIFS(maps=(lambda x: x / 2, lambda x: (x + 1) / 2),
                      probs=lambda x: probs)
    return ifs, np.array([0.0])


def _cantor_ifs() -> tuple[DiscreteIFS, np.ndarray]:
    probs = np.array([0.5, 0.5])
    ifs = DiscreteIFS(maps=(lambda x: x / 3, lambda x: (x + 2) / 3),
                      probs=lambda x: probs)
    return ifs, np.array([0.0])


DEMOS = {
    "bernoulli": _bernoulli_ifs,
    "cantor": _cantor_ifs,
}


def _load_ifs_file(path: str) -> tuple[DiscreteIFS, np.ndarray]:
    """Affine IFS description: maps as matrix/offset pairs, constant probs."""
    data = json.loads(Path(path).read_text())
    probs = np.asarray(data["probs"], dtype=float)

    def make_map(matrix, offset):
        matrix = np.asarray(matrix, dtype=float)
        offset = np.asarray(offset, dtype=float)
        return lambda x: matrix @ x + offset

    maps = tuple(make_map(m["matrix"], m["offset"]) for m in data["maps"])
    ifs = DiscreteIFS(maps=maps, probs=lambda x: probs)
    dim = len(data["maps"][0]["offset"])
    x0 = np.asarray(data.get("x0", [0.0] * dim), dtype=float)
    return ifs, x0


def cmd_ifs_demo(args, parser: argparse.ArgumentParser) -> int:
    name = args.name
    if name in DEMOS:
        ifs, x0 = DEMOS[name]()
    elif Path(name).is_file():
        ifs, x0 = _load_ifs_file(name)
    else:
        parser.error(f"unknown demo {name!r}; available demos: "
                     f"{', '.join(sorted(DEMOS))} (or a path to an IFS file)")
    seed = _resolve_seed(args.seed)
    traj = simulate(ifs, x0, args.iters, seed)
    run = emit_run_artifacts(traj, args.out, n_bins=args.bins,
                             n_windows=args.windows, tolerance=args.tolerance,
                             burn_in_frac=0.1)
    print(f"diagnostic verdict: {run['diagnostic'].verdict}")
    if name == "bernoulli":
        ks = ks_distance_to_cdf(traj.states[100:, 0], lambda v: np.clip(v, 0.0, 1.0))
        print(f"KS distance to uniform[0,1]: {ks:.5f}")
    print(f"wrote artifacts under {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergodic-smpc",
        description="Closed-loop stochastic MPC as an iterated function system: "
                    "simulation, contraction checks, stabilization diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="draw and save a problem instance")
    p_gen.add_argument("--spec", help="generation spec JSON (defaults to the "
                                      "reference four-state instance)")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out", default="problem.json")

    p_check = sub.add_parser("check", help="check contraction conditions")
    p_check.add_argument("problem")
    p_check.add_argument("--seed", type=int)
    p_check.add_argument("--points", type=int, default=128)
    p_check.add_argument("--pairs", type=int, default=400)
    p_check.add_argument("--out", default="conditions.json")

    def add_run_flags(p, with_trials=False):
        if with_trials:
            p.add_argument("--trials", type=int)
        p.add_argument("--iters", type=int)
        p.add_argument("--saa-samples", dest="saa_samples", type=int)
        p.add_argument("--bins", type=int)
        p.add_argument("--windows", type=int)
        p.add_argument("--tolerance", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--config", help="experiment config JSON; flags override")

    p_run = sub.add_parser("run", help="simulate one closed loop and emit artifacts")
    p_run.add_argument("problem")
    add_run_flags(p_run)
    p_run.add_argument("--out", default="run_out")

    p_rep = sub.add_parser("reproduce-paper",
                           help="run the full multi-trial reference experiment")
    add_run_flags(p_rep, with_trials=True)
    p_rep.add_argument("--workers", type=int, default=1)
    p_rep.add_argument("--smoke", action="store_true",
                       help="CI scale: 1 trial, 1000 iterations, 20 SAA samples")
    p_rep.add_argument("--out", default="experiment_out")

    p_demo = sub.add_parser("ifs-demo", help="simulate a reference IFS")
    p_demo.add_argument("name", help=f"one of: {', '.join(sorted(DEMOS))}, "
                                     "or a path to an affine IFS JSON file")
    p_demo.add_argument("--iters", type=int, default=100_000)
    p_demo.add_argument("--bins", type=int, default=10)
    p_demo.add_argument("--windows", type=int, default=4)
    p_demo.add_argument("--tolerance", type=float, default=0.05)
    p_demo.add_argument("--seed", type=int)
    p_demo.add_argument("--out", default="demo_out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate":
        return cmd_generate(args)
    if args.command == "check":
        return cmd_check(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "reproduce-paper":
        return cmd_reproduce_paper(args)
    if args.command == "ifs-demo":
        return cmd_ifs_demo(args, parser)
    parser.error(f"unknown command {args.command!r}")
    return 2


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
