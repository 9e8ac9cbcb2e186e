"""Command-line front end.

Subcommands: generate (draw a problem instance), check (contraction
conditions), run (one closed-loop simulation), reproduce-paper (the full
multi-trial experiment), ifs-demo (reference IFS runs with known
invariant measures).  The seed resolves as flag > config file > the
ERGODIC_SMPC_SEED environment variable > 0.  Every other run parameter
resolves as flag > config file > the ``ExperimentConfig`` field named by the
flag's ``dest``.  A bad value or input file exits 2 before any work starts.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .ergodics import ks_distance_to_cdf
from .errors import NumericalBlowupError
from .experiment import (
    ExperimentConfig,
    atomic_write_text,
    check_problem,
    conditions_json,
    emit_run_artifacts,
    run_experiment,
    simulate_and_report,
)
from .ifs import DiscreteIFS, simulate
from .smpc import GenerationSpec, MPCProblem, generate_problem

_SEED_ENV = "ERGODIC_SMPC_SEED"


def _resolve_seed(flag_seed: int | None, file_data: dict, file_name: str | None,
                  parser: argparse.ArgumentParser) -> int:
    """The seed rule: flag > the file's "seed" key > ERGODIC_SMPC_SEED > 0.

    A seed that is not an integer exits 2 naming the file or the variable.
    """
    for seed, source in ((flag_seed, "--seed"), (file_data.get("seed"), file_name),
                         (os.environ.get(_SEED_ENV) or None, _SEED_ENV)):
        if seed is None:
            continue
        if isinstance(seed, str) and re.fullmatch(r"\s*[+-]?\d+\s*", seed):
            seed = int(seed)
        if isinstance(seed, bool) or not isinstance(seed, int):
            parser.error(f"{source}: seed must be an integer, got {seed!r}")
        return seed
    return 0


def _read(path: str, parse, parser: argparse.ArgumentParser):
    """``parse`` of the JSON in ``path``; a missing or bad file exits 2."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except (OSError, ValueError, LookupError, TypeError) as exc:
        parser.error(f"{path}: {type(exc).__name__}: {exc}")


def _build_config(args, parser: argparse.ArgumentParser,
                  dim: int | None = None) -> ExperimentConfig:
    """Defaults, then the --config file, then --smoke, then flags.

    ``x0`` must have ``dim`` entries, by default the generation spec's ``d``.
    An invalid file or value exits 2 through ``parser.error``.
    """
    data, config = {}, ExperimentConfig()
    if getattr(args, "config", None) is not None:
        data, config = _read(args.config, lambda d: (d, ExperimentConfig.from_dict(d)), parser)
    try:
        if getattr(args, "smoke", False):
            config = config.smoke()
        updates = {f.name: getattr(args, f.name) for f in fields(config)
                   if getattr(args, f.name, None) is not None}
        updates["seed"] = _resolve_seed(args.seed, data, getattr(args, "config", None), parser)
        config = replace(config, **updates)
        config.check_x0(config.generation.d if dim is None else dim)
        return config
    except ValueError as exc:
        parser.error(str(exc))


def cmd_generate(args, parser: argparse.ArgumentParser) -> int:
    data, spec = {}, GenerationSpec.default()
    if args.spec is not None:
        data, spec = _read(args.spec, lambda d: (d, GenerationSpec.from_dict(d)), parser)
    problem = generate_problem(spec, seed=_resolve_seed(args.seed, data, args.spec, parser))
    atomic_write_text(args.out, problem.to_json() + "\n")
    for name, mat in [("A", problem.a), ("Q", problem.q), ("R", problem.r)]:
        spectrum = ", ".join(format(v, ".12g") for v in np.linalg.eigvalsh(mat))
        print(f"{name} spectrum: {spectrum}")
    pattern = ", ".join(f"({r},{c})" for r, c in problem.noise.pattern)
    print(f"noise pattern: {pattern} bound {problem.noise.bound:g}")
    print(f"wrote {args.out}")
    return 0


def cmd_check(args, parser: argparse.ArgumentParser) -> int:
    config = _build_config(args, parser)
    problem = _read(args.problem, MPCProblem.from_dict, parser)
    analytic, sampled = check_problem(problem, config.seed, config)
    atomic_write_text(args.out, conditions_json(analytic, sampled))
    print(f"linear sufficient condition: {analytic.label} "
          f"(bound {analytic.constants['bound']:.6g})")
    print(f"average contraction: {sampled.label} "
          f"(lambda_hat {sampled.constants['lambda_hat']:.6g})")
    print(f"wrote {args.out}")
    return 0


def cmd_run(args, parser: argparse.ArgumentParser) -> int:
    problem = _read(args.problem, MPCProblem.from_dict, parser)
    config = _build_config(args, parser, problem.d)
    try:
        report = simulate_and_report(problem, args.out, config, config.seed)
    except NumericalBlowupError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1
    print(f"diagnostic verdict: {report.verdict}")
    print(f"wrote artifacts under {args.out}")
    return 0


def cmd_reproduce_paper(args, parser: argparse.ArgumentParser) -> int:
    config = _build_config(args, parser)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
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
    ifs = DiscreteIFS(maps=(lambda x: x / 2, lambda x: (x + 1) / 2),
                      probs=np.array([0.5, 0.5]))
    return ifs, np.array([0.0])


def _cantor_ifs() -> tuple[DiscreteIFS, np.ndarray]:
    ifs = DiscreteIFS(maps=(lambda x: x / 3, lambda x: (x + 2) / 3),
                      probs=np.array([0.5, 0.5]))
    return ifs, np.array([0.0])


DEMOS = {
    "bernoulli": _bernoulli_ifs,
    "cantor": _cantor_ifs,
}


def _load_ifs_file(data: dict) -> tuple[DiscreteIFS, np.ndarray]:
    """Affine IFS description (matrix/offset maps, constant probs), checked at x0."""
    def make_map(matrix, offset):
        matrix = np.asarray(matrix, dtype=float)
        offset = np.asarray(offset, dtype=float)
        return lambda x: matrix @ x + offset

    maps = tuple(make_map(m["matrix"], m["offset"]) for m in data["maps"])
    ifs = DiscreteIFS(maps=maps, probs=data["probs"])
    dim = len(data["maps"][0]["offset"])
    x0 = np.asarray(data.get("x0", [0.0] * dim), dtype=float)
    if any(np.shape(f(x0)) != x0.shape for f in maps):
        raise ValueError(f"every map must keep the state's dimension {x0.shape}")
    return ifs, x0


def cmd_ifs_demo(args, parser: argparse.ArgumentParser) -> int:
    name = args.name
    if name in DEMOS:
        ifs, x0 = DEMOS[name]()
    elif Path(name).is_file():
        ifs, x0 = _read(name, _load_ifs_file, parser)
    else:
        parser.error(f"unknown demo {name!r}; available demos: "
                     f"{', '.join(sorted(DEMOS))} (or a path to an IFS file)")
    config = _build_config(args, parser)
    traj = simulate(ifs, x0, config.n_iterations, config.seed)
    report = emit_run_artifacts(traj, args.out, config)
    print(f"diagnostic verdict: {report.verdict}")
    if name == "bernoulli":
        burn = report.windows[0][0]  # the diagnostic's burn-in
        ks = ks_distance_to_cdf(traj.states[burn:, 0], lambda v: np.clip(v, 0.0, 1.0))
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
    p_gen.set_defaults(command=cmd_generate)

    p_check = sub.add_parser("check", help="check contraction conditions")
    p_check.add_argument("problem")
    p_check.add_argument("--seed", type=int)
    p_check.add_argument("--points", dest="check_points", type=int)
    p_check.add_argument("--pairs", dest="check_pairs", type=int)
    p_check.add_argument("--out", default="conditions.json")
    p_check.set_defaults(command=cmd_check)

    def add_diagnostic_flags(p):
        p.add_argument("--iters", dest="n_iterations", type=int)
        p.add_argument("--bins", dest="n_bins", type=int)
        p.add_argument("--windows", dest="n_windows", type=int)
        p.add_argument("--tolerance", type=float)
        p.add_argument("--seed", type=int)

    def add_run_flags(p):
        add_diagnostic_flags(p)
        p.add_argument("--saa-samples", dest="saa_samples", type=int)
        p.add_argument("--config", help="experiment config JSON; flags override")

    p_run = sub.add_parser("run", help="simulate one closed loop and emit artifacts")
    p_run.add_argument("problem")
    add_run_flags(p_run)
    p_run.add_argument("--out", default="run_out")
    p_run.set_defaults(command=cmd_run)

    p_rep = sub.add_parser("reproduce-paper",
                           help="run the full multi-trial reference experiment")
    p_rep.add_argument("--trials", dest="n_trials", type=int)
    add_run_flags(p_rep)
    p_rep.add_argument("--workers", type=int, default=1)
    p_rep.add_argument("--smoke", action="store_true",
                       help="CI scale: 1 trial, 1000 iterations, 20 SAA samples")
    p_rep.add_argument("--out", default="experiment_out")
    p_rep.set_defaults(command=cmd_reproduce_paper)

    p_demo = sub.add_parser("ifs-demo", help="simulate a reference IFS")
    p_demo.add_argument("name", help=f"one of: {', '.join(sorted(DEMOS))}, "
                                     "or a path to an affine IFS JSON file")
    add_diagnostic_flags(p_demo)
    p_demo.add_argument("--out", default="demo_out")
    p_demo.set_defaults(command=cmd_ifs_demo, n_iterations=100_000)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.command(args, parser)


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
