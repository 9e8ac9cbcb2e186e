"""Command-line front end.

Subcommands: generate (draw a problem instance), check (contraction
conditions), run (one closed-loop simulation), reproduce-paper (the full
multi-trial experiment), ifs-demo (reference IFS runs with known
invariant measures).  The seed resolves as flag > config file > the
ERGODIC_SMPC_SEED environment variable > 0; check draws nothing and takes
no seed.  Every other run parameter resolves as flag > config file > the
``ExperimentConfig`` field named by the flag's ``dest``.  A bad value or
input file exits 2 before any work starts; a run that diverges exits 1 with
one ``<subcommand> aborted: ...`` line.
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
from .errors import NumericalBlowupError, check_integer
from .experiment import (
    ExperimentConfig,
    atomic_write_text,
    check_problem,
    conditions_json,
    emit_run_artifacts,
    run_experiment,
    simulate_and_report,
    verdict_text,
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
        try:
            return check_integer("seed", seed)
        except ValueError as exc:
            parser.error(f"{source}: {exc}")
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
    path = getattr(args, "config", None)

    def parse(data):
        # The seed rule runs before the config's own checks, so a bad seed
        # in the file exits naming the file.
        data = dict(data)
        data["seed"] = _resolve_seed(args.seed, data, path, parser)
        return data, ExperimentConfig.from_dict(data)

    data, config = {}, ExperimentConfig()
    if path is not None:
        data, config = _read(path, parse, parser)
    try:
        if getattr(args, "smoke", False):
            config = config.smoke()
        updates = {f.name: getattr(args, f.name) for f in fields(config)
                   if getattr(args, f.name, None) is not None}
        updates["seed"] = _resolve_seed(args.seed, data, path, parser)
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
    reports = check_problem(_read(args.problem, MPCProblem.from_dict, parser))
    atomic_write_text(args.out, conditions_json(reports))
    for title, key, constant in [("linear sufficient condition", "linear_sufficient", "bound"),
                                 ("average contraction", "average_contraction", "lambda_hat"),
                                 ("SAA contraction", "saa_contraction", "bound")]:
        value = reports[key].constants[constant]
        print(f"{title}: {reports[key].label} ({constant} "
              f"{'none' if value is None else format(value, '.6g')})")
    print(f"wrote {args.out}")
    return 0


def cmd_run(args, parser: argparse.ArgumentParser) -> int:
    problem = _read(args.problem, MPCProblem.from_dict, parser)
    config = _build_config(args, parser, problem.d)
    report = simulate_and_report(problem, args.out, config, config.seed)
    print(f"diagnostic verdict: {report.verdict}")
    print(f"wrote artifacts under {args.out}")
    return 0


def cmd_reproduce_paper(args, parser: argparse.ArgumentParser) -> int:
    config = _build_config(args, parser)
    try:
        check_integer("--workers", args.workers, 1)
    except ValueError as exc:
        parser.error(str(exc))
    results = run_experiment(config, args.out, workers=args.workers)
    for res in results:
        if res.ok:
            print(f"trial {res.trial_id}: analytic {verdict_text(res.analytic_pass)}, "
                  f"average {verdict_text(res.average_pass)}, "
                  f"{'stabilizing' if res.stabilizing else 'not-stabilizing'}, "
                  f"max last TV {max(res.tv_last):.4f}")
        else:
            print(f"trial {res.trial_id}: FAILED ({res.error})")
    failures = [r for r in results if not r.ok]
    print(f"{len(results) - len(failures)}/{len(results)} trials completed; "
          f"summary in {Path(args.out) / 'summary.csv'}")
    return 1 if failures else 0


def _bernoulli_ifs() -> tuple[DiscreteIFS, np.ndarray]:
    ifs = DiscreteIFS.affine([[[0.5]], [[0.5]]], [[0.0], [0.5]], [0.5, 0.5])
    return ifs, np.array([0.0])


def _cantor_ifs() -> tuple[DiscreteIFS, np.ndarray]:
    ifs = DiscreteIFS.affine([[[1 / 3]], [[1 / 3]]], [[0.0], [2 / 3]], [0.5, 0.5])
    return ifs, np.array([0.0])


DEMOS = {
    "bernoulli": _bernoulli_ifs,
    "cantor": _cantor_ifs,
}


def _load_ifs_file(data: dict) -> tuple[DiscreteIFS, np.ndarray]:
    """Affine IFS description (matrix/offset maps, constant probs) and its x0."""
    maps = data["maps"]
    ifs = DiscreteIFS.affine([m["matrix"] for m in maps], [m["offset"] for m in maps],
                             data["probs"])
    dim = len(maps[0]["offset"])
    x0 = np.asarray(data.get("x0", [0.0] * dim), dtype=float)
    if x0.shape != (dim,):
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
    p_gen.set_defaults(handler=cmd_generate)

    p_check = sub.add_parser("check", help="check contraction conditions")
    p_check.add_argument("problem")
    p_check.add_argument("--out", default="conditions.json")
    p_check.set_defaults(handler=cmd_check)

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
    p_run.set_defaults(handler=cmd_run)

    p_rep = sub.add_parser("reproduce-paper",
                           help="run the full multi-trial reference experiment")
    p_rep.add_argument("--trials", dest="n_trials", type=int)
    add_run_flags(p_rep)
    p_rep.add_argument("--workers", type=int, default=1)
    p_rep.add_argument("--smoke", action="store_true",
                       help="CI scale: 1 trial, 1000 iterations, 20 SAA samples")
    p_rep.add_argument("--out", default="experiment_out")
    p_rep.set_defaults(handler=cmd_reproduce_paper)

    p_demo = sub.add_parser("ifs-demo", help="simulate a reference IFS")
    p_demo.add_argument("name", help=f"one of: {', '.join(sorted(DEMOS))}, "
                                     "or a path to an affine IFS JSON file")
    add_diagnostic_flags(p_demo)
    p_demo.add_argument("--out", default="demo_out")
    p_demo.set_defaults(handler=cmd_ifs_demo, n_iterations=100_000)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except NumericalBlowupError as exc:
        print(f"{args.command} aborted: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
