#!/usr/bin/env python3
"""Run one benchmark workload, check its outputs and print its metrics.

    python3 bench/run.py --workload paper-reference --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20

Run from the root of a checkout; the package is imported from ``src/``.
A run repeats rounds of its workload (see ``workloads.py``) until
``--seconds`` have passed, checks every round's output, and prints as its
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics, and the
spans are written under ``.bench_out/<workload>/``.  ``--workload all``
runs every workload, untraced and traced, each in its own process.
"""

import os

# One BLAS/OpenMP thread per process, so that pool workers do not
# oversubscribe the cores.  Set before numpy loads; children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
import traceback  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 5
WORKLOADS = ("paper-reference", "paper-parallel", "ensemble-smpc", "bernoulli-demo")

# A set-up probe: a fresh interpreter that imports the package and builds
# one workload's inputs, then exits.
PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
         "workloads.make(sys.argv[3], int(sys.argv[4]), int(sys.argv[5])).setup()")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def _environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "commit": _commit()}


def _plan(workload: str, trace: bool) -> list[tuple[str, bool]]:
    """(label, traced) rounds run on each round index.

    Traced runs pair every traced round with an untraced one on the same
    inputs, which gives the tracing overhead; paper-parallel adds a serial
    untraced round, which gives the pool overhead.
    """
    if not trace:
        return [("main", False)]
    if workload == "paper-parallel":
        return [("main", False), ("serial", False), ("serial", True)]
    return [("main", False), ("main", True)]


def _run_round(wl, index: int, label: str, tracer, out_root: Path) -> dict:
    """Run and time one round; its output is checked later by ``_check_round``."""
    out = out_root / f"round_{index:03d}_{label}{'_traced' if tracer else ''}"
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        result = wl.run(index, out, serial=label == "serial", tracer=tracer)
        error = None
    except Exception:  # a round that raises counts its operations as failed
        result, error = None, traceback.format_exc()
    wall = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    return {"index": index, "label": label, "traced": tracer is not None, "wall_s": wall,
            "out": out, "result": result, "error": error}


def _check_round(wl, r: dict) -> dict:
    if r["error"] is None:
        outcome = wl.check(r["out"], r["result"])
    else:
        outcome = {"attempted": wl.ops_per_round, "failed": wl.ops_per_round,
                   "errors": [r["error"]], "problems": []}
    shutil.rmtree(r["out"], ignore_errors=True)
    return {**r, **outcome}


def _setup_seconds(name: str, seed: int, nproc: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", PROBE, str(SRC), str(BENCH), name,
                        str(seed), str(nproc)], cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def _walls(rounds, label: str, traced: bool) -> list[float]:
    return [r["wall_s"] for r in rounds if r["label"] == label and r["traced"] == traced]


def _end_to_end(wl, rounds, peak_rss_mb: float, setup_s: float) -> dict:
    timed = [r for r in rounds if r["label"] == "main" and not r["traced"]]
    # Steps of failed operations were not completed, so they do not count.
    rates = [wl.steps_per_round * (1 - r["failed"] / r["attempted"]) / r["wall_s"]
             for r in timed]
    return {"setup_s": setup_s,
            "wall_s": statistics.median(r["wall_s"] for r in timed),
            "steps_per_s": statistics.median(rates),
            "peak_rss_mb": peak_rss_mb}


def _per_layer(name: str, wl, rounds, tracer, setup_tracer) -> dict:
    n = sum(r["traced"] for r in rounds)
    t = tracer
    steps = n * wl.steps_per_round
    label = "serial" if name == "paper-parallel" else "main"
    traced = statistics.median(_walls(rounds, label, True))
    untraced = statistics.median(_walls(rounds, label, False))
    pool = 0.0
    if name == "paper-parallel":
        pool = (statistics.median(_walls(rounds, "main", False))
                - untraced / wl.workers)
    sized = [r for r in rounds if "bytes" in r]
    return {
        "rng.make_rng_calls": t.calls("rng.make_rng") / n,
        "rng.make_rng_s": t.total("rng.make_rng") / n,
        "smpc.generate_s": (t.total("smpc.generate_problem") / n
                            + setup_tracer.total("smpc.generate_problem")),
        "smpc.saa_solve_calls": t.calls("smpc.saa_solve") / n,
        "smpc.saa_solve_s": t.total("smpc.saa_solve") / n,
        "smpc.factorizations": t.calls("smpc.cho_factor") / n,
        "smpc.noise_draw_s": t.total("smpc.noise_draw") / n,
        "smpc.exact_control_calls": t.calls("smpc.exact_control") / n,
        "smpc.exact_control_s": t.total("smpc.exact_control") / n,
        "ifs.step_overhead_us": 1e6 * (t.self_time("ifs.simulate")
                                       + t.self_time("ifs.run_ensemble")) / steps,
        "ifs.ensemble_s": t.total("ifs.run_ensemble") / n,
        "ifs.csv_write_s": t.total("ifs.write_trajectory_csv") / n,
        "conditions.linear_bound_s": t.total("conditions.linear_bound") / n,
        "conditions.avg_contraction_s": t.total("conditions.avg_contraction") / n,
        "conditions.map_evals": t.calls("conditions.map_eval") / n,
        "ergodics.histogram_s": t.total("ergodics.histogram") / n,
        "ergodics.diagnostic_s": t.total("ergodics.diagnostic") / n,
        "experiment.trial_s_p50": t.median_duration("experiment.run_trial"),
        "experiment.check_s": t.total("experiment.check_problem") / n,
        "experiment.emit_s": t.self_time("experiment.emit_run_artifacts") / n,
        "experiment.output_bytes": (statistics.mean(r["bytes"] for r in sized)
                                    if sized else 0.0),
        "experiment.files": statistics.mean(r["files"] for r in sized) if sized else 0.0,
        "experiment.pool_overhead_s": pool,
        "trace.overhead_s": traced - untraced,
    }


def _digest_problems(rounds) -> list[str]:
    """Rounds on the same inputs must write the same bytes."""
    by_index: dict[int, set] = {}
    for r in rounds:
        if "digest" in r:
            by_index.setdefault(r["index"], set()).add(r["digest"])
    return [f"round {i}: outputs differ between {len(d)} runs of the same inputs"
            for i, d in sorted(by_index.items()) if len(d) > 1]


def run_one(args, spec: dict) -> dict:
    import spans
    import workloads

    nproc = len(os.sched_getaffinity(0))
    name = args.workload
    wl = workloads.make(name, args.seed, nproc)
    out_root = OUT / name
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)

    setup_tracer = spans.Tracer() if args.trace else None
    if setup_tracer is not None:
        setup_tracer.install()
    wl.setup()
    if setup_tracer is not None:
        setup_tracer.uninstall()

    tracer = spans.Tracer() if args.trace else None
    plan = _plan(name, bool(args.trace))
    rounds = []
    start = perf_counter()
    index = 0
    while index == 0 or perf_counter() - start < args.seconds:
        for label, traced in plan:
            rounds.append(_run_round(wl, index, label, tracer if traced else None, out_root))
        index += 1

    # Read before the checks and the set-up probes, so that it covers the
    # rounds alone; the only children so far are pool workers.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if getattr(wl, "workers", 1) > 1:
        peak_kb += wl.workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if name == "paper-parallel" and not args.trace:
        # Serial rerun of round 0: --workers must not change an output byte.
        rounds.append(_run_round(wl, 0, "serial", None, out_root))
    rounds = [_check_round(wl, r) for r in rounds]

    problems = [p for r in rounds for p in r["problems"]] + _digest_problems(rounds)
    errors = [e for r in rounds for e in r.get("errors", [])]
    if args.trace:
        values = _per_layer(name, wl, rounds, tracer, setup_tracer)
        tracer.write(out_root)
        wanted = spec["per_layer"]
    else:
        values = _end_to_end(wl, rounds, peak_kb / 1024, _setup_seconds(name, args.seed, nproc))
        wanted = spec["end_to_end"]

    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **_environment(nproc),
              "rounds": [{k: r.get(k) for k in ("index", "label", "traced", "wall_s",
                                                 "digest", "attempted", "failed")}
                         for r in rounds],
              "not_stabilizing": sum(r.get("not_stabilizing", 0) for r in rounds),
              "problems": problems, "errors": errors}
    (out_root / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    for r in rounds:
        print(f"round {r['index']} {r['label']}{' traced' if r['traced'] else ''}: "
              f"{r['wall_s']:.4f} s, digest {r.get('digest', '-')}")
    print("environment:", json.dumps({k: record[k] for k in
                                      ("nproc", "python", "numpy", "scipy", "blas", "commit")}))
    print(f"strict not-stabilizing verdicts (information only): {record['not_stabilizing']}")
    for msg, count in Counter(problems).items():
        print(f"CHECK FAILED ({count}x): {msg}")
    for msg, count in Counter(errors).items():
        print(f"OPERATION FAILED ({count}x): {msg}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    return {"correct": not problems,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload untraced and traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace_flag in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace_flag)],
                cwd=ROOT, check=True, capture_output=True, text=True)
            print(f"== {name} trace={trace_flag}")
            print(proc.stdout, end="")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "ergodic_smpc" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run_all(args) if args.workload == "all" else run_one(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
