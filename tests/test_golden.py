"""Golden digest: the output bytes of a fixed smoke run are pinned.

Byte-identity across reruns and worker counts is checked elsewhere; this
test also catches a refactor that changes every output byte consistently.
Refresh the digest only with a change that states why its outputs differ.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from ergodic_smpc import (GenerationSpec, closed_loop_fixed_point, generate_problem,
                          run_ensemble, smpc_closed_loop_ifs)
from ergodic_smpc.cli import main
from ergodic_smpc.experiment import ExperimentConfig

SMOKE_SEED_7_DIGEST = "f1064b982e8342adaec1ea9b29011a8af5e2c091c8ba0224d1638571d7bc1805"
# One trial at the default 10 000 steps: the SAA noise is drawn in blocks
# of 1024 steps, which the 1000-step smoke run never crosses.
TRIAL_SEED_7_DIGEST = "6cc325eb44a4508c158d8c6f9b47f2ba9e290ed2bb60e71b65661b6da912bfd9"
# The other subcommands that write artifacts: the tree of ``ifs-demo
# bernoulli --seed 4 --iters 5000`` and, on the problem of ``generate --seed
# 4``, the tree of ``run --iters 2000 --seed 3`` and the file of ``check``.
DEMO_SEED_4_DIGEST = "0459e81a7aa3db710c7c3dd35a9592ea11af7566f14ed7d3f92f153a9f358309"
RUN_SEED_3_DIGEST = "c6b3e7b767efc0cd0b159810620e6dc662c71c844f1561fb88b4921f6ddf18c2"
CHECK_SEED_0_DIGEST = "99554282a34375dddcbc8587b051e31397cf8d7ffc508148169be612c97605e9"
# ``ifs-demo bernoulli --seed 4`` at its default 100 000 steps: the
# constant-probability walk draws its selections in ~98 blocks.
DEMO_DEFAULT_SEED_4_DIGEST = "c903172cdbaff3c7cc928f2895f1fa5a3c54d0b66392fc5620aaa8578b2a86b6"
# The edges and proportions bytes of ``run_ensemble`` of the J = 100 SAA loop
# of problem seed 3: 1000 particles uniform on m* +/- 0.5 drawn from
# ``default_rng(3)``, 20 steps, seed 7.
ENSEMBLE_SEED_7_DIGEST = "3f9d976f070c275b21f0baf931be6fabc35b0a6bb3f1799c19ad5e22223a824a"


def tree_digest(root) -> str:
    """sha256 over the sorted ``relpath\\0sha256(bytes)\\n`` lines of a tree."""
    root = Path(root)
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            file_hash = hashlib.sha256(p.read_bytes()).hexdigest()
            h.update(f"{p.relative_to(root)}\0{file_hash}\n".encode())
    return h.hexdigest()


def test_smoke_run_matches_golden_digest(tmp_path, capsys):
    out = tmp_path / "smoke"
    assert main(["reproduce-paper", "--smoke", "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert tree_digest(out) == SMOKE_SEED_7_DIGEST


def test_default_length_trial_matches_golden_digest(tmp_path, capsys):
    out = tmp_path / "trial"
    assert main(["reproduce-paper", "--trials", "1", "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert tree_digest(out) == TRIAL_SEED_7_DIGEST


def _problem(tmp_path) -> Path:
    path = tmp_path / "problem.json"
    assert main(["generate", "--seed", "4", "--out", str(path)]) == 0
    return path


def test_ifs_demo_matches_golden_digest_with_config_defaults(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["ifs-demo", "bernoulli", "--seed", "4", "--iters", "5000",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert tree_digest(out) == DEMO_SEED_4_DIGEST
    # No run-parameter flag was given, so the config's defaults apply.
    defaults = ExperimentConfig()
    diagnostic = json.loads((out / "diagnostic.json").read_text())
    assert diagnostic["n_bins"] == defaults.n_bins
    assert diagnostic["tolerance"] == defaults.tolerance
    assert diagnostic["burn_in_frac"] == defaults.burn_in_frac


def test_default_length_ifs_demo_matches_golden_digest(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["ifs-demo", "bernoulli", "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert tree_digest(out) == DEMO_DEFAULT_SEED_4_DIGEST


def test_run_matches_golden_digest(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", str(_problem(tmp_path)), "--iters", "2000", "--seed", "3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert tree_digest(out) == RUN_SEED_3_DIGEST


def test_check_matches_golden_digest_with_config_defaults(tmp_path, capsys):
    out = tmp_path / "conditions.json"
    assert main(["check", str(_problem(tmp_path)), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CHECK_SEED_0_DIGEST
    # Two noise entries: the exact checks read the 4 vertices and 16 vertex pairs.
    reports = json.loads(out.read_text())
    assert reports["average_contraction"]["sampling"] == {"extreme_points": 4}
    assert reports["saa_contraction"]["sampling"] == {"vertex_pairs": 16}


def test_ensemble_matches_golden_digest():
    problem = generate_problem(GenerationSpec.default(), seed=3)
    m_star = closed_loop_fixed_point(problem)
    particles = m_star + np.random.default_rng(3).uniform(-0.5, 0.5, size=(1000, m_star.size))
    measure = run_ensemble(smpc_closed_loop_ifs(problem, 100), particles, 20, seed=7)
    h = hashlib.sha256()
    for edges, props in zip(measure.edges, measure.proportions):
        h.update(edges.tobytes())
        h.update(props.tobytes())
    assert h.hexdigest() == ENSEMBLE_SEED_7_DIGEST
