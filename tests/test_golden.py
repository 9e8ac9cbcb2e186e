"""Golden digest: the output bytes of a fixed smoke run are pinned.

Byte-identity across reruns and worker counts is checked elsewhere; this
test also catches a refactor that changes every output byte consistently.
Refresh the digest only with a change that states why its outputs differ.
"""

import hashlib
from pathlib import Path

from ergodic_smpc.cli import main

SMOKE_SEED_7_DIGEST = "fcd2a44567242bf7acaf45a7db5a47ab0215e9500b8138558ca101ce50ec872f"
# One trial at the default 10 000 steps: the SAA noise is drawn in blocks
# of 1024 steps, which the 1000-step smoke run never crosses.
TRIAL_SEED_7_DIGEST = "dce7b5a420fe0d4ed73fffc528d56377b9b810318e20ae800154397168c84832"


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
