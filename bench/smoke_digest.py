#!/usr/bin/env python3
"""Print the sha256 tree digest of a fresh ``reproduce-paper --smoke --seed 7``.

    python3 bench/smoke_digest.py

Run from the root of a checkout.  The digest is computed afresh on every
call and compared with nothing stored: a change that alters output bytes
shows up as a different digest between two commits.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from ergodic_smpc import cli

    import checks

    out = ROOT / ".bench_out" / "smoke"
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["reproduce-paper", "--smoke", "--seed", "7", "--out", str(out)])
    if code != 0:
        print(f"reproduce-paper --smoke --seed 7 exited {code}", file=sys.stderr)
        return code
    print(f"reproduce-paper --smoke --seed 7: sha256 tree digest {checks.tree_digest(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
