"""The benchmark's tracer must still find every attribute it wraps.

``bench/spans.py`` patches package functions at the module attributes
their callers look up.  Renaming or deleting one of them breaks every
traced benchmark round; this test makes that a test failure instead.
"""

import sys
from pathlib import Path

import ergodic_smpc.cli as cli
from ergodic_smpc import conditions, ergodics, experiment, ifs, smpc

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _snapshot() -> dict:
    """Every attribute binding the tracer could patch, by owner."""
    owners = {m.__name__.rsplit(".", 1)[-1]: vars(m)
              for m in (cli, conditions, ergodics, experiment, ifs, smpc)}
    owners["NoiseSpec"] = vars(smpc.NoiseSpec)
    owners["DEMOS"] = cli.DEMOS
    return {name: dict(attrs) for name, attrs in owners.items()}


def _changed(before: dict, after: dict) -> list[str]:
    return [f"{owner}.{key}" for owner, attrs in before.items()
            for key, value in attrs.items() if after[owner].get(key) is not value]


def test_tracer_install_and_uninstall_restore_package(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as checked out
    import spans

    before = _snapshot()
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = _changed(before, _snapshot())
    finally:
        tracer.uninstall()
    assert "experiment.run_trial" in patched
    assert "experiment.check_linear_sufficient_condition" in patched
    assert _changed(before, _snapshot()) == []
