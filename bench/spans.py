"""In-memory spans around the package's public functions.

The tracer replaces a function at the module attribute its caller looks
up (for example ``experiment.simulate`` is what ``simulate_and_report``
calls), so the package itself is not edited.  Each call records a span
(id, parent id, name, start, end) and adds to per-name call counts, total
time and self time.  Self time is the span's duration minus the time its
child spans cover.  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import json
import statistics
from array import array
from time import perf_counter

# Spans kept for the spans file; counts and times are always complete.
MAX_SPANS = 250_000
# Span names whose individual durations are kept, for medians.
KEEP_DURATIONS = ("experiment.run_trial",)


class Tracer:
    def __init__(self):
        # Span columns in typed arrays, which the garbage collector does not
        # traverse; a list of tuples would make collections slower as it grows.
        self.ids = array("q")
        self.parents = array("q")
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.names: list[str] = []
        self.dropped = 0
        self.stats: dict[str, list] = {}       # name -> [calls, total_s, self_s]
        self.durations = {name: [] for name in KEEP_DURATIONS}
        self._stack: list[list] = []           # [span id, child time] per open span
        self._ids = itertools.count()
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` recording one span per call under ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        durations = self.durations.get(name)
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        stack = self._stack
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if durations is not None:
                    durations.append(duration)
                if len(self.ids) < MAX_SPANS:
                    self.ids.append(frame[0])
                    self.parents.append(parent)
                    self.name_ids.append(name_id)
                    self.starts.append(start)
                    self.ends.append(end)
                else:
                    self.dropped += 1

        return traced

    def wrap_system(self, system):
        """Copy of an IFS whose own maps, sampler and probabilities are traced."""
        if hasattr(system, "sampler"):
            return dataclasses.replace(system, map=self.wrap("ifs.system_map", system.map),
                                       sampler=self.wrap("ifs.system_sampler", system.sampler))
        return type(system)(maps=tuple(self.wrap("ifs.system_map", m) for m in system.maps),
                            probs=self.wrap("ifs.system_probs", system.probs))

    def _patch(self, owner, key, replacement) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = replacement
        else:
            self._saved.append((owner, key, getattr(owner, key)))
            setattr(owner, key, replacement)

    def install(self) -> None:
        """Wrap every traced call site; ``uninstall`` restores them."""
        from ergodic_smpc import (cli, conditions, ergodics, experiment, ifs,
                                  smpc)

        def span(owner, attr, name):
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

        def traced_factory(owner, attr, wrap_result):
            factory = getattr(owner, attr)
            self._patch(owner, attr, functools.wraps(factory)(
                lambda *a, **k: wrap_result(factory(*a, **k))))

        for mod in (ifs, smpc, conditions, ergodics):
            span(mod, "make_rng", "rng.make_rng")
        for mod in (experiment, smpc):
            span(mod, "generate_problem", "smpc.generate_problem")
        span(smpc, "saa_control_from_draws", "smpc.saa_solve")
        span(smpc, "cho_factor", "smpc.cho_factor")
        span(smpc.NoiseSpec, "sample_entries", "smpc.noise_draw")
        span(smpc, "exact_control", "smpc.exact_control")
        for mod in (experiment, cli):
            span(mod, "simulate", "ifs.simulate")
            span(mod, "emit_run_artifacts", "experiment.emit_run_artifacts")
        span(ifs, "run_ensemble", "ifs.run_ensemble")
        span(experiment, "write_trajectory_csv", "ifs.write_trajectory_csv")
        span(experiment, "check_linear_sufficient_condition", "conditions.linear_bound")
        span(experiment, "check_average_contraction", "conditions.avg_contraction")
        span(experiment, "build_histogram", "ergodics.histogram")
        span(ifs, "histogram_from_samples", "ergodics.histogram")
        span(experiment, "write_histogram_csv", "ergodics.write_histogram_csv")
        span(experiment, "stationarity_diagnostic", "ergodics.diagnostic")
        span(experiment, "run_trial", "experiment.run_trial")
        span(experiment, "check_problem", "experiment.check_problem")
        span(cli, "run_experiment", "experiment.run_experiment")
        traced_factory(experiment, "smpc_closed_loop_ifs", self.wrap_system)
        traced_factory(experiment, "extreme_noise_closed_loop_ifs", self._wrap_vertex_maps)
        bernoulli = cli.DEMOS["bernoulli"]

        def traced_bernoulli():
            system, x0 = bernoulli()
            return self.wrap_system(system), x0

        self._patch(cli.DEMOS, "bernoulli", traced_bernoulli)

    def _wrap_vertex_maps(self, system):
        # Each call of a frozen vertex map is one map evaluation of the
        # sampled contraction check.
        return type(system)(maps=tuple(self.wrap("conditions.map_eval", m)
                                       for m in system.maps), probs=system.probs)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def median_duration(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) if values else 0.0

    def write(self, out_dir) -> None:
        """Write spans.csv (one row per span) and layers.json (per-name totals)."""
        with open(out_dir / "spans.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start_s", "end_s"])
            writer.writerows(zip(self.ids, self.parents,
                                 (self.names[i] for i in self.name_ids),
                                 self.starts, self.ends))
        layers = {name: {"calls": c, "total_s": t, "self_s": s}
                  for name, (c, t, s) in sorted(self.stats.items())}
        (out_dir / "layers.json").write_text(json.dumps(
            {"spans_kept": len(self.ids), "spans_dropped": self.dropped,
             "layers": layers}, indent=2) + "\n")
