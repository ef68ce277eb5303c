"""outerfa benchmark: seeded workloads decided through the `outerfa run` pipelines.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_long --seed 1 --seconds 20 --trace 0

One process and one thread run a closed loop: each decision (machine, word,
method) starts when the previous one has returned.  The machines are parsed
and normalized once (set-up, timed as the median of 31 repetitions), then
the timed phase repeats whole passes over the workload's items until
--seconds have passed, and at least three times.

Every time is reported in reference milliseconds (or seconds): `hostspeed`
runs a fixed kernel between blocks of about 5 ms of timed work and scales
each time by how much slower than its reference the kernel ran around it,
so swings in host speed within and between runs cancel while changes in the
library's speed show.  A decision's latency is the median over its passes;
each workload has at least 100 decisions per method, so each 90th
percentile has ten samples above it.  decisions_per_s is the number of
items over the sum of their latencies, the rate of a pass at median speed.

Every verdict is compared with the expected one; a wrong verdict, an
exception or a violated paper bound is a failed decision, and any failure
makes the command exit with code 1.

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics.  With --trace 1 the run makes one pass over the items, deciding
each twice, once plain and once with spans around every public library call
(see `tracing`), routes a small fixed sample through `outerfa.cli.main`, and
reports per-layer metrics for that pass instead, so counts are work per
pass.  Spans are written to .perfbench-out/spans-<workload>-seed<seed>.jsonl
in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPS = 31
MIN_PASSES = 3
CLI_SAMPLE_PER_METHOD = 2
# The layer whose self time each workload is built to make the largest share
# of one method's decision time.
STRESSED_LAYER = {
    "sweep_long": ("gap", "reach.segment"),
    "divide_deep": ("divide", "detsim.decide"),
    "alt_long": ("oracle", "core.alt_oracle"),
}


class Tally:
    """Attempted and failed decisions, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


@dataclass
class SvfaCounts:
    """Totals over svfa reports, kept as counts so memory does not grow with passes."""

    reports: int = 0
    both_verdicts: int = 0
    non_halting: int = 0
    branches: int = 0
    dont_know: int = 0

    def add(self, report) -> None:
        self.reports += 1
        self.both_verdicts += report.verdict_exists_yes and report.verdict_exists_no
        self.non_halting += not report.all_halting
        self.branches += report.branches_explored
        self.dont_know += report.dont_know_count


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Bench:
    """One workload's machines, their set-up, and checked, timed decisions."""

    def __init__(self, workload, pipeline, seed: int):
        self.workload = workload
        self.pipeline = pipeline
        self.seed = seed
        self.texts = [m.spec.text() for m in workload.machines]
        self.tally = Tally()
        self.preps = []
        self.bounds = []
        self.svfa = SvfaCounts()
        self.sample = self._pick_sample()
        self.sample_verdicts = []

    def setup(self, record=None) -> float:
        """Parse and normalize every machine; returns the wall time in seconds.

        `record`, if given, receives each machine's set-up time as it is taken.
        """
        total = 0.0
        self.preps = []
        for text, machine in zip(self.texts, self.workload.machines):
            started = time.perf_counter()
            self.preps.append(self.pipeline.prepare(text, machine))
            elapsed = time.perf_counter() - started
            total += elapsed
            if record is not None:
                record(elapsed)
        return total

    def check_bounds(self) -> None:
        self.bounds = [self.pipeline.machine_bounds(prep) for prep in self.preps]

    def decide(self, item, stats=None) -> tuple[float, bool | None]:
        """Time one decision and record whether it failed."""
        prep = self.preps[item.machine]
        started = time.perf_counter()
        try:
            verdict, report = self.pipeline.decide(prep, item.word, item.method, stats)
        except Exception as exc:  # every raised error is a failed decision
            elapsed = time.perf_counter() - started
            self.tally.record(f"{item.method} on machine {item.machine}: {exc!r}")
            return elapsed, None
        elapsed = time.perf_counter() - started
        if report is not None:
            self.svfa.add(report)
        reason = None
        if verdict != item.expected:
            reason = f"{item.method} on machine {item.machine}, |w|={len(item.word)}: wrong verdict"
        elif not self.bounds[item.machine].ok:
            reason = f"machine {item.machine} violates a size bound"
        elif report is not None and not self.pipeline.svfa_bounds_ok(report):
            reason = f"svfa on machine {item.machine}: both verdicts or a non-halting branch"
        elif stats is not None and stats.max_stack_height > self.pipeline.stack_bound(prep.nondet.n):
            reason = f"divide on machine {item.machine}: stack height above ceil(log2(n - 1))"
        self.tally.record(reason)
        return elapsed, verdict

    def warm_up(self) -> None:
        """Decide the sample once, untimed; its verdicts are what the CLI must repeat."""
        self.sample_verdicts = [
            self.pipeline.decide(self.preps[item.machine], item.word, item.method)[0]
            for item in self.sample]

    def _pick_sample(self) -> list:
        """A fixed small sample: the items with the fewest states and letters, per method."""
        by_method: dict[str, list] = {}
        for item in self.workload.items:
            by_method.setdefault(item.method, []).append(item)
        picked = []
        for items in by_method.values():
            items.sort(key=lambda it: (self.workload.machines[it.machine].spec.n, len(it.word)))
            picked.extend(items[:CLI_SAMPLE_PER_METHOD])
        return picked

    def run_cli_sample(self, tracer=None) -> int:
        """Send the sample through `outerfa run` in-process; returns how many ran."""
        folder = OUT_DIR / "machines"
        folder.mkdir(parents=True, exist_ok=True)
        for index, (item, library_verdict) in enumerate(zip(self.sample, self.sample_verdicts)):
            path = folder / f"{self.workload.name}-seed{self.seed}-m{item.machine}.2wa"
            path.write_text(self.texts[item.machine], encoding="utf-8")
            if tracer is not None:
                tracer.item = f"cli{index}"
            reason = None
            try:
                verdict = self.pipeline.run_cli(str(path), item)
                if verdict != library_verdict or verdict != item.expected:
                    reason = f"outerfa run --method {item.method} disagrees with the library"
            except Exception as exc:  # every raised error is a failed decision
                reason = f"outerfa run --method {item.method}: {exc!r}"
            self.tally.record(reason)
        return len(self.sample)


def _end_to_end(bench: Bench, seconds: float) -> dict:
    clock = hostspeed.Clock()
    setup_times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        clock.begin()
        bench.setup(clock.add)
        setup_times.append(sum(clock.end()))
    bench.check_bounds()
    bench.warm_up()

    items = bench.workload.items
    repeats = [array("d") for _ in items]
    pass_rates = []
    gc.collect()
    started = time.perf_counter()
    while len(pass_rates) < MIN_PASSES or time.perf_counter() - started < seconds:
        clock.begin()
        for item in items:
            clock.add(bench.decide(item)[0])
        scaled = clock.end()
        for times, ref_ms in zip(repeats, scaled):
            times.append(ref_ms)
        pass_rates.append(len(items) / sum(scaled) * 1000)
    elapsed = time.perf_counter() - started
    bench.run_cli_sample()

    metrics = {"setup_s": (statistics.median(setup_times) / 1000, "s")}
    print(f"setup: {len(bench.texts)} machines, median of {SETUP_REPS}: "
          f"{metrics['setup_s'][0]:.4f} s")
    print(f"timed phase: {len(pass_rates)} passes of {len(items)} items, {elapsed:.2f} s wall")
    latencies: dict[str, list[float]] = {}
    for item, times in zip(items, repeats):
        latencies.setdefault(item.method, []).append(statistics.median(times))
    for method, values in sorted(latencies.items()):
        p50, p90 = statistics.median(values), _percentile(values, 90)
        metrics[f"{method}_ms_p50"] = (p50, "ms")
        metrics[f"{method}_ms_p90"] = (p90, "ms")
        print(f"{method}_ms  p50 {p50:.3f}  p90 {p90:.3f}  "
              f"(n={len(values)} decisions x {len(pass_rates)} passes)")
    metrics["decisions_per_s"] = (
        len(items) * 1000 / sum(sum(values) for values in latencies.values()), "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    print(f"decisions_per_s {metrics['decisions_per_s'][0]:.2f} (single passes "
          f"{min(pass_rates):.2f} to {max(pass_rates):.2f})")
    print(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f}")
    return metrics


def _bound_lines(bench: Bench) -> None:
    built = [b for b in bench.bounds if b.controller_ok is not None]
    svfa = bench.svfa
    print(f"bounds: normalized <= 3n on {sum(b.size_ratio <= 1 for b in bench.bounds)}"
          f"/{len(bench.bounds)} machines; 4n - 3 controller states on "
          f"{sum(bool(b.controller_ok) for b in built)}/{len(built)}; svfa both verdicts "
          f"{svfa.both_verdicts} and non-halting {svfa.non_halting} of {svfa.reports} reports")


def _per_layer(bench: Bench) -> dict:
    import tracing
    from outerfa.detsim import ReachableStats

    tracer = tracing.Tracer()
    gc.collect()
    with tracer.installed():
        setup_s = bench.setup()
    bench.check_bounds()
    bench.warm_up()

    sequence = bench.workload.items
    plain, traced, stack_heights, base_calls = [], [], [], []
    gc.collect()
    for index, item in enumerate(sequence):
        tracer.item = f"d{index}"
        stats = ReachableStats() if item.method == "divide" else None
        # each item runs once plain and once traced, alternating which goes first
        for with_spans in (index % 2 == 0, index % 2 == 1):
            if with_spans:
                with tracer.installed():
                    traced.append(bench.decide(item, stats)[0])
            else:
                plain.append(bench.decide(item)[0])
        if stats is not None:
            stack_heights.append(stats.max_stack_height)
            base_calls.append(stats.base_calls)
    with tracer.installed():
        cli_runs = bench.run_cli_sample(tracer)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{bench.workload.name}-seed{bench.seed}.jsonl"
    tracer.write(spans_path)

    decision_ids = {f"d{i}" for i in range(len(sequence))}
    calls, self_s = tracer.totals(decision_ids | {"setup"})
    cli_calls, cli_self = tracer.totals({f"cli{i}" for i in range(cli_runs)})
    by_method = {}
    for index, item in enumerate(sequence):
        by_method.setdefault(item.method, set()).add(f"d{index}")
    divide_calls, _ = tracer.totals(by_method.get("divide", set()))
    edges = [count for (owner, count) in tracer.graph_edges if owner in decision_ids]
    svfa = bench.svfa

    metrics = {}

    def layer(name: str) -> None:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_ms"] = (self_s[name] * 1000, "ms")

    layer("fileformat.parse")
    layer("normalform.normalize")
    metrics["normalform.size_ratio_max"] = (max(b.size_ratio for b in bench.bounds), "ratio")
    layer("reach.build_controller")
    metrics["reach.controller_states_ok"] = (sum(b.controller_ok is True for b in bench.bounds), "count")
    layer("reach.segment")
    metrics["reach.segment.calls_per_decision"] = (calls["reach.segment"] / len(sequence), "count")
    layer("graphred.build_graph")
    metrics["graphred.edges_per_graph"] = (statistics.fmean(edges) if edges else 0.0, "count")
    metrics["graphred.gap.self_ms"] = (self_s["graphred.gap"] * 1000, "ms")
    metrics["graphred.agap.self_ms"] = (self_s["graphred.agap"] * 1000, "ms")
    layer("svfa.decide")
    metrics["svfa.branches"] = (svfa.branches / svfa.reports if svfa.reports else 0.0, "count")
    metrics["svfa.dont_know_ratio"] = (
        svfa.dont_know / svfa.branches if svfa.branches else 0.0, "ratio")
    metrics["svfa.both_verdicts"] = (svfa.both_verdicts, "count")
    layer("detsim.decide")
    total_base = sum(base_calls)
    metrics["detsim.base_calls"] = (total_base / len(base_calls) if base_calls else 0.0, "count")
    metrics["detsim.reach_per_base"] = (
        divide_calls["reach.segment"] / total_base if total_base else 0.0, "ratio")
    metrics["detsim.max_stack_height"] = (max(stack_heights, default=0), "count")
    layer("core.oracle")
    layer("core.alt_oracle")
    metrics["cli.run.calls"] = (cli_calls["cli.run"], "count")
    metrics["cli.run.self_ms"] = (cli_self["cli.run"] * 1000, "ms")
    metrics["bench.trace_overhead_frac"] = (sum(traced) / sum(plain) - 1, "ratio")

    print(f"traced {len(sequence)} decisions ({sum(traced):.2f} s, untraced {sum(plain):.2f} s); "
          f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    top_layer = {}
    for method, ids in sorted(by_method.items()):
        _, own = tracer.totals(ids)
        wall = sum(traced[int(i[1:])] for i in ids)
        top = sorted(own.items(), key=lambda kv: -kv[1])[:3]
        top_layer[method] = top[0][0]
        print(f"{method} time by layer: "
              + ", ".join(f"{name} {share / wall:.0%}" for name, share in top))
    if bench.workload.name in STRESSED_LAYER:
        method, name = STRESSED_LAYER[bench.workload.name]
        verdict = "holds" if top_layer.get(method) == name else "FAILS"
        print(f"prediction: {name} has the largest self time in {method} decisions: {verdict}")
    front = sum(self_s[n] for n in ("fileformat.parse", "normalform.normalize",
                                    "reach.build_controller"))
    print(f"parse + normalize + build_controller self time: {front / (setup_s + sum(traced)):.1%} "
          f"of traced wall time")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "outerfa" / "__init__.py").is_file():
        print(f"error: no outerfa package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pipeline
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    print(f"workload {workload.name}, seed {args.seed}: {len(workload.machines)} machines, "
          f"{len(workload.items)} items")
    bench = Bench(workload, pipeline, args.seed)
    if args.trace:
        metrics = _per_layer(bench)
    else:
        metrics = _end_to_end(bench, args.seconds)
    _bound_lines(bench)
    tally = bench.tally
    print(f"failed_frac {tally.failed / tally.attempted:.6f} ({tally.failed} of {tally.attempted})")
    for reason in tally.reasons:
        print(f"failure: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
