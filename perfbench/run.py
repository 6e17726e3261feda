"""dcmkit benchmark: one closed-loop client running `dcmkit compare` back to back.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload month-compare [--seed 0] [--seconds 25] [--trace 0|1]

Every metric is printed as `name value unit`; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. With --trace 0
the metrics are the end-to-end ones, measured with tracing off; with
--trace 1 they are the per-layer ones from traced passes, and the spans go
to .perfbench/trace-<workload>-seed<n>.json. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from typing import NamedTuple

import workloads
from check import check_compare_report
from probe import COMMAND_EXPONENT, SETUP_EXPONENT, SpeedProbe, slowdown
from tracing import Tracer, span_totals

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

MIN_PASSES = 5  # a 9 s quarter-compare pass still gets five samples
SETUP_REPEATS = 5

END_TO_END = {
    "wall_norm_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "dcmon_savings": "fraction",
    "offline_savings": "fraction",
}

PER_LAYER = {
    "cli.main_s": "s",
    "cli.self_s": "s",
    "harness.load_trace_s": "s",
    "harness.build_instance_s": "s",
    "harness.emit_report_s": "s",
    "harness.report_bytes": "bytes",
    "analysis.run_comparison_s": "s",
    "analysis.self_s": "s",
    "offline.solve_dcm_offline_s": "s",
    "offline.dp_states": "count",
    "offline.capacity_fallbacks": "count",
    "offline.solve_cp_offline_s": "s",
    "offline.self_s": "s",
    "online.gcsr_s": "s",
    "online.dcmon_s": "s",
    "online.gcsr_decide_s": "s",
    "online.chase_decide_s": "s",
    "online.slice_steps": "count",
    "online.chase_slice_steps": "count",
    "online.self_s": "s",
    "model.demand_table_calls": "count",
    "model.demand_table_s": "s",
    "model.demand_table_us_per_call": "us",
    "model.dispatched_schedule_s": "s",
    "model.evaluate_s": "s",
    "model.self_s": "s",
    "trace.overhead_s": "s",
}

# printed but left out of the result line: raw wall time drifts with the
# host's load by more than any bound allows (README), and the ep solver is
# never called on month-compare
EXTRA_END_TO_END = {"wall_s": "s"}
EXTRA_LAYER = {"offline.solve_ep_offline_s": "s"}

# a fresh interpreter imports dcmkit and writes one workload's inputs under
# a speed probe, then prints the probe's mean loop time
SETUP_SNIPPET = """\
import sys
sys.path.insert(0, sys.argv[1])
import probe
with probe.SpeedProbe() as speed:
    sys.path.insert(0, sys.argv[2])
    import dcmkit, workloads
    workloads.write_inputs(workloads.WORKLOADS[sys.argv[3]], int(sys.argv[4]), sys.argv[5])
print(speed.mean)
"""


class Checker:
    """Counts attempted and failed commands and keeps what the checks need."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}  # report path -> sha256 of the first pass
        self.sizes: dict[str, int] = {}  # report path -> bytes
        self.savings: dict[str, dict] = {}  # report path -> savings_vs_static

    def record(self, argv: list[str], code: int) -> None:
        self.attempted += 1
        out = argv[argv.index("--out") + 1]
        if code != 0:
            return self._fail(out, [f"exit code {code}"])
        try:
            with open(out, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return self._fail(out, [f"cannot read report: {exc}"])
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(out, digest)
        self.sizes[out] = len(data)
        problems = check_compare_report(data, self.workload.reference_kind)
        if digest != first:
            problems.append("report bytes differ from the first pass")
        if problems:
            return self._fail(out, problems)
        if out not in self.savings:
            self.savings[out] = json.loads(data)["savings_vs_static"]

    def mean_savings(self, name: str) -> float:
        values = [savings[name] for savings in self.savings.values()]
        return statistics.fmean(values) if values else 0.0

    def _fail(self, out: str, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems:
            print(f"check failed: {os.path.basename(out)}: {problem}", file=sys.stderr)


class Pass(NamedTuple):
    """Command wall time of one pass, as measured and at nominal host speed."""

    seconds: float
    nominal_seconds: float


def run_pass(argvs, checker: Checker) -> Pass:
    """Run every command once, each under a speed probe."""
    from dcmkit import cli

    seconds = nominal = 0.0
    for argv in argvs:
        with SpeedProbe() as probe:
            start = perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed command, not the end of the run
                traceback.print_exc()
                code = 1
            elapsed = perf_counter() - start
        seconds += elapsed
        nominal += elapsed / slowdown(probe.mean, COMMAND_EXPONENT)
        checker.record(argv, code)
    return Pass(seconds, nominal)


def timed_passes(argvs, checker, seconds, min_passes, tracers=None) -> list[Pass]:
    """Passes until at least `min_passes` ran and `seconds` went by; with
    `tracers`, each pass runs under a fresh Tracer appended there."""
    passes: list[Pass] = []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        if tracers is None:
            passes.append(run_pass(argvs, checker))
            continue
        tracer = Tracer()
        with tracer.installed():
            passes.append(run_pass(argvs, checker))
        tracers.append(tracer)
    return passes


def measure_setup(workload_name: str, seed: int, directory: str) -> float:
    """Median wall time, at nominal host speed, of a fresh interpreter
    importing dcmkit and writing the workload's inputs."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, HERE, SRC, workload_name, str(seed), directory]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        child = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
        elapsed = perf_counter() - start
        times.append(elapsed / slowdown(float(child.stdout.split()[-1]), SETUP_EXPONENT))
    return statistics.median(times)


def current_rss_mib() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end_metrics(workload, argvs, checker, seconds, seed, directory) -> dict:
    setup = measure_setup(workload.name, seed, directory)
    gc.collect()
    baseline = current_rss_mib()
    start = perf_counter()
    passes = [run_pass(argvs, checker)]
    peak = peak_rss_mib() - baseline
    passes += timed_passes(argvs, checker, seconds - (perf_counter() - start), MIN_PASSES - 1)
    print(f"pass seconds ({len(passes)}): " + " ".join(f"{p.seconds:.3f}" for p in passes))
    print("pass nominal seconds: " + " ".join(f"{p.nominal_seconds:.3f}" for p in passes))
    return {
        "wall_norm_s": statistics.median(p.nominal_seconds for p in passes),
        "wall_s": statistics.median(p.seconds for p in passes),
        "peak_rss_mb": peak,
        "setup_s": setup,
        "dcmon_savings": checker.mean_savings("dcmon"),
        "offline_savings": checker.mean_savings("offline"),
    }


def layer_metrics(tracers, untraced: list[Pass], traced: list[Pass], report_bytes: int) -> dict:
    """Per-pass means of span totals and counts over the traced passes."""
    sums: dict[str, float] = {}
    for tracer in tracers:
        inclusive, calls, self_time = span_totals(tracer.spans)
        values = {f"{name}_s": seconds for name, seconds in inclusive.items()}
        values.update({f"{layer}.self_s": seconds for layer, seconds in self_time.items()})
        values["model.demand_table_calls"] = calls.get("model.demand_table", 0)
        values.update(tracer.counts)
        for name, value in values.items():
            sums[name] = sums.get(name, 0.0) + value
    per_pass = {name: value / len(tracers) for name, value in sums.items()}
    names = {**PER_LAYER, **EXTRA_LAYER}
    metrics = {name: per_pass.get(name, 0.0) for name in names}
    calls = metrics["model.demand_table_calls"]
    metrics["model.demand_table_us_per_call"] = (
        metrics["model.demand_table_s"] / calls * 1e6 if calls else 0.0
    )
    metrics["harness.report_bytes"] = report_bytes
    for name, unit in names.items():
        if unit in ("count", "bytes"):
            metrics[name] = int(metrics[name])
    metrics["trace.overhead_s"] = statistics.median(
        p.nominal_seconds for p in traced
    ) - statistics.median(p.nominal_seconds for p in untraced)
    return metrics


def write_trace(path: str, workload: str, seed: int, tracers) -> None:
    doc = {
        "workload": workload,
        "seed": seed,
        "span_fields": ["name", "start_s", "end_s", "parent"],
        "passes": [{"spans": t.spans, "counts": dict(t.counts)} for t in tracers],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dcmkit", "cli.py")):
        print(f"error: no dcmkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    directory = os.path.join(WORK, f"{workload.name}-seed{args.seed}")
    argvs = workloads.write_inputs(workload, args.seed, directory)
    checker = Checker(workload)

    if args.trace:
        untraced = timed_passes(argvs, checker, args.seconds, 1)
        tracers: list = []
        traced = timed_passes(argvs, checker, 0.0, len(untraced), tracers)
        metrics = layer_metrics(tracers, untraced, traced, sum(checker.sizes.values()))
        units = {**PER_LAYER, **EXTRA_LAYER}
        trace_path = os.path.join(WORK, f"trace-{workload.name}-seed{args.seed}.json")
        write_trace(trace_path, workload.name, args.seed, tracers)
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        reported = PER_LAYER
    else:
        metrics = end_to_end_metrics(workload, argvs, checker, args.seconds, args.seed, directory)
        units = {**END_TO_END, **EXTRA_END_TO_END}
        reported = END_TO_END

    for out, digest in checker.digests.items():
        print(f"report {os.path.basename(out)} sha256 {digest}")
    fail_ratio = checker.failed / checker.attempted
    print(f"fail_ratio {fail_ratio} ratio ({checker.failed}/{checker.attempted} commands)")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
