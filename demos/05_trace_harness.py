"""File-based workflow: traces, configs, reports, and the command line.

Everything the other demos did in Python also works from files: a trace
CSV plus a JSON config in, a JSON or CSV report out. This demo drives
the command-line entry point in process and pokes at the artifacts.

Run with: python3 demos/05_trace_harness.py
The equivalent shell session:

    dcmkit synth --preset sj --days 4 --servers 40 --out trace.csv
    dcmkit compare --trace trace.csv --config run.json --out report.json
    dcmkit sweep --trace trace.csv --config sweep.json --format csv
    dcmkit verify
"""

import json
import pathlib
import sys
import tempfile

from dcmkit import load_trace, synthesize_trace
from dcmkit.cli import main as cli


def run(argv: list[str]) -> int:
    # flush so CLI error messages (stderr) interleave in order
    print(f"$ dcmkit {' '.join(argv)}", flush=True)
    code = cli(argv)
    sys.stderr.flush()
    print(f"  -> exit {code}")
    return code


def walkthrough(work: pathlib.Path) -> None:
    trace_path = work / "trace.csv"
    config_path = work / "run.json"
    report_path = work / "report.json"

    # A small run configuration; anything omitted falls back to defaults.
    config_path.write_text(json.dumps({
        "label": "harness-demo",
        "preset": "sj",
        "servers": 40,
        "days": 4,
        "lookahead": 4,
        "generator": {"count": 2},
    }))

    # -- traces are plain CSV ----------------------------------------------
    print("=== synthesize a trace and read it back ===")
    run(["synth", "--preset", "sj", "--days", "4", "--servers", "40",
         "--out", str(trace_path)])
    workload, price = load_trace(str(trace_path))
    print(f"{trace_path.name}: {len(workload)} slots, workload peak {workload.max():.1f}, "
          f"price span [{price.min():.3f}, {price.max():.3f}]")
    print(trace_path.read_text().splitlines()[0] + "   <- header")
    print()

    # The same series is available in process, byte-identical.
    again = synthesize_trace(seed=0, days=4, servers=40, preset="sj")
    assert (again.workload == workload).all() and (again.price == price).all()
    print("in-process synthesis with the same seed matches the file exactly")
    print()

    # -- the lineup as a JSON report ---------------------------------------
    print("=== compare run, JSON report ===")
    run(["compare", "--trace", str(trace_path), "--config", str(config_path),
         "--out", str(report_path)])
    report = json.loads(report_path.read_text())
    print(f"schema {report['schema_version']}, reference {report['reference_kind']}")
    for name, sav in report["savings_vs_static"].items():
        print(f"  {name:>8}: {100 * sav:5.1f}% vs static")
    print()

    # Reports are deterministic: a rerun produces identical bytes.
    rerun_path = work / "report2.json"
    run(["compare", "--trace", str(trace_path), "--config", str(config_path),
         "--out", str(rerun_path)])
    same = report_path.read_bytes() == rerun_path.read_bytes()
    print(f"rerun byte-identical: {same}")
    print()

    # -- sweeps come out as tidy CSV too -----------------------------------
    print("=== look-ahead sweep as CSV ===")
    sweep_cfg = work / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "preset": "sj", "servers": 40, "days": 4,
        "sweep": {"axis": "lookahead", "values": [0, 2, 4]},
        "generator": {"count": 2},
    }))
    csv_path = work / "sweep.csv"
    run(["sweep", "--trace", str(trace_path), "--config", str(sweep_cfg),
         "--format", "csv", "--out", str(csv_path)])
    for line in csv_path.read_text().splitlines()[:5]:
        print("  " + line)
    print("  ...")
    print()

    # -- bad inputs fail loudly with distinct exit codes -------------------
    print("=== error handling ===")
    code = run(["compare", "--trace", str(work / "missing.csv")])
    assert code == 1
    print("missing trace: configuration error, exit 1")


def main() -> None:
    # the files live in a temporary directory, removed when the demo ends
    with tempfile.TemporaryDirectory(prefix="dcmkit-demo-") as work:
        walkthrough(pathlib.Path(work))


if __name__ == "__main__":
    main()
