"""Command-line front end.

Subcommands: solve (one algorithm on one instance), compare (full lineup),
sweep (look-ahead or generator axis), synth (trace generation), verify
(oracle and bound suites). Results go to --out or standard output;
diagnostics go to standard error. Exit codes: 0 success, 1 validation or
other model error, 2 solver capacity error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys

from . import analysis, harness, online
from .errors import CapacityError, ConfigError, DcmError
from .model import evaluate, staged_schedule
from .offline import brute_force_dcm, solve_dcm_offline
from .verify import run_verification

ALGORITHMS = ("offline", "bruteforce", "gcsr", "chase", "dcmon", "static", "cpoff", "ofa")


class _Parser(argparse.ArgumentParser):
    # bad arguments are validation errors (exit 1), not argparse's default 2
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dcmkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, algo=False):
        p.add_argument("--trace", help="trace CSV; synthesized from config when omitted")
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--lookahead", type=int, help="look-ahead window in slots")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output path (default: standard output)")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        if algo:
            p.add_argument("--algo", choices=ALGORITHMS, required=True)

    add_common(sub.add_parser("solve", help="run one algorithm"), algo=True)
    add_common(sub.add_parser("compare", help="run the full algorithm lineup"))
    add_common(sub.add_parser("sweep", help="sweep an axis from the config"))

    synth = sub.add_parser("synth", help="generate a synthetic trace")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--days", type=int, default=22)
    synth.add_argument("--servers", type=int, default=600)
    synth.add_argument("--preset", choices=sorted(harness.PRESETS), default="ny")
    synth.add_argument("--out", help="output path (default: standard output)")

    ver = sub.add_parser("verify", help="run the verification suites")
    ver.add_argument("--full", action="store_true", help="acceptance-size sample counts")
    ver.add_argument("--out", help="output path (default: standard output)")
    return parser


def _load_setup(args):
    # --seed and --lookahead replace the config's keys before the schema check
    given = {"seed": args.seed, "lookahead": args.lookahead}
    overrides = {key: value for key, value in given.items() if value is not None}
    if args.config:
        cfg = harness.load_config(args.config, overrides)
    else:
        cfg = harness.validate_config(overrides)
    if args.trace:
        trace = harness.TraceFile.load(args.trace)
    else:
        trace = harness.synthesize_trace(
            cfg["seed"], cfg["days"], cfg["servers"], cfg["preset"]
        )
    return harness.build_instance(trace, cfg), cfg


def _emit(report: dict, args) -> None:
    # serialize first, so a report that fails to serialize leaves no file
    text = io.StringIO()
    harness.emit_report(report, getattr(args, "format", "json"), text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text.getvalue())
    else:
        sys.stdout.write(text.getvalue())


def _solve_schedule(instance, algo: str, lookahead: int):
    if algo == "offline":
        return solve_dcm_offline(instance)
    if algo == "bruteforce":
        return brute_force_dcm(instance)
    if algo == "static":
        return analysis.static_schedule(instance)
    if algo == "cpoff":
        return analysis.cp_only_schedule(instance)
    if algo == "ofa":
        return analysis.ep_only_schedule(instance)
    if algo == "gcsr":
        return analysis.grid_only_schedule(instance, online.gcsr(instance, lookahead))
    if algo == "chase":
        chase = functools.partial(online.chase, lookahead=lookahead)
        return staged_schedule(instance, analysis.static_fleet(instance), chase)
    if algo == "dcmon":
        return online.dcmon(instance, lookahead)
    raise ConfigError(f"unknown algorithm {algo!r}")


def _cmd_solve(args) -> int:
    instance, cfg = _load_setup(args)
    sched = _solve_schedule(instance, args.algo, cfg["lookahead"])
    result = analysis.AlgoResult(args.algo, sched, evaluate(instance, sched))
    _emit(
        {
            "kind": "solve",
            "label": instance.label,
            "horizon": instance.horizon,
            "lookahead": cfg["lookahead"],
            "algorithms": {args.algo: result.to_dict()},
        },
        args,
    )
    return 0


def _cmd_compare(args) -> int:
    instance, cfg = _load_setup(args)
    report = analysis.run_comparison(instance, cfg["lookahead"])
    _emit({"kind": "compare", **report.to_dict()}, args)
    return 0


def _cmd_sweep(args) -> int:
    instance, cfg = _load_setup(args)
    sweep = cfg.get("sweep") or {"axis": "lookahead", "values": [0, 1, 2, 4, 8]}
    if sweep["axis"] == "lookahead":
        rows = analysis.sweep_lookahead(instance, sweep["values"])
    else:
        rows = analysis.sweep_generators(instance, sweep["values"], cfg["lookahead"])
    _emit(
        {
            "kind": "sweep",
            "label": instance.label,
            "axis": sweep["axis"],
            "lookahead": cfg["lookahead"],
            "rows": rows,
        },
        args,
    )
    return 0


def _cmd_synth(args) -> int:
    trace = harness.synthesize_trace(args.seed, args.days, args.servers, args.preset)
    if args.out:
        trace.write(args.out)
    else:
        trace.dump(sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    results = run_verification("full" if args.full else "quick")
    lines = [
        f"{name}: {'PASS' if ok else 'FAIL'} ({detail})" for name, ok, detail in results
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(ok for _, ok, _ in results) else 3


_COMMANDS = {
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "synth": _cmd_synth,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DcmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
