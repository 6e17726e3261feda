"""Workload definitions and input generation for the dcmkit benchmark.

Inputs are generated here, not by ``dcmkit synth``, so that a change to the
program's own trace synthesizer cannot change what the benchmark measures.
The shape follows the regional presets of the paper's experiments: an hourly
diurnal utilisation curve scaled down on weekends, bounded noise drawn from
the seed, two-level day/night prices per region, and the last slot pinned to
the series peak.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

SERVERS = 600  # fleet size; utilisation peaks at 0.92, so M = 552
GENERATORS = 10

# day price, night price, price noise amplitude (per kWh)
PRICES = {
    "ny": (0.19, 0.10, 0.005),
    "sj": (0.125, 0.085, 0.005),
    "flat": (0.105, 0.105, 0.0),
}


@dataclass(frozen=True)
class Run:
    """One `dcmkit compare` invocation of a workload."""

    preset: str
    days: int
    lookahead: int

    @property
    def stem(self) -> str:
        return f"{self.preset}-{self.days}d"


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple[Run, ...]
    reference_kind: str  # offline reference every report must name


WORKLOADS = {
    # ROADMAP reference size: the exact DP fits its 5M-state budget, so every
    # layer (DP, GCSR, CHASE, demand tables, evaluation) is on the path.
    "month-compare": Workload(
        "month-compare",
        (Run("ny", 22, 4), Run("sj", 22, 4), Run("flat", 22, 4)),
        "exact",
    ),
    # T=2160 puts the DP over budget (13.2M states), so the decomposed
    # reference runs instead; stresses everything that grows with T. The
    # 16-slot window leaves CHASE a surplus window past the break-even span.
    "quarter-compare": Workload(
        "quarter-compare",
        (Run("ny", 90, 16),),
        "decomposed",
    ),
}


def make_trace(seed: int, index: int, run: Run):
    """Workload, price and regime columns for one run of a workload."""
    rng = np.random.default_rng([index, seed % 2**64])
    t_end = run.days * 24
    slot = np.arange(t_end)
    hour = slot % 24
    day = slot // 24
    diurnal = 0.5 - 0.5 * np.cos(2.0 * np.pi * (hour - 4) / 24.0)
    week = np.where(day % 7 >= 5, 0.7, 1.0)
    noise = rng.uniform(-0.05, 0.05, t_end)
    util = np.clip(0.08 + 0.84 * diurnal * week + noise, 0.02, 0.92)
    workload = util * SERVERS
    workload[-1] = workload.max()

    day_price, night_price, price_noise = PRICES[run.preset]
    is_day = (hour >= 8) & (hour < 20)
    price = np.where(is_day, day_price, night_price)
    if price_noise > 0.0:
        price = price + rng.uniform(-price_noise, price_noise, t_end)
    regimes = np.where(is_day, "day", "night")
    return workload, price, regimes


def write_inputs(workload: Workload, seed: int, directory: str) -> list[list[str]]:
    """Write trace CSVs and config JSONs; return the `compare` argv of each run."""
    os.makedirs(directory, exist_ok=True)
    argvs = []
    for index, run in enumerate(workload.runs):
        trace_path = os.path.join(directory, f"{run.stem}.csv")
        config_path = os.path.join(directory, f"{run.stem}.json")
        out_path = os.path.join(directory, f"{run.stem}.report.json")
        if os.path.exists(out_path):  # a command that writes nothing must not pass
            os.remove(out_path)
        a, p, regimes = make_trace(seed, index, run)
        rows = [
            f"{t},{float(a[t - 1])!r},{float(p[t - 1])!r},{regimes[t - 1]}"
            for t in range(1, len(a) + 1)
        ]
        with open(trace_path, "w") as fh:
            fh.write("t,workload,price,regime\n" + "\n".join(rows) + "\n")
        config = {
            "label": run.stem,
            "preset": run.preset,
            "servers": SERVERS,
            "generator": {"count": GENERATORS},
        }
        with open(config_path, "w") as fh:
            json.dump(config, fh, sort_keys=True)
        argvs.append(
            [
                "compare",
                "--trace", trace_path,
                "--config", config_path,
                "--lookahead", str(run.lookahead),
                "--out", out_path,
            ]
        )
    return argvs
