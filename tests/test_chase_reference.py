"""CHASE and the offline supply slices against their window-scan references.

ReferenceChaseFleet is the window-scan CHASE that the block-stepped
ChaseFleet replaced: on every decision it rolls each slice's clamped
savings process forward across the revealed window and takes the first
extreme it meets. The offline reference partitions each slice's clamped
savings process into segments (critical_segments) and is on in the
segments that climb from the bottom to the top. Both rules now read the
next extreme of the same clamped process through one kernel; these tests
pin them to the scans on random and dyadic-tie problems, with CHASE
stepped in blocks of 1, 2, 5 and 256 decisions. The supply entry points
share one check of their energy and price series, tested last.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from dcmkit import (
    ConfigError,
    GeneratorModel,
    brute_force_ep,
    chase,
    dcmon,
    ep_cost,
    ep_offline_slices,
    solve_ep_offline,
)
from dcmkit import offline, online
from dcmkit.model import dispatched_schedule
from dcmkit.offline import regret_steps
from dcmkit.online import RevealedWindow
from dcmkit.verify import random_bound_instance, random_ep_problem, random_tiny_instance
from test_gcsr_reference import ReferenceGcsrFleet

# dyadic economics: a loaded slot at price 27/256 gains exactly 1.5, a
# half-loaded one 0.125 and an idle one -1.25, so the process lands on 0
# and -beta_g exactly
TIE_GEN = GeneratorModel(capacity=64.0, c_o=0.0625, c_m=1.25, beta_g=24.0, count=2)
TIE_PRICES = (0.10546875, 0.0625, 0.1875)
TIE_LEVELS = (0.0, 32.0, 64.0, 96.0, 128.0)
BLOCKS = (1, 2, 5, 256)  # decisions per block: CHASE and GCSR refill often, or not at all


class ReferenceChaseFleet:
    """Window-scan CHASE: per decision, a walk over the revealed window."""

    def __init__(self, gen, energy, price, window):
        self.gen = gen
        self.energy_at = lambda t: window.read(energy, t)
        self.price_at = lambda t: window.read(price, t)
        self.window = window
        self._offsets = np.arange(gen.count) * gen.capacity
        self._gains = []  # _gains[t-1][i] = savings of slice i in slot t
        self._regret = [-gen.beta_g] * gen.count
        self._on = [0] * gen.count
        self.next_slot = 1
        self.series = []
        self.slice_series = [[] for _ in range(gen.count)]

    def _cache_to(self, end):
        while len(self._gains) < end:
            t = len(self._gains) + 1
            energy = np.clip(self.energy_at(t) - self._offsets, 0.0, self.gen.capacity)
            self._gains.append(regret_steps(self.gen, energy, self.price_at(t)).tolist())

    def decide_next(self):
        t, window_end = self.next_slot, self.window.end
        self.window.check(t)
        self._cache_to(window_end)
        gains = self._gains
        bottom = -self.gen.beta_g
        total = 0
        for i in range(self.gen.count):
            r = self._regret[i]
            verdict = None
            for tau in range(t, window_end + 1):
                r = min(0.0, max(bottom, r + gains[tau - 1][i]))
                if r == 0.0:
                    verdict = 1
                    break
                if r == bottom:
                    verdict = 0
                    break
            on = self._on[i] if verdict is None else verdict
            self._regret[i] = min(0.0, max(bottom, self._regret[i] + gains[t - 1][i]))
            self._on[i] = on
            self.slice_series[i].append(on)
            total += on
        self.series.append(total)
        self.next_slot += 1
        return total


def reference_chase(gen, energy, price, lookahead):
    """(series, slices) of the window-scan CHASE, slices shaped (count, T)."""
    t_end = len(energy)
    window = RevealedWindow(t_end)
    fleet = ReferenceChaseFleet(gen, energy, price, window)
    for t in range(1, t_end + 1):
        window.reveal(t + lookahead)
        fleet.decide_next()
    slices = np.array(fleet.slice_series, dtype=float).reshape(gen.count, t_end)
    return np.array(fleet.series, dtype=float), slices


def chase_slices(gen, energy, price, lookahead):
    """CHASE's slices, shaped (count, T): slice i is a one-unit CHASE run
    on max(e - i*L, 0)."""
    one = replace(gen, count=1)
    energy = np.asarray(energy, dtype=float)
    return np.array([chase(one, np.maximum(energy - i * gen.capacity, 0.0), price, lookahead)
                     for i in range(gen.count)]).reshape(gen.count, len(energy))


def tie_problem(rng):
    t_end = int(rng.integers(10, 61))
    energy = rng.choice(TIE_LEVELS, t_end)
    price = rng.choice(TIE_PRICES, t_end)
    return TIE_GEN, energy, price


def supply_problems():
    """1500 random_ep_problem draws, 150 dyadic-tie problems and the
    single-slice dyadic hand traces of test_online.py."""
    rng = np.random.default_rng(71)
    problems = [random_ep_problem(rng) for _ in range(1500)]
    problems += [tie_problem(rng) for _ in range(150)]
    gen = GeneratorModel(capacity=64.0, c_o=0.0625, c_m=1.25, beta_g=24.0, count=1)
    price = np.full(40, TIE_PRICES[0])
    problems += [
        (gen, np.full(20, 64.0), price[:20]),
        (gen, np.concatenate([np.full(16, 64.0), np.zeros(24)]), price),
        (gen, np.full(10, 64.0), np.full(10, 0.05)),
    ]
    return problems


def test_chase_matches_the_window_scan(monkeypatch):
    compared = 0
    for gen, energy, price in supply_problems():
        t_end = len(energy)
        for w in (0, 1, 3, 8, t_end):
            y_ref, on_ref = reference_chase(gen, energy, price, w)
            for block in BLOCKS:
                monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
                y, on = chase(gen, energy, price, w), chase_slices(gen, energy, price, w)
                assert np.array_equal(y, y_ref) and np.array_equal(on, on_ref)
                compared += 1
    assert compared == len(BLOCKS) * 5 * 1653


def per_slot_dcmon(instance, lookahead):
    """DCMON's pipeline as one decision per output slot, with the per-slot
    references: the per-slot GCSR fleet decides through t + ep_window under
    the master window t + w, then the window-scan CHASE decides slot t."""
    w_ep = online.OngridParams.from_instance(instance).ep_window(lookahead)
    t_end = instance.horizon
    window, supply_window = RevealedWindow(t_end), RevealedWindow(t_end)
    fleet = ReferenceGcsrFleet(instance, window)
    supply = ReferenceChaseFleet(instance.generator, fleet.energy, instance.price, supply_window)
    for t in range(1, t_end + 1):
        window.reveal(t + lookahead)
        supply_window.reveal(t + w_ep)
        while fleet.next_slot <= supply_window.end:
            fleet.decide_next()
        supply.decide_next()
    return dispatched_schedule(instance, fleet.series, supply.series)


def test_dcmon_matches_a_run_with_the_window_scan_fleet(monkeypatch):
    rng = np.random.default_rng(72)
    instances = [random_tiny_instance(rng) for _ in range(40)]
    instances += [random_bound_instance(rng, generators=int(rng.integers(1, 3))) for _ in range(60)]
    compared = 0
    for inst in instances:
        params = online.OngridParams.from_instance(inst)
        for w in (1, 3, 8, 16, 32, inst.horizon):
            if params.ep_window(w) == 0:
                continue
            ref = per_slot_dcmon(inst, w)
            for block in BLOCKS:
                monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
                sched = dcmon(inst, w)
                for field in ("x", "y", "u", "v"):
                    assert np.array_equal(getattr(sched, field), getattr(ref, field))
            monkeypatch.undo()
            compared += 1
    assert compared >= 100


def slice_energy(energy, i, capacity):
    """Unit supply slice i: e_i(t) = min(L, max(0, e(t) - (i-1)L))."""
    return np.clip(np.asarray(energy, dtype=float) - (i - 1) * capacity, 0.0, capacity)


def clamped_regret(gain, beta_g: float) -> np.ndarray:
    """Cumulative savings clamped to [-beta_g, 0], starting at -beta_g."""
    r = -beta_g
    out = [r]
    for g in np.asarray(gain, dtype=float).tolist():
        r = min(0.0, max(-beta_g, r + g))
        out.append(r)
    return np.array(out)


@dataclass(frozen=True)
class Segment:
    """Inclusive slot range with a behavior kind: start, on, off, or end."""

    start: int
    end: int
    kind: str


def critical_segments(regret: np.ndarray, beta_g: float) -> list[Segment]:
    """Partition [1, T] by the last slots of each extreme-visit run.

    The clamped process starts at -beta_g. Maximal runs of visits to one
    extreme (with no opposite-extreme visit between them) end at critical
    slots; the stretch between consecutive critical slots is "on" when it
    carries the process from -beta_g up to 0 and "off" for the reverse.
    Before the first critical slot the process has never completed a
    traversal ("start"); after the last one it never reaches an extreme
    again ("end").
    """
    t_end = len(regret) - 1
    bottom = -beta_g
    runs: list[tuple[bool, int]] = []  # (at_top, last slot of run)
    at_top, last = False, 0  # slot 0 sits at the bottom
    for t in range(1, t_end + 1):
        v = regret[t]
        if v == 0.0:
            ext = True
        elif v == bottom:
            ext = False
        else:
            continue
        if ext == at_top:
            last = t
        else:
            runs.append((at_top, last))
            at_top, last = ext, t
    runs.append((at_top, last))

    segments: list[Segment] = []
    if runs[0][1] >= 1:
        segments.append(Segment(1, runs[0][1], "start"))
    for (left_top, left), (right_top, right) in zip(runs, runs[1:]):
        segments.append(Segment(left + 1, right, "on" if right_top else "off"))
    if runs[-1][1] < t_end:
        segments.append(Segment(runs[-1][1] + 1, t_end, "end"))
    return segments


@dataclass(frozen=True)
class RegretProcess:
    """Savings process for one generator slice and its segment structure."""

    gain: np.ndarray
    regret: np.ndarray  # length T+1, index 0 is the initial state
    segments: list[Segment]


def regret_process(gen: GeneratorModel, energy, price) -> RegretProcess:
    gain = regret_steps(gen, energy, price)
    regret = clamped_regret(gain, gen.beta_g)
    return RegretProcess(gain, regret, critical_segments(regret, gen.beta_g))


def on_segments(gen, energy_slice, price):
    regret = clamped_regret(regret_steps(gen, energy_slice, price), gen.beta_g)
    y = np.zeros(len(energy_slice))
    for seg in critical_segments(regret, gen.beta_g):
        if seg.kind == "on":
            y[seg.start - 1 : seg.end] = 1.0
    return y


def test_offline_slices_are_the_on_segments():
    checked = 0
    for gen, energy, price in supply_problems():
        slices = ep_offline_slices(gen, energy, price)
        one = replace(gen, count=1)
        for i in range(gen.count):
            energy_slice = slice_energy(energy, i + 1, gen.capacity)
            ref = on_segments(gen, energy_slice, price)
            assert np.array_equal(ep_offline_slices(one, energy_slice, price)[0], ref)
            assert np.array_equal(slices[i], ref)
            checked += 1
    assert checked > 1650


@pytest.mark.parametrize(
    "energy, price",
    [
        ([1.0, np.nan, 1.0], [0.2, 0.2, 0.2]),  # NaN energy
        ([1.0, 1.0, 1.0], [0.2, np.inf, 0.2]),  # inf price
        ([1.0, 1.0, 1.0], [0.2, 0.2]),  # price series shorter than energy
        ([1.0, -1.0, 1.0], [0.2, 0.2, 0.2]),  # negative energy
        ([1.0, 1.0, 1.0], [0.2, -0.2, 0.2]),  # negative price
        ([[1.0, 1.0]], [[0.2, 0.2]]),  # not 1-d
    ],
)
def test_supply_inputs_are_rejected_as_config_errors(energy, price):
    gen = GeneratorModel(capacity=1.0, c_o=0.05, c_m=0.05, beta_g=0.5, count=2)
    with pytest.raises(ConfigError):
        chase(gen, energy, price, 1)
    with pytest.raises(ConfigError):
        ep_offline_slices(gen, energy, price)
    with pytest.raises(ConfigError):
        solve_ep_offline(gen, energy, price)
    with pytest.raises(ConfigError):
        ep_cost(gen, energy, price, np.zeros(np.shape(energy)))
    with pytest.raises(ConfigError):
        brute_force_ep(gen, energy, price)


@pytest.mark.parametrize("lookahead", [1.5, -1, float("nan"), float("inf")])
def test_chase_rejects_a_lookahead_that_is_not_a_whole_slot_count(lookahead):
    gen = GeneratorModel(capacity=1.0, c_o=0.05, c_m=0.05, beta_g=0.5, count=1)
    with pytest.raises(ConfigError, match="lookahead"):
        chase(gen, [1.0, 1.0, 1.0], [0.2, 0.2, 0.2], lookahead)


def test_ep_cost_rejects_a_commitment_series_of_another_length():
    gen = GeneratorModel(capacity=1.0, c_o=0.05, c_m=0.05, beta_g=0.5, count=1)
    with pytest.raises(ConfigError, match="commitment series"):
        ep_cost(gen, [1.0, 1.0, 1.0], [0.2, 0.2, 0.2], [1.0, 1.0])
