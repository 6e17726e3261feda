"""CHASE and the offline supply slices against their window-scan references.

ReferenceChaseFleet is the window-scan CHASE the queue-based ChaseFleet
replaced: on every decision it rolls each slice's clamped savings process
forward across the revealed window and takes the first extreme it meets.
The offline reference is the "on" segments of critical_segments. Both
rules now read the next extreme of the same clamped process; these tests
pin them to the scans on random and dyadic-tie problems. The supply entry
points share one check of their energy and price series, tested last.
"""

import numpy as np
import pytest

from dcmkit import (
    ConfigError,
    GeneratorModel,
    LookaheadViolation,
    brute_force_ep,
    chase,
    critical_segments,
    dcmon,
    ep_cost,
    ep_offline_slices,
    ofa_ep_slice,
    solve_ep_offline,
)
from dcmkit import online
from dcmkit.offline import clamped_regret, regret_steps, slice_energy
from dcmkit.online import RevealedWindow
from dcmkit.verify import random_bound_instance, random_ep_problem, random_tiny_instance

# dyadic economics: a loaded slot at price 27/256 gains exactly 1.5, a
# half-loaded one 0.125 and an idle one -1.25, so the process lands on 0
# and -beta_g exactly
TIE_GEN = GeneratorModel(capacity=64.0, c_o=0.0625, c_m=1.25, beta_g=24.0, count=2)
TIE_PRICES = (0.10546875, 0.0625, 0.1875)
TIE_LEVELS = (0.0, 32.0, 64.0, 96.0, 128.0)


class ReferenceChaseFleet:
    """Window-scan CHASE: per decision, a walk over the revealed window."""

    def __init__(self, gen, energy_at, price_at):
        self.gen = gen
        self.energy_at = energy_at
        self.price_at = price_at
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

    def decide_next(self, window_end):
        t = self.next_slot
        if window_end < t:
            raise LookaheadViolation(f"window end {window_end} precedes decision slot {t}")
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
    window = RevealedWindow()
    fleet = ReferenceChaseFleet(gen, window.reader(energy), window.reader(price))
    for t in range(1, t_end + 1):
        window.end = min(t + lookahead, t_end)
        fleet.decide_next(window.end)
    slices = np.array(fleet.slice_series, dtype=float).reshape(gen.count, t_end)
    return np.array(fleet.series, dtype=float), slices


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


def test_chase_matches_the_window_scan():
    compared = 0
    for gen, energy, price in supply_problems():
        t_end = len(energy)
        for w in (0, 1, 3, 8, t_end):
            y, on = chase(gen, energy, price, w, return_slices=True)
            y_ref, on_ref = reference_chase(gen, energy, price, w)
            assert np.array_equal(y, y_ref) and np.array_equal(on, on_ref)
            compared += 1
    assert compared == 5 * 1653


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
            sched = dcmon(inst, w)
            with monkeypatch.context() as patch:
                patch.setattr(online, "ChaseFleet", ReferenceChaseFleet)
                ref = dcmon(inst, w)
            for field in ("x", "y", "u", "v"):
                assert np.array_equal(getattr(sched, field), getattr(ref, field))
            compared += 1
    assert compared >= 100


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
        for i in range(gen.count):
            energy_slice = slice_energy(energy, i + 1, gen.capacity)
            ref = on_segments(gen, energy_slice, price)
            assert np.array_equal(ofa_ep_slice(gen, energy_slice, price), ref)
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
