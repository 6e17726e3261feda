"""The solver layers' one-home rules against references written out in full.

- Ratio bounds: ratio_bound_ep, ratio_bound_hybrid, ratio_bound_hybrid_loose
  and rho_decomposition read their terms (alpha_g, margin, slope, head) from
  BoundParams. The copies below write every term inline, as the bounds were
  before the terms had one home; the floats must be the same bit for bit.
- Decision ends: RevealedWindow.decision_end is the one rule for decision
  s's window end, min(max(1, s - lag) + lookahead, horizon), for any
  window, lag and horizon; the driver decides every slot once, in order.
- Blocks: offline.block_span is the one rule for a block's slots; every
  stage-cost call of the DP and every idle-cost call of the slice walk
  covers at most one block, and together they tile the horizon.
"""

import numpy as np
import pytest

from dcmkit import gcsr, offline, online, solve_cp_offline, solve_dcm_offline
from dcmkit.errors import LookaheadViolation
from dcmkit.online import (
    BoundParams,
    RevealedWindow,
    ratio_bound_ep,
    ratio_bound_hybrid,
    ratio_bound_hybrid_loose,
    rho_decomposition,
)
from test_gcsr_reference import exact_peak_instance

# ---------------------------------------------------------------------------
# ratio bounds


def reference_ep(lookahead, params):
    cap, p = params.capacity, params.p_max
    margin = cap * p - cap * params.c_o - params.c_m
    denom = params.beta_g * cap * p + lookahead * params.c_m * p * (
        cap - params.c_m / (p - params.c_o)
    )
    return 1.0 + 2.0 * params.beta_g * margin / denom


def reference_hybrid(lookahead, params):
    cap, p = params.capacity, params.p_max
    alpha_g = params.c_m * params.ep_window(lookahead) / params.beta_g
    margin = cap * p - cap * params.c_o - params.c_m
    bracket = 1.0 + 2.0 * margin / (
        cap * p + alpha_g * p * (cap - params.c_m / (p - params.c_o))
    )
    return (p * (2.0 - params.coverage(lookahead)) / (params.c_o + params.c_m / cap)) * bracket


def reference_hybrid_loose(lookahead, params):
    p = params.p_max
    alpha_g = params.c_m * params.ep_window(lookahead) / params.beta_g
    head = p * (2.0 - params.coverage(lookahead)) / (params.c_o + params.c_m / params.capacity)
    return head * (1.0 + 2.0 * (p - params.c_o) / p / (1.0 + alpha_g))


def reference_rho(params):
    return params.capacity * params.p_max / (params.capacity * params.c_o + params.c_m)


def random_bound_params(rng):
    """BoundParams with a break-even span from about 1 slot to several
    thousand, or infinite (free idling), and c_o or c_m sometimes 0."""
    p_min = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.005, 0.2))
    p_max = p_min + float(rng.uniform(0.01, 0.5))
    c_o = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 0.6)) * p_max
    capacity = float(rng.uniform(0.5, 200.0))
    c_m = 0.0 if c_o > 0.0 and rng.random() < 0.15 else \
        float(rng.uniform(0.01, 0.95)) * (p_max - c_o) * capacity
    return BoundParams(
        beta_s=float(rng.uniform(0.01, 20.0)),
        p_min=p_min,
        d_min=0.0 if rng.random() < 0.05 else float(rng.uniform(0.01, 2.0)),
        beta_g=float(rng.uniform(0.1, 100.0)),
        c_o=c_o,
        c_m=c_m,
        capacity=capacity,
        p_max=p_max,
    )


def test_bounds_read_their_terms_as_the_inline_formulas_did():
    rng = np.random.default_rng(34)
    supply_windows = [0, 0]  # draws with ep_window 0 and > 0
    for _ in range(2000):
        params = random_bound_params(rng)
        w = int(rng.integers(0, 501))
        supply_windows[params.ep_window(w) > 0] += 1
        for got, want in ((ratio_bound_ep(w, params), reference_ep(w, params)),
                          (ratio_bound_hybrid(w, params), reference_hybrid(w, params)),
                          (ratio_bound_hybrid_loose(w, params), reference_hybrid_loose(w, params)),
                          (rho_decomposition(params), reference_rho(params))):
            assert float.hex(got) == float.hex(want), (params, w)
    assert min(supply_windows) > 200, supply_windows


def test_hybrid_bound_is_head_times_bracket():
    params = BoundParams(beta_s=2.0, p_min=0.0625, d_min=0.25, beta_g=8.0, c_o=0.125,
                         c_m=1.0, capacity=16.0, p_max=0.5)
    assert params.breakeven_idle_window == 128.0
    for w in (0, 64, 128, 200):
        alpha_g = params.c_m * max(0, w - 128) / params.beta_g
        assert params.alpha_g(w) == alpha_g
        head = 0.5 * (2.0 - min(1.0, w / 128)) / (0.125 + 1.0 / 16.0)
        assert params.head(w) == head
        bracket = 1.0 + 2.0 * params.margin / (16.0 * 0.5 + alpha_g * 0.5 * params.slope)
        assert ratio_bound_hybrid(w, params) == head * bracket
    assert (params.margin, params.slope) == (16.0 * 0.5 - 16.0 * 0.125 - 1.0, 16.0 - 1.0 / 0.375)


# ---------------------------------------------------------------------------
# decision ends


def random_window_shape(rng):
    horizon = int(rng.integers(1, 40))
    wide = [10**30, horizon, horizon + 1]
    lookahead = int(rng.choice(wide)) if rng.random() < 0.15 else int(rng.integers(0, 2 * horizon))
    lag = int(rng.choice(wide)) if rng.random() < 0.15 else int(rng.integers(0, 2 * horizon))
    return horizon, lookahead, lag


def test_decision_end_is_one_rule_for_any_window():
    rng = np.random.default_rng(35)
    for _ in range(500):
        horizon, lookahead, lag = random_window_shape(rng)
        window = RevealedWindow(horizon, lookahead, lag)
        slots = list(range(1, horizon + 1))
        want = [min(max(1, s - lag) + lookahead, horizon) for s in slots]
        assert window.decision_end(np.array(slots)).tolist() == want
        assert [int(window.decision_end(s)) for s in slots] == want


class RecordingFleet:
    """A fleet that decides, and records, every decision window.ends hands it."""

    def __init__(self, window):
        self.window = window
        self.next_slot = 1
        self.decided = []

    def decide_next(self):
        window, first = self.window, self.next_slot
        ends = window.ends(first)
        last = first + len(ends) - 1
        # each decision's own end, revealed, and no later decision's end revealed
        assert ends.tolist() == [int(window.decision_end(s)) for s in range(first, last + 1)]
        assert ends.max() <= window.end
        assert last == window.horizon or window.decision_end(last + 1) > window.end
        self.decided.extend(range(first, last + 1))
        self.next_slot = last + 1


def test_driver_decides_each_slot_once_in_order(monkeypatch):
    rng = np.random.default_rng(36)
    for block in (1, 3, 256):
        monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
        for _ in range(300):
            horizon, lookahead, lag = random_window_shape(rng)
            window = RevealedWindow(horizon, lookahead, lag)
            fleet = RecordingFleet(window)
            online._drive(fleet, window)
            assert fleet.decided == list(range(1, horizon + 1)), (horizon, lookahead, lag, block)


def test_ends_raise_until_the_first_decisions_end_is_revealed():
    for lookahead, lag in ((0, 0), (3, 0), (5, 2), (2, 5)):
        window = RevealedWindow(12, lookahead, lag)
        for first in range(1, 13):
            end = int(window.decision_end(first))
            window.reveal(end - 1)
            with pytest.raises(LookaheadViolation, match=rf"slot {end} is outside"):
                window.ends(first)
            window.reveal(end)
            assert window.ends(first)[0] == end


def test_check_each_holds_a_decision_to_the_revealed_slots():
    # decision 4's own end is slot 6, but only slots 1..5 are revealed: a
    # decision whose end is not yet revealed may use no slot past them
    window = RevealedWindow(20, lookahead=2)
    window.reveal(5)
    window.check_each(3, np.array([[5]]))
    with pytest.raises(LookaheadViolation, match=r"slot 6 is outside the window \[1, 5\] of decision 4"):
        window.check_each(3, np.array([[5], [6]]))


# ---------------------------------------------------------------------------
# blocks


def record_calls(monkeypatch, name, last_slot):
    """Record (first, last_slot(first, *args)) of every call
    offline.<name>(instance, first, *args)."""
    calls = []
    function = getattr(offline, name)

    def recorded(instance, first, *args):
        calls.append((first, last_slot(first, *args)))
        return function(instance, first, *args)

    monkeypatch.setattr(offline, name, recorded)
    return calls


def tiled(calls):
    return [s for first, last in calls for s in range(first, last + 1)]


@pytest.mark.parametrize("m", [8, 552])
def test_dp_and_walk_cut_the_horizon_into_blocks(monkeypatch, m):
    inst = exact_peak_instance(5, m, days=12 if m == 8 else 3)
    t_end = inst.horizon
    dp_calls = record_calls(monkeypatch, "_band_costs", lambda first, lows, *_: first + len(lows) - 1)
    walk_calls = record_calls(monkeypatch, "idle_cost_block", lambda first, end, *_: end)
    want = (solve_dcm_offline(inst).x.tobytes(), solve_cp_offline(inst).tobytes(),
            gcsr(inst, 5).tobytes())
    for block in (1, 7, 256):
        for cells in (m + 1, 5 * (m + 1), 64 * (m + 1), offline.CHUNK_CELLS):
            monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
            monkeypatch.setattr(offline, "CHUNK_CELLS", cells)
            span = min(block, max(1, cells // (m + 1)))
            assert offline.block_span(m) == span
            dp_calls.clear()
            walk_calls.clear()
            x = solve_dcm_offline(inst).x
            # the DP prices its blocks backward: full blocks from the horizon down
            assert tiled(dp_calls[::-1]) == list(range(1, t_end + 1))
            assert all(last - first + 1 == span for first, last in dp_calls[:-1])
            assert dp_calls[-1][1] - dp_calls[-1][0] + 1 <= span
            series = solve_cp_offline(inst)
            # a standalone walk steps full blocks forward from slot 1
            assert tiled(walk_calls) == list(range(1, t_end + 1))
            assert all(last - first + 1 == span for first, last in walk_calls[:-1])
            assert walk_calls[-1][1] - walk_calls[-1][0] + 1 <= span
            walk_calls.clear()
            online_series = gcsr(inst, 5)
            # a fleet steps the walk to its decisions' last end: blocks cut there too
            assert tiled(walk_calls) == list(range(1, t_end + 1))
            assert max(last - first + 1 for first, last in walk_calls) <= span
            assert (x.tobytes(), series.tobytes(), online_series.tobytes()) == want


def test_block_span_at_the_presets_scale_and_at_small_m():
    # M = 552: a block is one 59-row demand chunk, under BLOCK_SLOTS
    assert offline.block_span(552) == 59 == offline.CHUNK_CELLS // 553
    # small M: a block is BLOCK_SLOTS slots, not one (larger) demand chunk
    assert offline.block_span(56) == offline.BLOCK_SLOTS == 256 < offline.CHUNK_CELLS // 57
    assert offline.block_span(10**9) == 1
