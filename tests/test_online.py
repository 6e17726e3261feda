"""Look-ahead online algorithms and their competitive-ratio bounds."""

import dataclasses
import math
from bisect import bisect_left

import numpy as np
import pytest

from dcmkit import (
    BoundParams,
    ConfigError,
    GeneratorModel,
    Instance,
    LookaheadViolation,
    OngridParams,
    ServerModel,
    chase,
    cp_offline_slices,
    dcmon,
    demand_series,
    ep_offline_slices,
    evaluate,
    gcsr,
    ratio_bound_ep,
    ratio_bound_hybrid,
    ratio_bound_hybrid_loose,
    ratio_bound_ongrid,
    rho_decomposition,
    solve_cp_offline,
)
from dcmkit import harness, offline, online
from dcmkit.analysis import grid_only_schedule
from dcmkit.offline import idle_cost_block
from dcmkit.online import ChaseFleet, GcsrFleet, RevealedWindow
from dcmkit.verify import random_bound_instance, random_ep_problem, random_tiny_instance
from test_chase_reference import chase_slices, regret_process, slice_energy

# dyadic idle economics: every server unit draws exactly 0.25, price 0.125,
# so one idle slot costs 0.03125 and the break-even window is 4 slots sharp
IDLE = 0.03125
BETA_S = 0.125


def dyadic_instance(workload):
    return Instance(
        workload=workload,
        price=np.full(len(workload), 0.125),
        server=ServerModel(c_idle=0.25, c_peak=0.25, beta_s=BETA_S),
        generator=GeneratorModel(60.0, 0.08, 1.2, 24.0, 0),
    )


# ---------------------------------------------------------------------------
# revealed-window plumbing


def test_window_reveals_exactly_its_slots():
    inst = dyadic_instance([1, 0, 0, 1, 0])
    window = RevealedWindow(inst.horizon)
    fleet = GcsrFleet(inst, window)
    window.reveal(3)
    assert window.end == 3
    assert np.array_equal(window.read(inst.workload, 1, 3), [1.0, 0.0, 0.0])
    with pytest.raises(LookaheadViolation):
        window.read(inst.workload, 1, 4)
    fleet.decide_next()  # at w = 0 every revealed slot's window end is revealed
    assert fleet.series == [1, 1, 1]
    with pytest.raises(LookaheadViolation, match=r"slot 4 is outside the revealed window \[1, 3\]"):
        fleet.decide_next()
    window.reveal(4)
    assert window.end == 4
    assert np.array_equal(window.read(inst.workload, 4, 4), [1.0])
    assert window.read(inst.workload, 4) == 1.0
    with pytest.raises(LookaheadViolation):
        window.read(inst.workload, 5)
    fleet.decide_next()
    assert fleet.series == [1, 1, 1, 1]
    with pytest.raises(LookaheadViolation):
        fleet.decide_next()
    window.reveal(8)
    assert window.end == 5  # clipped at the horizon
    fleet.decide_next()
    assert fleet.series == [1] * 5
    assert np.array_equal(demand_series(inst, fleet.series), [0.25] * 5)


def test_window_past_the_horizon_is_the_horizon():
    # lookahead and lag are clamped to the horizon, so ends that would
    # overflow int64 come out as the ones a horizon-wide window gives
    inst = dyadic_instance([1, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0])
    t_end = inst.horizon
    for w in (2**63 - 1, 10**20):
        window = RevealedWindow(t_end, w, lag=w)
        window.reveal(w)
        assert np.array_equal(window.ends(1), np.full(t_end, t_end))
        assert np.array_equal(gcsr(inst, w), gcsr(inst, t_end))
        assert np.array_equal(dcmon(inst, w).x, dcmon(inst, t_end).x)


def drive(fleet, window, lookahead, block):
    """Reveal the ends of block decisions at a time, as gcsr does, and
    decide them; yields after each step."""
    while fleet.next_slot <= window.horizon:
        window.reveal(fleet.next_slot + block - 1 + lookahead)
        fleet.decide_next()
        yield


def test_fleet_energy_is_the_table_entry_of_each_decision(monkeypatch):
    rng = np.random.default_rng(57)
    for block in (1, 5, offline.BLOCK_SLOTS):
        monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
        for _ in range(20):
            inst = random_tiny_instance(rng)
            for w in (0, inst.horizon):
                window = RevealedWindow(inst.horizon, w)
                fleet = GcsrFleet(inst, window)
                for _ in drive(fleet, window, w, block):
                    assert len(fleet.series) == fleet.next_slot - 1
                assert len(fleet.series) == inst.horizon
                energy = demand_series(inst, fleet.series)
                for t, x in enumerate(fleet.series, start=1):
                    assert energy[t - 1] == inst.demand_table(t)[x]
    window = RevealedWindow(3)
    window.reveal(2)
    assert window.read([0.5, 0.25, 0.125], 2) == 0.25
    with pytest.raises(LookaheadViolation, match=r"slot 3 is outside the revealed window \[1, 2\]"):
        window.read([0.5, 0.25, 0.125], 3)
    with pytest.raises(LookaheadViolation):
        window.read([0.5, 0.25, 0.125], 0)


def record_blocks(monkeypatch):
    """Record (start, stop, P rows) of every idle_cost_block call the fleet makes."""
    blocks = []

    def recorded(instance, start, end, carried):
        prefix = idle_cost_block(instance, start, end, carried)
        blocks.append((start, end, prefix))
        return prefix

    monkeypatch.setattr(offline, "idle_cost_block", recorded)
    return blocks


def test_fleet_block_rows_match_sequential_sums(monkeypatch):
    rng = np.random.default_rng(28)
    blocks = record_blocks(monkeypatch)
    for block in (1, 2, 5, offline.BLOCK_SLOTS):
        monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
        for k in range(12):
            inst = random_tiny_instance(rng) if k % 2 else random_bound_instance(rng)
            t_end = inst.horizon
            tables = np.stack([inst.demand_table(t) for t in range(1, t_end + 1)])
            idle = inst.price[:, None] * np.diff(tables, axis=1)
            prefix = np.add.accumulate(np.vstack([np.zeros(inst.max_servers), idle]), axis=0)
            w = int(rng.integers(0, 4))
            window = RevealedWindow(t_end, w)
            fleet = GcsrFleet(inst, window)
            blocks.clear()
            for _ in drive(fleet, window, w, block):
                # the rows evaluated so far are the revealed slots', each
                # once, in order, and each its slot's sequential sum
                assert blocks[-1][1] == window.end
                assert [s for start, stop, _ in blocks for s in range(start, stop + 1)] \
                    == list(range(1, window.end + 1))
                for start, stop, rows in blocks:
                    assert np.array_equal(rows, prefix[start - 1 : stop + 1])
                    # O(block * M) floats a call, whatever the window
                    assert stop - start + 1 <= block
            energy = demand_series(inst, fleet.series)
            assert np.array_equal(energy, tables[np.arange(t_end), fleet.series])


def test_fleet_reads_stay_checked_after_a_block_is_evaluated(monkeypatch):
    inst = dyadic_instance([1, 0, 0, 1, 0])
    evaluated = []
    table = Instance.demand_table
    monkeypatch.setattr(Instance, "demand_table",
                        lambda self, t, end=None: evaluated.append((t, end)) or table(self, t, end))
    window = RevealedWindow(inst.horizon)
    fleet = GcsrFleet(inst, window)
    window.reveal(2)
    fleet.decide_next()
    assert evaluated == [(1, 2)]  # the revealed slots only, not a whole block
    past = r"slot 3 is outside the revealed window \[1, 2\]"
    with pytest.raises(LookaheadViolation, match=past):
        fleet.decide_next()
    with pytest.raises(LookaheadViolation, match=past):
        window.read(inst.workload, 2, 3)
    with pytest.raises(LookaheadViolation, match=past):
        window.read(inst.workload, 3)
    window.reveal(3)
    fleet.decide_next()
    assert fleet.series == [1, 1, 1]
    assert np.array_equal(window.read(inst.workload, 2, 3), [0.0, 0.0])
    assert evaluated == [(1, 2), (3, 3)]
    # no block of P rows is held past its evaluation: one row and the
    # per-slot series remain
    held = [v for v in vars(fleet).values() if isinstance(v, np.ndarray)]
    assert held and all(v.ndim == 1 for v in held)
    window.reveal(5)
    fleet.decide_next()
    assert evaluated[2:] == [(4, 5)]
    assert np.array_equal(demand_series(inst, fleet.series), [0.25] * 5)


class FurtherWindow:
    """A fleet's view of its RevealedWindow in which every read reaches one
    slot past the ones the fleet chose: the next slot for a single-slot
    read, one more slot for a range. The reach is checked; the slots the
    fleet chose are returned."""

    def __init__(self, window):
        self.window = window

    def __getattr__(self, name):
        return getattr(self.window, name)

    def read(self, series, first, last=None):
        if last is None:
            self.window.check(first + 1)
        else:
            self.window.check(first, last + 1)
        return self.window.read(series, first, last)


def reach_one_slot_further(monkeypatch, fleet):
    """Make every window read of the fleet class fleet reach one slot further."""
    init = fleet.__init__

    def further(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.window = FurtherWindow(self.window)

    monkeypatch.setattr(fleet, "__init__", further)


def test_gcsr_and_dcmon_reads_past_the_window_raise(monkeypatch):
    # only GCSR's reads reach further; CHASE's stay where they were. GCSR
    # reads the slots of one step at once, so at 256-slot blocks its first
    # read ends at the horizon
    reach_one_slot_further(monkeypatch, GcsrFleet)
    inst = dyadic_instance([1, 0, 0, 1, 0])
    for block, gcsr_past, dcmon_past in (
        (1, r"slot 3 is outside the revealed window \[1, 2\]",
         r"slot 2 is outside the revealed window \[1, 1\]"),
        (256, r"slot 6 is outside the revealed window \[1, 5\]",
         r"slot 6 is outside the revealed window \[1, 5\]"),
    ):
        monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
        with pytest.raises(LookaheadViolation, match=gcsr_past):
            gcsr(inst, 1)
        with pytest.raises(LookaheadViolation, match=dcmon_past):
            dcmon(inst, 0)


def test_chase_and_dcmon_reads_past_the_window_raise(monkeypatch):
    # only CHASE's reads reach further; GCSR's stay where they were. CHASE
    # reads the rows of one block of decisions at once, so its first read
    # ends at the first block's last window end
    reach_one_slot_further(monkeypatch, ChaseFleet)
    inst = Instance(
        workload=[1.0, 0.0, 1.0, 1.0],
        price=np.full(4, 0.125),
        server=ServerModel(c_idle=0.25, c_peak=0.25, beta_s=BETA_S),
        generator=GeneratorModel(60.0, 0.08, 1.2, 24.0, 1),
    )
    for block, chase_past, dcmon_past in (
        (1, r"slot 3 is outside the revealed window \[1, 2\]",
         r"slot 2 is outside the revealed window \[1, 1\]"),
        (256, r"slot 6 is outside the revealed window \[1, 5\]",
         r"slot 5 is outside the revealed window \[1, 4\]"),
    ):
        monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
        with pytest.raises(LookaheadViolation, match=chase_past):
            chase(CH_GEN, np.full(5, 64.0), np.full(5, CH_PRICE), 1)
        with pytest.raises(LookaheadViolation, match=dcmon_past):
            dcmon(inst, 0)


class LaterEnds:
    """A fleet's view of its RevealedWindow whose decision ends reach one
    slot further, within the revealed slots; its checks stay the window's."""

    def __init__(self, window):
        self.window = window

    def __getattr__(self, name):
        return getattr(self.window, name)

    def ends(self, first):
        return np.minimum(self.window.ends(first) + 1, self.window.end)


def test_chase_extreme_past_its_own_decision_end_raises(monkeypatch):
    # every row CHASE reads is revealed, but decision 15 takes the top its
    # savings reach at slot 16, past its own end at w = 0
    init = ChaseFleet.__init__

    def later(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.window = LaterEnds(self.window)

    monkeypatch.setattr(ChaseFleet, "__init__", later)
    energy, price = np.full(20, 64.0), np.full(20, CH_PRICE)
    for block in (4, 256):  # decision 15 is inside a block, not its last
        monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
        with pytest.raises(LookaheadViolation,
                           match=r"slot 16 is outside the window \[1, 15\] of decision 15"):
            chase(CH_GEN, energy, price, 0)
    window = RevealedWindow(20, lookahead=2)
    window.reveal(20)
    window.check_each(3, np.array([[5], [6], [0]]))
    with pytest.raises(LookaheadViolation, match=r"slot 7 is outside the window \[1, 6\] of decision 4"):
        window.check_each(3, np.array([[5], [7], [0]]))


def test_gcsr_breakeven_slot_past_its_own_decision_end_raises(monkeypatch):
    # every row GCSR reads is revealed, but the gap's break-even slot 5 is
    # charged to decision 4, whose own end at w = 0 is slot 4
    init = GcsrFleet.__init__

    def later(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.window = LaterEnds(self.window)

    monkeypatch.setattr(GcsrFleet, "__init__", later)
    inst = dyadic_instance([1, 0, 0, 0, 0, 0, 0, 0, 1])
    for block in (3, 256):  # decision 4 is inside a block, not its last
        monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
        with pytest.raises(LookaheadViolation,
                           match=r"slot 5 is outside the window \[1, 4\] of decision 4"):
            gcsr(inst, 0)
    monkeypatch.undo()
    assert np.array_equal(gcsr(inst, 0), [1, 1, 1, 1, 0, 0, 0, 0, 1])


def test_lagged_fleet_on_a_walk_stepped_to_the_end_raises_as_standalone(monkeypatch):
    # dcmon at w = 5 lags its provisioning by ep_window = 1: decision 3 ends
    # at slot 7, but the gap's break-even slot 8 is charged to it. A walk
    # that gcsr stepped to the horizon holds that record already; the fleet
    # takes it through its own ends and its own check, as it does standalone
    inst = dyadic_instance([1, 1, 1, 1, 0, 0, 0, 0, 0, 1])
    assert OngridParams.from_instance(inst).ep_window(5) == 1
    init = GcsrFleet.__init__

    def later(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.window = LaterEnds(self.window)

    past = r"slot 8 is outside the window \[1, 7\] of decision 3"
    for block in (2, 256):  # decision 3 is inside a block, not its last
        monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
        walk = offline.GapWalk(inst)
        gcsr(inst, 5, walk=walk)
        assert walk.stepped == inst.horizon
        monkeypatch.setattr(GcsrFleet, "__init__", later)
        with pytest.raises(LookaheadViolation, match=past):
            dcmon(inst, 5)
        with pytest.raises(LookaheadViolation, match=past):
            dcmon(inst, 5, walk=walk)
        monkeypatch.setattr(GcsrFleet, "__init__", init)
    with pytest.raises(ConfigError, match="walk of its own instance"):
        gcsr(inst, 5, walk=offline.GapWalk(inst.truncated(9)))


def test_gcsr_reads_each_slot_once_whatever_the_window(monkeypatch):
    # a(s) and P(s) are read once per revealed slot s, in slot order: the
    # same reads at every window, the whole horizon's included
    inst = harness.build_instance(harness.synthesize_trace(3, 12, 8, "ny"),
                                  harness.validate_config({"servers": 8}))
    assert inst.horizon > offline.BLOCK_SLOTS
    read = RevealedWindow.read
    reads = []

    def read_counted(window, series, first, last=None):
        reads.append(("a", first, first if last is None else last))
        return read(window, series, first, last)

    monkeypatch.setattr(RevealedWindow, "read", read_counted)
    blocks = record_blocks(monkeypatch)
    for w in (0, 16, inst.horizon):
        reads.clear()
        blocks.clear()
        gcsr(inst, w)
        reads.extend(("P", start, stop) for start, stop, _ in blocks)
        for kind in "aP":
            slots = [s for k, first, last in reads if k == kind for s in range(first, last + 1)]
            assert slots == list(range(1, inst.horizon + 1))


@pytest.mark.parametrize("lookahead", [-1, 1.5, float("nan"), None, "3"])
def test_online_entry_points_reject_a_lookahead_that_is_not_a_whole_slot_count(lookahead):
    inst = dyadic_instance([1, 0, 1])
    with pytest.raises(ConfigError, match="lookahead"):
        gcsr(inst, lookahead)
    with pytest.raises(ConfigError, match="lookahead"):
        chase(CH_GEN, np.full(3, 64.0), np.full(3, CH_PRICE), lookahead)
    with pytest.raises(ConfigError, match="lookahead"):
        dcmon(inst, lookahead)


# ---------------------------------------------------------------------------
# GCSR hand traces


def test_gcsr_no_lookahead_waits_out_the_breakeven_window():
    inst = dyadic_instance([1, 0, 0, 0, 0, 0, 1])
    # without look-ahead the slice idles 3 slots and turns off on the 4th,
    # when accumulated idle cost reaches beta_s
    assert np.array_equal(gcsr(inst, 0), [1, 1, 1, 1, 0, 0, 1])


def test_gcsr_full_window_matches_offline():
    inst = dyadic_instance([1, 0, 0, 0, 0, 0, 1])
    # 5-slot gap costs 5 * 0.03125 > beta_s, so offline turns off at the gap
    x = gcsr(inst, 4)
    assert np.array_equal(x, [1, 0, 0, 0, 0, 0, 1])
    assert np.array_equal(x, solve_cp_offline(inst))


def test_gcsr_partial_window_interpolates():
    inst = dyadic_instance([1, 0, 0, 0, 0, 0, 1])
    # w=2: the break-even point becomes visible two slots into the gap
    assert np.array_equal(gcsr(inst, 2), [1, 1, 0, 0, 0, 0, 1])


def test_gcsr_holds_through_cheap_gap():
    inst = dyadic_instance([1, 0, 0, 0, 1])
    # 3-slot gap costs 0.09375 < beta_s: stay on at any window
    for w in (0, 2, 4, 8):
        assert np.array_equal(gcsr(inst, w), [1, 1, 1, 1, 1])


def test_gcsr_breakeven_tie_turns_off():
    inst = dyadic_instance([1, 0, 0, 0, 0, 1])
    # 4-slot gap costs exactly beta_s; offline prefers off and GCSR agrees
    assert np.array_equal(gcsr(inst, 4), solve_cp_offline(inst))
    assert np.array_equal(gcsr(inst, 4), [1, 0, 0, 0, 0, 1])


def reference_gcsr(instance, lookahead):
    """The slot-by-slot, slice-by-slice GCSR loop that the array engine
    replaced: a running idle-cost accumulator per slice and a bisect over
    per-slice prefix sums. Returns (series, slices)."""
    t_end, m, beta_s = instance.horizon, instance.max_servers, instance.server.beta_s
    prefix = [[0.0] for _ in range(m)]
    busy = [[] for _ in range(m)]
    for t in range(1, t_end + 1):
        idle = (instance.p(t) * np.diff(instance.demand_table(t))).tolist()
        for i in range(m):
            prefix[i].append(prefix[i][-1] + idle[i])
            busy[i].append(instance.a(t) > i)
    acc, state = [0.0] * m, [0] * m
    series, slices = [], [[] for _ in range(m)]
    for t in range(1, t_end + 1):
        window_end = min(t + lookahead, t_end)
        for i in range(m):
            pref = prefix[i]
            if busy[i][t - 1]:
                on = 1
                acc[i] = 0.0
            else:
                target = beta_s - acc[i] + pref[t - 1]
                hit = bisect_left(pref, target, lo=t, hi=window_end + 1)
                if hit > window_end or any(busy[i][t - 1 : hit]):
                    on = state[i]
                    acc[i] += (pref[t] - pref[t - 1]) * on
                else:
                    on = 0
                    acc[i] = 0.0
            state[i] = on
            slices[i].append(on)
        series.append(sum(state))
    return np.array(series, dtype=float), np.array(slices, dtype=float).reshape(m, t_end)


def test_gcsr_matches_the_slice_by_slice_reference():
    rng = np.random.default_rng(25)
    for k in range(400):
        inst = random_tiny_instance(rng) if k % 2 else random_bound_instance(rng)
        for w in (0, 1, 3, 8, inst.horizon):
            x, slices = gcsr(inst, w, return_slices=True)
            want_x, want_slices = reference_gcsr(inst, w)
            assert np.array_equal(x, want_x)
            assert np.array_equal(slices, want_slices)
            assert np.array_equal(gcsr(inst, w), x)


def test_gcsr_and_dcmon_refill_the_stream_block_by_block(monkeypatch):
    # random tiny instances fit in one default block; small blocks make the
    # fleet evaluate (and drop) rows many times within one run
    rng = np.random.default_rng(29)
    cases = []
    for k in range(60):
        inst = random_tiny_instance(rng) if k % 2 else random_bound_instance(rng)
        for w in (0, 1, 3, inst.horizon):
            cases.append((inst, w, reference_gcsr(inst, w), dcmon(inst, w)))
    for block in (1, 2, 5):
        monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
        for inst, w, (want_x, want_slices), want in cases:
            x, slices = gcsr(inst, w, return_slices=True)
            assert np.array_equal(x, want_x)
            assert np.array_equal(slices, want_slices)
            sched = dcmon(inst, w)
            for name in "xyuv":
                assert np.array_equal(getattr(sched, name), getattr(want, name))


def test_gcsr_and_dcmon_over_more_than_one_default_block(monkeypatch):
    inst = harness.build_instance(harness.synthesize_trace(3, 12, 8, "ny"),
                                  harness.validate_config({"servers": 8}))
    assert inst.horizon > offline.BLOCK_SLOTS
    windows = (0, 4, 16, inst.horizon)
    scheds = []
    for w in windows:
        want_x, want_slices = reference_gcsr(inst, w)
        x, slices = gcsr(inst, w, return_slices=True)
        assert np.array_equal(x, want_x)
        assert np.array_equal(slices, want_slices)
        scheds.append(dcmon(inst, w))
        assert np.array_equal(scheds[-1].x, want_x)
    monkeypatch.setattr(offline, "BLOCK_SLOTS", inst.horizon)  # one block, no refill
    for w, want in zip(windows, scheds):
        sched = dcmon(inst, w)
        for name in "xyuv":
            assert np.array_equal(getattr(sched, name), getattr(want, name))


def test_gcsr_decision_needs_its_own_slot_revealed():
    inst = dyadic_instance([1, 0, 0, 1])
    window = RevealedWindow(inst.horizon)
    fleet = GcsrFleet(inst, window)
    window.reveal(1)
    fleet.decide_next()
    with pytest.raises(LookaheadViolation):
        fleet.decide_next()


def test_chase_decision_needs_its_own_slot_revealed():
    window = RevealedWindow(3)
    fleet = ChaseFleet(CH_GEN, np.full(3, 64.0), np.full(3, CH_PRICE), window)
    window.reveal(1)
    fleet.decide_next()
    with pytest.raises(LookaheadViolation, match=r"slot 2 is outside the revealed window \[1, 1\]"):
        fleet.decide_next()


def test_gcsr_full_window_agrees_with_offline_at_exact_ties():
    # single-slice traces whose restart cost equals one gap's idle cost,
    # summed both as the offline rule used to (a slice sum) and as a
    # prefix-sum difference; a window covering the horizon must reproduce
    # the offline decisions at every such tie
    rng = np.random.default_rng(26)
    cases = 0
    while cases < 1200:
        t_end = int(rng.integers(4, 16))
        busy = rng.random(t_end) < 0.4
        busy[0] = busy[-1] = True
        gaps = np.flatnonzero(~busy)
        if len(gaps) == 0:
            continue
        price = rng.uniform(0.05, 0.4, t_end)
        c_idle = float(rng.uniform(0.1, 0.5))
        idle = price * c_idle
        start = end = int(rng.choice(gaps))
        while not busy[start - 1]:
            start -= 1
        while not busy[end + 1]:
            end += 1
        if cases % 2:
            beta_s = float(idle[start : end + 1].sum())
        else:
            prefix = np.cumsum(idle)
            beta_s = float(prefix[end] - prefix[start - 1])
        inst = Instance(
            workload=np.where(busy, rng.uniform(0.1, 1.0, t_end), 0.0),
            price=price,
            server=ServerModel(c_idle, c_idle + 0.2, beta_s),
            generator=GeneratorModel(60.0, 0.08, 1.2, 24.0, 0),
        )
        assert np.array_equal(gcsr(inst, t_end), solve_cp_offline(inst))
        cases += 1


def test_gcsr_never_idles_part_of_a_gap_it_can_see_whole():
    # idle costs 0.01, 0.02, 0.07 add up to beta_s = 0.1 (a tie, in real
    # numbers); the running-accumulator rule idled slot 2 and then turned
    # off at slot 3, paying for both. Once the window covers the gap the
    # verdict is made at its first slot and holds to its end.
    inst = Instance(
        workload=[1.0, 0.0, 0.0, 0.0, 1.0],
        price=[0.1, 0.1, 0.2, 0.7, 0.1],
        server=ServerModel(c_idle=0.1, c_peak=0.1, beta_s=0.1),
        generator=GeneratorModel(60.0, 0.08, 1.2, 24.0, 0),
    )
    for w in (2, 3, 4):
        x = gcsr(inst, w)
        assert np.array_equal(x, solve_cp_offline(inst))
        assert len(set(x[1:4])) == 1


def test_gcsr_slices_sum_and_nest():
    rng = np.random.default_rng(20)
    for _ in range(25):
        inst = random_tiny_instance(rng)
        w = int(rng.integers(0, 5))
        x, slices = gcsr(inst, w, return_slices=True)
        assert np.array_equal(slices.sum(axis=0), x)
        for hi, lo in zip(slices, slices[1:]):
            assert np.all(hi >= lo)


def test_gcsr_never_turns_off_while_busy_is_visible():
    inst = dyadic_instance([2, 0, 2])
    assert np.array_equal(gcsr(inst, 0), [2, 2, 2])
    assert np.array_equal(gcsr(inst, 4), [2, 2, 2])


# ---------------------------------------------------------------------------
# CHASE hand traces

# dyadic generator economics: gain per loaded slot at price 27/256 is
# 64 * (27/256 - 1/16) - 5/4 = 1.5 exactly, so -beta_g is erased in 16 slots
CH_GEN = GeneratorModel(capacity=64.0, c_o=0.0625, c_m=1.25, beta_g=24.0, count=1)
CH_PRICE = 0.10546875


def test_chase_no_lookahead_switches_at_the_extreme():
    t_end = 20
    y = chase(CH_GEN, np.full(t_end, 64.0), np.full(t_end, CH_PRICE), 0)
    assert np.array_equal(y, [0] * 15 + [1] * 5)


def test_chase_lookahead_switches_when_the_extreme_enters_the_window():
    t_end = 20
    y = chase(CH_GEN, np.full(t_end, 64.0), np.full(t_end, CH_PRICE), 8)
    assert np.array_equal(y, [0] * 7 + [1] * 13)
    y = chase(CH_GEN, np.full(t_end, 64.0), np.full(t_end, CH_PRICE), 20)
    assert np.array_equal(y, np.ones(t_end))


def test_chase_turns_off_after_the_bottom_traversal():
    energy = np.concatenate([np.full(16, 64.0), np.zeros(24)])
    price = np.full(40, CH_PRICE)
    # idle drain is -c_m = -1.25 per slot; 0 down to -24 needs 20 slots
    y = chase(CH_GEN, energy, price, 0)
    assert np.array_equal(y, [0] * 15 + [1] * 20 + [0] * 5)


def test_chase_stays_off_when_generation_never_pays():
    y = chase(CH_GEN, np.full(10, 64.0), np.full(10, 0.05), 3)
    assert np.array_equal(y, np.zeros(10))


# ---------------------------------------------------------------------------
# horizon end: unknown to the online rules, free to the offline ones


def test_full_window_gcsr_differs_from_offline_only_in_trailing_gaps():
    rng = np.random.default_rng(35)
    busy_ending = trailing_holds = 0
    for k in range(600):
        inst = random_tiny_instance(rng) if k % 2 else random_bound_instance(rng)
        t_end = inst.horizon
        x, on = gcsr(inst, t_end, return_slices=True)
        off = cp_offline_slices(inst)
        busy = inst.workload > np.arange(inst.max_servers)[:, None]  # (M, T)
        last_busy = t_end - np.argmax(busy[:, ::-1], axis=1)  # every slice is busy somewhere
        trailing = np.arange(1, t_end + 1) > last_busy[:, None]
        assert np.array_equal(on[~trailing], off[~trailing])
        assert np.all(on >= off)
        if busy[:, -1].all():
            assert np.array_equal(x, solve_cp_offline(inst))
            busy_ending += 1
        trailing_holds += not np.array_equal(on, off)
    assert busy_ending >= 300 and trailing_holds >= 20


def test_full_window_chase_differs_from_offline_only_in_end_segments():
    rng = np.random.default_rng(36)
    differing = 0
    for _ in range(1500):
        gen, energy, price = random_ep_problem(rng)
        t_end = len(energy)
        on = chase_slices(gen, energy, price, t_end)
        off = ep_offline_slices(gen, energy, price)
        for i in range(gen.count):
            segments = regret_process(gen, slice_energy(energy, i + 1, gen.capacity), price).segments
            end = [seg for seg in segments if seg.kind == "end"]
            mask = np.zeros(t_end, dtype=bool)
            for seg in end:
                mask[seg.start - 1 : seg.end] = True
                assert len(set(on[i, seg.start - 1 : seg.end])) == 1  # CHASE holds
            assert np.array_equal(on[i, ~mask], off[i, ~mask])
            differing += not np.array_equal(on[i], off[i])
    assert differing >= 20


# ---------------------------------------------------------------------------
# combined pipeline


def test_dcmon_provisioning_matches_standalone_gcsr():
    rng = np.random.default_rng(21)
    for _ in range(30):
        inst = random_tiny_instance(rng)
        for w in (0, 1, 3, 6):
            sched = dcmon(inst, w)
            assert np.array_equal(sched.x, gcsr(inst, w))


def test_dcmon_without_generators_is_grid_only_gcsr():
    rng = np.random.default_rng(22)
    for _ in range(10):
        inst = random_tiny_instance(rng).with_generator_count(0)
        sched = dcmon(inst, 2)
        assert np.array_equal(sched.y, np.zeros(inst.horizon))
        ref = grid_only_schedule(inst, gcsr(inst, 2))
        assert evaluate(inst, sched).total == pytest.approx(
            evaluate(inst, ref).total, abs=1e-12)


def test_dcmon_schedule_is_feasible_and_dispatch_optimal():
    rng = np.random.default_rng(23)
    for _ in range(20):
        inst = random_tiny_instance(rng)
        sched = dcmon(inst, 2)
        costs = evaluate(inst, sched)  # evaluate re-checks feasibility
        d = demand_series(inst, sched.x)
        assert np.allclose(sched.u + sched.v, d, atol=1e-9)


def test_dcmon_supply_window_comes_from_params(monkeypatch):
    # CHASE decides slot t on the energy of slots up to t + params.ep_window(w)
    ends = []
    decide = online.ChaseFleet.decide_next

    def decide_recorded(fleet):
        first = fleet.next_slot
        block = fleet.window.ends(first)  # the window ends of the decisions about to be made
        decide(fleet)
        assert fleet.next_slot == first + len(block)
        assert fleet.window.end == block[-1]  # nothing revealed past the block's last end
        ends.extend(block.tolist())

    monkeypatch.setattr(online.ChaseFleet, "decide_next", decide_recorded)
    inst = dyadic_instance([1, 0, 1, 0, 0, 0, 0, 0, 1, 0])  # span 4 slots
    t_end, w = inst.horizon, 6
    for block in (1, 3, offline.BLOCK_SLOTS):
        monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
        for params, w_ep in (
            (None, 2),
            (OngridParams.from_instance(inst), 2),
            (OngridParams(beta_s=BETA_S, p_min=0.125, d_min=0.125), 0),  # span 8
            (OngridParams(beta_s=IDLE, p_min=0.125, d_min=0.25), 5),  # span 1
            (OngridParams(beta_s=BETA_S, p_min=0.0, d_min=0.25), 0),  # free idling
        ):
            ends.clear()
            sched = dcmon(inst, w, params)
            assert ends == [min(t + w_ep, t_end) for t in range(1, t_end + 1)]
            assert np.array_equal(sched.x, gcsr(inst, w))


def test_ep_window_is_the_surplus_over_the_breakeven_window():
    params = OngridParams.from_instance(dyadic_instance([1, 0, 1]))  # span = 4 slots exactly
    assert params.breakeven_idle_window == 4.0
    assert [params.ep_window(w) for w in (0, 4, 5, 10)] == [0, 0, 1, 6]
    free_idle = Instance(
        workload=[1.0, 0.0],
        price=[0.125, 0.125],
        server=ServerModel(c_idle=0.0, c_peak=0.25, beta_s=0.125),
        generator=GeneratorModel(60.0, 0.08, 1.2, 24.0, 0),
    )
    free = OngridParams.from_instance(free_idle)
    assert math.isinf(free.breakeven_idle_window)
    assert free.ep_window(100) == 0  # infinite span leaves no surplus
    assert free.coverage(100) == 0.0


def test_ep_window_lies_between_zero_and_the_window():
    rng = np.random.default_rng(27)
    for k in range(200):
        inst = random_tiny_instance(rng) if k % 2 else random_bound_instance(rng)
        params = OngridParams.from_instance(inst)
        span = params.breakeven_idle_window
        for w in range(65):
            w_ep = params.ep_window(w)
            assert 0 <= w_ep <= w
            assert w_ep == (math.floor(w - span) if w > span else 0)
            assert 0.0 <= params.coverage(w) <= 1.0
    free = OngridParams(beta_s=BETA_S, p_min=0.0, d_min=0.25)
    assert all(free.ep_window(w) == 0 for w in range(65))


def test_truncated_replay_reproduces_the_online_prefix():
    rng = np.random.default_rng(24)
    inst = random_tiny_instance(rng)
    w = 2
    params = OngridParams.from_instance(inst)  # the parent's a-priori values
    full_x = gcsr(inst, w)
    full = dcmon(inst, w, params)
    for cut_at in range(1, inst.horizon + 1):
        cut = inst.truncated(cut_at)
        assert np.array_equal(gcsr(cut, w), full_x[:cut_at])
        replay = dcmon(cut, w, params)
        assert np.array_equal(replay.x, full.x[:cut_at])
        assert np.array_equal(replay.y, full.y[:cut_at])


# ---------------------------------------------------------------------------
# closed-form ratio bounds

PARAMS = BoundParams(
    beta_s=0.08,
    beta_g=24.0,
    c_o=0.08,
    c_m=1.2,
    capacity=60.0,
    p_min=0.1,
    p_max=0.2,
    d_min=0.1,
)


def test_ongrid_bound_endpoints():
    assert ratio_bound_ongrid(0, PARAMS) == 2.0
    # break-even window is 0.08 / 0.01 = 8 slots
    assert ratio_bound_ongrid(8, PARAMS) == 1.0
    assert ratio_bound_ongrid(100, PARAMS) == 1.0
    assert ratio_bound_ongrid(4, PARAMS) == pytest.approx(1.5)


def test_ongrid_bound_on_params_read_off_an_instance():
    params = OngridParams.from_instance(dyadic_instance([1, 0, 1]))  # span = 4 slots
    assert ratio_bound_ongrid(0, params) == 2.0
    assert ratio_bound_ongrid(2, params) == 1.5
    assert ratio_bound_ongrid(4, params) == 1.0
    assert ratio_bound_ongrid(9, params) == 1.0


def test_bound_params_extend_the_ongrid_params():
    # one alpha_s and one supply window for every bound: the hybrid bounds
    # read the same coverage and ep_window as the on-grid bound
    rng = np.random.default_rng(34)
    for _ in range(100):
        inst = random_bound_instance(rng, generators=1)
        bound = BoundParams.from_instance(inst)
        ongrid = OngridParams.from_instance(inst)
        assert OngridParams(beta_s=bound.beta_s, p_min=bound.p_min, d_min=bound.d_min) == ongrid
        for w in range(33):
            assert ratio_bound_ongrid(w, bound) == ratio_bound_ongrid(w, ongrid)
            assert bound.ep_window(w) == ongrid.ep_window(w)
    assert issubclass(BoundParams, OngridParams)
    with pytest.raises(TypeError):
        OngridParams(0.125, 0.125, 0.25)  # keyword-only
    with pytest.raises(dataclasses.FrozenInstanceError):
        PARAMS.p_min = 0.2
    with pytest.raises(ConfigError):
        OngridParams(beta_s=0.0, p_min=0.1, d_min=0.1)
    with pytest.raises(ConfigError):
        OngridParams(beta_s=0.1, p_min=-0.1, d_min=0.1)
    # a span that underflows to 0.0 would divide alpha_s by zero; an
    # infinite one (free idling) is valid
    with pytest.raises(ConfigError, match=r"break-even span .* is 0\.0"):
        OngridParams(beta_s=5e-324, p_min=0.1, d_min=100.0)
    assert OngridParams(beta_s=5e-324, p_min=0.0, d_min=100.0).coverage(4) == 0.0


def test_ep_bound_value_and_decay():
    # margin L*P - L*c_o - c_m = 6; at w=0 the bound is 1 + 2*24*6/(24*12) = 2
    assert ratio_bound_ep(0, PARAMS) == pytest.approx(2.0)
    vals = [ratio_bound_ep(w, PARAMS) for w in range(0, 12)]
    assert all(b > n for b, n in zip(vals, vals[1:]))
    assert all(v >= 1.0 for v in vals)


def test_hybrid_bound_values_and_loose_form():
    # rho = L*P / (L*c_o + c_m) = 12 / 6 = 2
    assert rho_decomposition(PARAMS) == pytest.approx(2.0)
    assert ratio_bound_hybrid(0, PARAMS) == pytest.approx(8.0)
    assert ratio_bound_hybrid_loose(0, PARAMS) == pytest.approx(8.8)
    for w in (0, 2, 8, 16, 40):
        assert ratio_bound_hybrid(w, PARAMS) <= ratio_bound_hybrid_loose(w, PARAMS) + 1e-12


def test_bounds_reject_uneconomical_generation():
    with pytest.raises(ConfigError):
        BoundParams(
            beta_s=0.08, beta_g=24.0, c_o=0.08, c_m=1.2,
            capacity=60.0, p_min=0.05, p_max=0.1, d_min=0.1,
        )


def test_bound_params_from_instance():
    inst = Instance(
        workload=[1.0, 0.0],
        price=[0.11, 0.21],
        server=ServerModel(c_idle=0.1, c_peak=0.25, beta_s=0.08),
        generator=GeneratorModel(60.0, 0.08, 1.2, 24.0, 1),
    )
    params = BoundParams.from_instance(inst)
    assert params.p_min == 0.11 and params.p_max == 0.21
    assert params.d_min == pytest.approx(0.1)
    assert params.beta_s == 0.08 and params.beta_g == 24.0
