"""GCSR and the block evaluator against their per-slot references.

ReferenceGcsrFleet is the event-driven fleet that the block-stepped
GcsrFleet replaced: it steps once per revealed slot, tests every pending
gap on that slot's P row, and arms each turn-off for max(g, t*), t* the
decision during which the gap's break-even slot was revealed. It reads P
from one_shot_block, the evaluator idle_cost_block replaced, which builds
a whole (block, M+1) demand grid and differences it in one go. These tests
pin gcsr, its slices and dcmon's provisioning stage to the reference on
random tiny and bound instances at several windows, with the fleets
stepped in blocks of 1, 2, 5 and 256 slots, and the chunked evaluator's P
rows to the one-shot rows bit for bit. The offline series a GCSR walk
records, under gcsr's window and dcmon's, is pinned to solve_cp_offline,
and the gaps the walk follows after each step to the open gaps short of
break-even.
"""

import math
from collections import deque

import numpy as np

from dcmkit import dcmon, demand_series, gcsr, harness, offline, online, solve_cp_offline
from dcmkit.offline import idle_cost_block, reaches_breakeven
from dcmkit.online import RevealedWindow
from dcmkit.verify import random_bound_instance, random_tiny_instance

BLOCKS = (1, 2, 5, 256)


def one_shot_block(instance, start, end, carried):
    """(grid, prefix) for slots start..stop, stop the later of end and
    start + BLOCK_SLOTS - 1 within the horizon: one demand_table grid and
    P(start-1..stop), differenced, priced and summed over the whole grid."""
    stop = min(instance.horizon, max(end, start + offline.BLOCK_SLOTS - 1))
    grid = instance.demand_table(start, stop)
    prefix = np.empty((stop - start + 2, grid.shape[1] - 1))
    prefix[0] = carried
    np.multiply(instance.price[start - 1 : stop, None], np.diff(grid, axis=1), out=prefix[1:])
    np.add.accumulate(prefix, axis=0, out=prefix)
    return grid, prefix


class ReferenceGcsrFleet:
    """Per-slot GCSR: one step per revealed slot e, reading a(e) and P(e).

    Gaps that open at e take base = P(e-1) and start g = e and are pending;
    gaps that close at e are no longer pending. The pending slices are
    tested on P(e); each hit stops pending and arms one turn-off at slot
    max(g, next_slot). A decision applies the turn-offs armed for its slot,
    turns slices 0..c(t)-1 on and counts them.
    """

    def __init__(self, instance, window):
        self.instance = instance
        self.window = window
        self.n_slices = m = instance.max_servers
        self.beta_s = instance.server.beta_s
        self._on = np.zeros(m, dtype=bool)
        self._base = np.zeros(m)
        self._start = np.zeros(m, dtype=int)
        self._pending = np.zeros(m, dtype=bool)
        self._armed = {}  # slot -> slices that turn off there
        self._revealed = 0
        self._busy = deque()  # c(s) of the revealed slots not yet decided
        self._busy_last = 0
        self._row_last = np.zeros(m)
        self._last = 0  # the newest held block ends at slot _last
        self._blocks = deque()  # (first slot, demand rows, P rows)
        self.next_slot = 1
        self.series = []
        self.energy = []
        self.slice_series = []

    def idle_prefix(self, s):
        """Row P(s), for s in the newest held block or past it."""
        self.window.check(s)
        if s > self._last:
            carried = self._blocks[-1][2][-1] if self._blocks else np.zeros(self.n_slices)
            grid, prefix = one_shot_block(self.instance, self._last + 1, s, carried)
            self._blocks.append((self._last + 1, grid, prefix[1:]))
            self._last += len(grid)
        start, _, prefix = self._blocks[-1]
        return prefix[s - start]

    def _reveal(self):
        e = self._revealed + 1
        c = math.ceil(self.window.read(self.instance.workload, e))
        row = self.idle_prefix(e)
        was = self._busy_last
        if c < was:  # gaps open at e
            self._base[c:was] = self._row_last[c:was]
            self._start[c:was] = e
            self._pending[c:was] = True
        elif c > was:  # gaps close at e
            self._pending[was:c] = False
        due = self._pending[c:] & reaches_breakeven(row[c:], self._base[c:], self.beta_s)
        for i in (due.nonzero()[0] + c).tolist():
            self._pending[i] = False
            self._armed.setdefault(max(int(self._start[i]), self.next_slot), []).append(i)
        self._busy.append(c)
        self._busy_last, self._row_last, self._revealed = c, row, e

    def decide_next(self):
        t = self.next_slot
        self.window.check(t)
        while self._revealed < self.window.end:
            self._reveal()
        for i in self._armed.pop(t, ()):
            self._on[i] = False
        self._on[: self._busy.popleft()] = True
        self.slice_series.append(self._on.copy())
        total = int(np.count_nonzero(self._on))
        self.series.append(total)
        while t >= self._blocks[0][0] + len(self._blocks[0][1]):  # drop the blocks before t
            self._blocks.popleft()
        start, grid, _ = self._blocks[0]
        self.energy.append(float(grid[t - start, total]))
        self.next_slot += 1
        return total


def reference_fleet(instance, lookahead):
    """The per-slot fleet after deciding every slot under the window t + w."""
    window = RevealedWindow(instance.horizon)
    fleet = ReferenceGcsrFleet(instance, window)
    for t in range(1, instance.horizon + 1):
        window.reveal(t + lookahead)
        fleet.decide_next()
    return fleet


def reference_gcsr(instance, lookahead):
    """(series, slices) of the per-slot fleet, slices shaped (M, T)."""
    fleet = reference_fleet(instance, lookahead)
    slices = np.array(fleet.slice_series, dtype=float).reshape(instance.horizon, fleet.n_slices)
    return np.array(fleet.series, dtype=float), slices.T


def reference_dcmon_fleet(instance, lookahead):
    """The per-slot fleet driven as DCMON drives provisioning: output slot t
    reveals the master window t + w and decides through t + ep_window."""
    w_ep = online.OngridParams.from_instance(instance).ep_window(lookahead)
    t_end = instance.horizon
    window = RevealedWindow(t_end)
    fleet = ReferenceGcsrFleet(instance, window)
    for t in range(1, t_end + 1):
        window.reveal(t + lookahead)
        while fleet.next_slot <= min(t + w_ep, t_end):
            fleet.decide_next()
    return fleet


def reference_cases():
    rng = np.random.default_rng(151)
    cases = []
    for k in range(100):
        inst = random_tiny_instance(rng) if k % 2 else random_bound_instance(rng)
        cases.append(inst)
    # one instance over more than one default block
    cases.append(harness.build_instance(harness.synthesize_trace(3, 12, 8, "ny"),
                                        harness.validate_config({"servers": 8})))
    return cases


def test_gcsr_and_dcmon_match_the_per_slot_fleet(monkeypatch):
    compared = 0
    for inst in reference_cases():
        for w in sorted({0, 1, 3, 8, inst.horizon}):
            want_x, want_slices = reference_gcsr(inst, w)
            want_dcmon = reference_dcmon_fleet(inst, w)
            for block in BLOCKS:
                monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
                x, slices = gcsr(inst, w, return_slices=True)
                assert np.array_equal(x, want_x)
                assert np.array_equal(slices, want_slices)
                assert np.array_equal(gcsr(inst, w), want_x)
                assert np.array_equal(dcmon(inst, w).x, want_dcmon.series)
                compared += 1
            monkeypatch.undo()
    assert compared >= 101 * 4 * 4


def dcmon_fleet(instance, lookahead):
    """The block fleet driven as dcmon drives its provisioning stage."""
    w_ep = online.OngridParams.from_instance(instance).ep_window(lookahead)
    t_end = instance.horizon
    window = RevealedWindow(t_end, lookahead, lag=w_ep)
    fleet = online.GcsrFleet(instance, window)
    for t in range(offline.BLOCK_SLOTS, t_end + offline.BLOCK_SLOTS, offline.BLOCK_SLOTS):
        window.reveal(t + lookahead)
        while fleet.next_slot <= min(t + w_ep, t_end):
            fleet.decide_next()
    return fleet


def test_gcsr_walk_yields_the_offline_series(monkeypatch):
    # the offline rule keeps the closed gaps with no break-even slot, which
    # the GCSR walk sees whatever its window: its record is cpoff bit for bit
    compared = 0
    for inst in reference_cases():
        want = solve_cp_offline(inst).tobytes()
        for w in sorted({0, 1, 3, 8, inst.horizon}):
            for block in BLOCKS:
                monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
                x, cpoff = gcsr(inst, w, return_offline=True)
                assert cpoff.tobytes() == want
                assert np.array_equal(x, gcsr(inst, w))
                assert dcmon_fleet(inst, w).offline_series().tobytes() == want
                compared += 1
            monkeypatch.undo()
    assert compared >= 101 * 4 * 4


def test_walk_follows_exactly_the_open_gaps_short_of_breakeven():
    # after every step the walk follows the gaps open at its last slot whose
    # idle cost since their anchor is below beta_s, and no others
    for inst in reference_cases():
        t_end, m, beta_s = inst.horizon, inst.max_servers, inst.server.beta_s
        idle = inst.price[:, None] * np.diff(inst.demand_table(1, t_end), axis=1)
        prefix = np.add.accumulate(np.vstack([np.zeros(m), idle]), axis=0)
        need = np.ceil(inst.workload).astype(int)
        for block in BLOCKS:
            walk = offline.GapWalk(inst)
            busy = np.zeros(m, dtype=int)  # each slice's last busy slot, 0 before it is busy
            for start in range(1, t_end + 1, block):
                stop = min(start + block - 1, t_end)
                walk.step(inst.workload[start - 1 : stop], stop)
                for s in range(start, stop + 1):
                    busy[: need[s - 1]] = s
                idle_now = np.flatnonzero((np.arange(m) >= need[stop - 1]) & (busy > 0))
                base = prefix[busy[idle_now], idle_now]
                short = ~reaches_breakeven(prefix[stop, idle_now], base, beta_s)
                want = zip(idle_now[short], busy[idle_now][short] + 1, base[short])
                slices, first, base = walk.open_gaps
                assert sorted(zip(slices, first, base)) == sorted(want)
                assert not reaches_breakeven(prefix[stop, slices], base, beta_s).any()
            assert walk.offline_series().tobytes() == solve_cp_offline(inst).tobytes()


def test_gcsr_walk_yields_the_offline_series_on_the_presets():
    cfg = harness.validate_config({})
    traces = [harness.synthesize_trace(0, 22, 600, p) for p in ("ny", "sj", "flat")]
    traces.append(harness.synthesize_trace(0, 90, 600, "ny"))
    for trace in traces:
        inst = harness.build_instance(trace, cfg)
        want = solve_cp_offline(inst).tobytes()
        for w in (0, 4, 16):
            assert gcsr(inst, w, return_offline=True)[1].tobytes() == want


def test_fleet_energy_matches_the_per_slot_fleet(monkeypatch):
    # demand_series prices the block fleet's decided series with the floats
    # the per-slot fleet read off its demand grid
    for inst in reference_cases()[::8]:
        for w in (0, 3, inst.horizon):
            want = reference_fleet(inst, w).energy
            for block in BLOCKS:
                monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
                window = RevealedWindow(inst.horizon, w)
                fleet = online.GcsrFleet(inst, window)
                while fleet.next_slot <= inst.horizon:
                    window.reveal(fleet.next_slot + block - 1 + w)
                    fleet.decide_next()
                assert demand_series(inst, fleet.series).tobytes() == np.array(want).tobytes()
            monkeypatch.undo()


def exact_peak_instance(seed, m, days=12):
    """A synthesized ny trace scaled so that its peak, and so M, is m."""
    trace = harness.synthesize_trace(seed, days, m, "ny")
    workload = trace.workload * (m / trace.workload.max())
    inst = harness.build_instance(harness.TraceFile(workload, trace.price),
                                  harness.validate_config({"servers": m}))
    assert inst.max_servers == m
    return inst


def test_chunked_prefix_rows_are_the_one_shot_rows(monkeypatch):
    # blocks of BLOCK_SLOTS slots, each evaluated in chunks of CHUNK_CELLS
    # grid cells: the default (a 256-slot block at M=552 takes three
    # chunks) and budgets that cut a block every 1, 3 or 7 rows
    for m in (1, 8, 552):
        inst = exact_peak_instance(9, m)
        for block in BLOCKS:
            monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
            for cells in (offline.CHUNK_CELLS, m + 1, 3 * (m + 1), 7 * (m + 1)):
                monkeypatch.setattr(offline, "CHUNK_CELLS", cells)
                want_row = got_row = np.zeros(m)
                start = 1
                while start <= inst.horizon:
                    _, want = one_shot_block(inst, start, start, want_row)
                    stop = start + len(want) - 2
                    got = idle_cost_block(inst, start, stop, got_row)
                    assert got.tobytes() == want.tobytes(), (m, block, cells, start)
                    want_row, got_row, start = want[-1], got[-1], stop + 1
                monkeypatch.undo()
                monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
