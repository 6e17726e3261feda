"""Look-ahead online algorithms and their competitive-ratio bounds.

Provisioning (GCSR): each unit server slice idles through a workload gap
until the idle cost since the gap began, plus what the look-ahead window
shows is still coming, reaches the restart cost beta_s; then it turns off.
All M slices are decided together, one numpy step per slot: slice state is
two length-M arrays (on/off, and the gap anchor P(g-1) of the running
idle-cost sum P), and a (window x M) block of prefix rows is tested with
the anchored predicate P(j) - P(g-1) >= beta_s that the offline slice rule
shares, so online and offline agree at exact ties. Only the prefix rows of
the current window are kept: O(w*M) memory.

Supply (CHASE): each unit generator slice tracks the clamped cumulative
savings of running versus buying from the grid and switches to whichever
extreme the window shows the process hitting next.

The combined pipeline (DCMON) feeds GCSR's provisioning decisions, computed
slightly ahead of the output slot, to CHASE as its energy demand. Every read
goes through a window object (LookaheadStream over the instance,
RevealedWindow over the series CHASE reads) that raises on any access past
the revealed window, so causality violations are structural errors rather
than silent bugs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LookaheadViolation
from .model import GeneratorModel, Instance, Schedule, breakeven_span, dispatched_schedule
from .offline import reaches_breakeven, regret_steps

# ---------------------------------------------------------------------------
# revealed-window plumbing


class LookaheadStream:
    """Sequential view of an instance with a fixed look-ahead window.

    At cursor t, slots 1..min(T, t+w) are revealed. Reading any later slot
    raises LookaheadViolation; the cursor only moves forward.
    """

    def __init__(self, instance: Instance, lookahead: int):
        if lookahead < 0 or lookahead != int(lookahead):
            raise ConfigError(f"lookahead must be a nonnegative integer, got {lookahead}")
        self.instance = instance
        self.lookahead = int(lookahead)
        self._cursor = 1

    @property
    def cursor(self) -> int:
        return self._cursor

    @property
    def revealed_end(self) -> int:
        return min(self.instance.horizon, self._cursor + self.lookahead)

    def advance(self) -> None:
        if self._cursor <= self.instance.horizon:
            self._cursor += 1

    def _check(self, t: int) -> None:
        if not 1 <= t <= self.revealed_end:
            raise LookaheadViolation(
                f"slot {t} is outside the revealed window [1, {self.revealed_end}] "
                f"(cursor {self._cursor}, lookahead {self.lookahead})"
            )

    def workload(self, t: int) -> float:
        self._check(t)
        return self.instance.a(t)

    def price(self, t: int) -> float:
        self._check(t)
        return self.instance.p(t)

    def demand_table(self, t: int) -> np.ndarray:
        self._check(t)
        return self.instance.demand_table(t)

    def demand(self, t: int, x) -> float:
        """d_t(x) for one fleet size x: the same float as demand_table(t)[x]."""
        self._check(t)
        return float(self.instance._demand(t - 1, float(x)))


class RevealedWindow:
    """Slots 1..end of slot-indexed series, read through checked readers.

    The owner moves end forward as slots are revealed; a reader raises
    LookaheadViolation for any slot outside [1, end]. A reader sees the
    series object itself, so a list that grows as decisions are made can be
    read as it grows.
    """

    def __init__(self) -> None:
        self.end = 0

    def reader(self, series):
        """Callable slot -> float over series, checked against this window."""

        def read(t: int) -> float:
            if not 1 <= t <= self.end:
                raise LookaheadViolation(f"slot {t} beyond revealed window [1, {self.end}]")
            return float(series[t - 1])

        return read


# ---------------------------------------------------------------------------
# provisioning: GCSR


class GcsrFleet:
    """All unit server slices of one GCSR run, decided slot by slot.

    Slice i (0-based) is busy in slot t iff a(t) > i. Its state is two
    entries of length-M arrays: the previous on/off decision and the anchor
    base_i = P_i(g-1), the running idle-cost sum at the last busy slot, where
    P_i(s) = P_i(s-1) + p(s) * (d_s(i+1) - d_s(i)). An idle, powered slice
    turns off at slot t once reaches_breakeven(P_i(j), base_i, beta_s) holds
    for some revealed j >= t with no busy slot in t..j; the offline rule
    evaluates the same predicate on the same floats.

    Each decision is one numpy step over all slices: a (window x M) block
    of prefix rows against the anchors, the first hit per slice by argmax,
    and "busy before the hit" from the running maximum of the workload
    (slices are nested, so a slot busy for slice i has a(t) > i). Only the
    prefix rows from the previous slot to the window end are kept, so
    memory is O(w*M) plus one workload number per revealed slot; per-slice
    decisions are stored only when asked for.
    """

    def __init__(self, stream: LookaheadStream, record_slices: bool = False):
        self.stream = stream
        self.n_slices = stream.instance.max_servers
        self.beta_s = stream.instance.server.beta_s
        self._slices = np.arange(self.n_slices)
        self._on = np.zeros(self.n_slices, dtype=bool)
        self._base = np.zeros(self.n_slices)  # P(g-1) of each slice's current gap
        # prefix rows P(s) for slots s = _first .. _cached, from _rows[0]
        self._rows = np.zeros((4, self.n_slices))
        self._first = 0
        self._cached = 0
        self._load = np.empty(stream.instance.horizon)  # a(s) of every revealed slot s
        self.next_slot = 1
        self.series: list[int] = []
        self.slice_series: list[np.ndarray] | None = [] if record_slices else None

    def _cache_to(self, end: int) -> None:
        while self._cached < end:
            t = self._cached + 1
            idle = self.stream.price(t) * np.diff(self.stream.demand_table(t))
            self._load[t - 1] = self.stream.workload(t)
            held = t - self._first
            if held == len(self._rows):
                # rows before the previous decision slot are never read again
                drop = self.next_slot - 1 - self._first
                live = self._rows[drop:held]
                if drop < held // 2:
                    self._rows = np.empty((2 * held, self.n_slices))
                self._rows[: held - drop] = live
                self._first += drop
                held -= drop
            self._rows[held] = self._rows[held - 1] + idle
            self._cached = t

    def decide_next(self, window_end: int) -> int:
        """Decide slot self.next_slot using revealed data up to window_end."""
        t = self.next_slot
        window_end = min(window_end, self.stream.instance.horizon)
        if window_end < t:
            raise LookaheadViolation(f"window end {window_end} precedes decision slot {t}")
        self._cache_to(window_end)
        rows = self._rows[t - self._first : window_end + 1 - self._first]  # P(t..window_end)
        load = np.maximum.accumulate(self._load[t - 1 : window_end])
        busy = load[0] > self._slices
        reached = reaches_breakeven(rows, self._base, self.beta_s)
        hit = reached.argmax(axis=0)
        turn_off = reached[hit, self._slices] & (load[hit] <= self._slices)
        self._on = busy | (self._on & ~turn_off)
        self._base = np.where(busy, rows[0], self._base)
        if self.slice_series is not None:
            self.slice_series.append(self._on)
        total = int(np.count_nonzero(self._on))
        self.series.append(total)
        self.next_slot += 1
        return total


def gcsr(instance: Instance, lookahead: int, return_slices: bool = False):
    """Run GCSR over the whole horizon; returns the provisioning series."""
    stream = LookaheadStream(instance, lookahead)
    fleet = GcsrFleet(stream, record_slices=return_slices)
    for _ in range(instance.horizon):
        fleet.decide_next(stream.revealed_end)
        stream.advance()
    x = np.array(fleet.series, dtype=float)
    if return_slices:
        slices = np.array(fleet.slice_series, dtype=float).reshape(
            instance.horizon, fleet.n_slices
        )
        return x, slices.T
    return x


# ---------------------------------------------------------------------------
# supply: CHASE


class ChaseFleet:
    """All unit generator slices of one CHASE run.

    Each slice keeps its committed clamped savings value R_i(t-1); on every
    decision it rolls the process forward across the revealed window and
    switches to the extreme hit first, holding if neither is visible. The
    per-slice savings of each revealed slot are computed once, as one row.
    """

    def __init__(self, gen: GeneratorModel, energy_at, price_at):
        self.gen = gen
        self.energy_at = energy_at  # callable slot -> revealed energy demand
        self.price_at = price_at
        self._offsets = np.arange(gen.count) * gen.capacity  # slice i starts at i*L
        self._gains: list[list[float]] = []  # _gains[t-1][i] = savings of slice i in slot t
        self._regret = [-gen.beta_g] * gen.count
        self._on = [0] * gen.count
        self.next_slot = 1
        self.series: list[int] = []
        self.slice_series: list[list[int]] = [[] for _ in range(gen.count)]

    def _cache_to(self, end: int) -> None:
        while len(self._gains) < end:
            t = len(self._gains) + 1
            energy = np.clip(self.energy_at(t) - self._offsets, 0.0, self.gen.capacity)
            self._gains.append(regret_steps(self.gen, energy, self.price_at(t)).tolist())

    def decide_next(self, window_end: int) -> int:
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


def chase(
    gen: GeneratorModel,
    energy,
    price,
    lookahead: int,
    return_slices: bool = False,
):
    """Run CHASE on an energy-demand series; returns the commitment series."""
    if lookahead < 0:
        raise ConfigError(f"lookahead must be nonnegative, got {lookahead}")
    energy = np.asarray(energy, dtype=float)
    price = np.asarray(price, dtype=float)
    t_end = len(energy)
    window = RevealedWindow()
    fleet = ChaseFleet(gen, window.reader(energy), window.reader(price))
    for t in range(1, t_end + 1):
        window.end = min(t + lookahead, t_end)
        fleet.decide_next(window.end)
    y = np.array(fleet.series, dtype=float)
    if return_slices:
        return y, np.array(fleet.slice_series, dtype=float).reshape(gen.count, t_end)
    return y


# ---------------------------------------------------------------------------
# combined pipeline: DCMON


def ep_lookahead(instance: Instance, lookahead: int) -> int:
    """Supply-side window left after the provisioning stage runs ahead.

    The provisioning stage needs up to the break-even window of look-ahead
    for itself; only the surplus is usable downstream. An infinite
    break-even window (zero idle cost floor) leaves nothing.
    """
    return _window_surplus(lookahead, instance.breakeven_idle_window())


def _window_surplus(lookahead: int, span: float) -> int:
    """Whole slots of look-ahead left over after a break-even span."""
    if math.isinf(span) or lookahead <= span:
        return 0
    return int(math.floor(lookahead - span))


def dcmon(instance: Instance, lookahead: int, ep_window: int | None = None) -> Schedule:
    """Run the full online pipeline and return a complete schedule.

    GCSR decides provisioning up to ep_window slots ahead of the output
    cursor (its break-even scans clipped to the master window, which changes
    nothing once the surplus exists), the induced energy demand feeds CHASE,
    and the dispatch rule completes each slot from the decided (x, y).

    ep_window is the supply stage's look-ahead, an algorithm parameter
    normally derived from the break-even span; pass it explicitly when
    replaying a truncated view of an instance, since the derivation reads
    the price floor off the series.
    """
    t_end = instance.horizon
    gen = instance.generator
    stream = LookaheadStream(instance, lookahead)
    fleet = GcsrFleet(stream)
    w_ep = ep_lookahead(instance, lookahead) if ep_window is None else ep_window
    if not 0 <= w_ep <= lookahead:
        raise ConfigError(f"ep_window must lie in [0, {lookahead}], got {w_ep}")

    energy: list[float] = []  # energy[k] = demand at slot k+1 under GCSR fleet
    window = RevealedWindow()
    supply = ChaseFleet(gen, window.reader(energy), window.reader(instance.price))
    for t in range(1, t_end + 1):
        ahead = min(t + w_ep, t_end)
        while fleet.next_slot <= ahead:
            tau = fleet.next_slot
            x_tau = fleet.decide_next(stream.revealed_end)
            energy.append(stream.demand(tau, x_tau))
        window.end = ahead
        supply.decide_next(ahead)
        stream.advance()
    return dispatched_schedule(instance, fleet.series, supply.series)


# ---------------------------------------------------------------------------
# competitive-ratio bounds


@dataclass(frozen=True)
class BoundParams:
    """Everything the closed-form ratio bounds need to know about a model."""

    beta_s: float
    beta_g: float
    c_o: float
    c_m: float
    capacity: float
    p_min: float
    p_max: float
    d_min: float

    def __post_init__(self) -> None:
        if min(self.beta_s, self.beta_g, self.capacity) <= 0.0:
            raise ConfigError("beta_s, beta_g, capacity must be positive")
        if min(self.c_o, self.c_m, self.p_min, self.d_min) < 0.0:
            raise ConfigError("costs, prices, and d_min must be nonnegative")
        if self.c_o + self.c_m / self.capacity >= self.p_max:
            raise ConfigError(
                "bounds require economical generation: c_o + c_m/capacity < p_max "
                f"({self.c_o + self.c_m / self.capacity:.6g} >= {self.p_max:.6g})"
            )

    @classmethod
    def from_instance(cls, instance: Instance) -> "BoundParams":
        return cls(
            beta_s=instance.server.beta_s,
            beta_g=instance.generator.beta_g,
            c_o=instance.generator.c_o,
            c_m=instance.generator.c_m,
            capacity=instance.generator.capacity,
            p_min=instance.p_min,
            p_max=instance.p_max,
            d_min=instance.min_marginal_demand(),
        )

    @property
    def breakeven_idle_window(self) -> float:
        return breakeven_span(self.beta_s, self.d_min, self.p_min)


def lookahead_coverage(lookahead: int, params: BoundParams) -> float:
    """Fraction of the break-even idle window the look-ahead covers, in [0, 1]."""
    return min(1.0, lookahead * params.d_min * params.p_min / params.beta_s)


def ratio_bound_ongrid(lookahead: int, params: BoundParams) -> float:
    """Worst-case GCSR / offline ratio for grid-only provisioning."""
    return 2.0 - lookahead_coverage(lookahead, params)


def ongrid_bound_from_instance(instance: Instance, lookahead: int) -> float:
    """Grid-only GCSR bound straight from an instance (no generator needed)."""
    span = instance.breakeven_idle_window()
    cov = 0.0 if math.isinf(span) else min(1.0, lookahead / span)
    return 2.0 - cov


def ratio_bound_ep(lookahead: int, params: BoundParams) -> float:
    """Worst-case CHASE / offline ratio for the supply subproblem."""
    cap, p = params.capacity, params.p_max
    margin = cap * p - cap * params.c_o - params.c_m
    denom = params.beta_g * cap * p + lookahead * params.c_m * p * (
        cap - params.c_m / (p - params.c_o)
    )
    return 1.0 + 2.0 * params.beta_g * margin / denom


def ratio_bound_hybrid(lookahead: int, params: BoundParams) -> float:
    """Worst-case pipeline / joint-offline ratio for hybrid supply."""
    cap, p = params.capacity, params.p_max
    alpha_g = params.c_m * _window_surplus(lookahead, params.breakeven_idle_window) / params.beta_g
    margin = cap * p - cap * params.c_o - params.c_m
    bracket = 1.0 + 2.0 * margin / (
        cap * p + alpha_g * p * (cap - params.c_m / (p - params.c_o))
    )
    return (p * (2.0 - lookahead_coverage(lookahead, params)) / (params.c_o + params.c_m / cap)) * bracket


def ratio_bound_hybrid_loose(lookahead: int, params: BoundParams) -> float:
    """Simpler, weaker form of the hybrid bound (no-look-ahead tabletop form)."""
    p = params.p_max
    alpha_g = params.c_m * _window_surplus(lookahead, params.breakeven_idle_window) / params.beta_g
    head = p * (2.0 - lookahead_coverage(lookahead, params)) / (params.c_o + params.c_m / params.capacity)
    return head * (1.0 + 2.0 * (p - params.c_o) / p / (1.0 + alpha_g))


def rho_decomposition(params: BoundParams) -> float:
    """Worst-case cost inflation of solving provisioning before supply."""
    return params.capacity * params.p_max / (params.capacity * params.c_o + params.c_m)
