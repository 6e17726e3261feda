"""The streaming offline slice rule against its whole-horizon reference.

reference_cpoff_keep is the whole-column rule the gap-closing walk replaced:
it builds the (T, M) busy and running idle-cost arrays and finds each idle
slot's gap anchor and gap end with a running maximum and a reversed running
minimum. solve_cp_offline and cp_offline_slices must give the same series
at every block size, on random instances, dyadic exact-tie families,
leading, trailing and empty workloads, and horizons one slot either side of
a block boundary.
"""

import numpy as np
import pytest

from dcmkit import (
    GeneratorModel,
    Instance,
    ServerModel,
    cp_offline_slices,
    harness,
    solve_cp_offline,
)
from dcmkit import offline
from dcmkit.analysis import worst_case_gcsr_instance, worst_case_rho_instance
from dcmkit.offline import gap_pieces, reaches_breakeven
from dcmkit.verify import random_bound_instance, random_tiny_instance

BLOCKS = (1, 2, 5, offline.BLOCK_SLOTS)


def reference_cpoff_keep(busy, idle_cost, beta_s):
    """On/off matrix of the offline slice rule, one column per slice."""
    prefix = np.zeros((len(busy) + 1, busy.shape[1]))
    np.add.accumulate(idle_cost, axis=0, out=prefix[1:])
    base = np.where(busy, prefix[1:], -np.inf)  # P at the end of each busy slot
    end = np.where(busy, prefix[:-1], np.inf)  # P just before it
    np.maximum.accumulate(base, axis=0, out=base)
    end = np.minimum.accumulate(end[::-1], axis=0)[::-1]
    return busy | ~reaches_breakeven(end, base, beta_s)


def reference_marginal(inst):
    return np.diff(inst.demand_table(1, inst.horizon), axis=1)


def reference_cp_offline_slices(inst):
    busy = inst.workload[:, None] > np.arange(inst.max_servers)
    idle_cost = reference_marginal(inst) * inst.price[:, None]
    return reference_cpoff_keep(busy, idle_cost, inst.server.beta_s).T.astype(float)


def flat_instance(workload, price=0.125, beta_s=0.125):
    """Every server unit draws 0.25 whatever its load: dyadic idle costs."""
    return Instance(
        workload=workload,
        price=np.full(len(workload), price),
        server=ServerModel(c_idle=0.25, c_peak=0.25, beta_s=beta_s),
        generator=GeneratorModel(60.0, 0.08, 1.2, 24.0, 0),
    )


def _cases():
    rng = np.random.default_rng(43)
    cases = []
    for k in range(50):
        inst = random_tiny_instance(rng) if k % 2 else random_bound_instance(rng)
        cases += [inst, inst.truncated(int(rng.integers(1, inst.horizon + 1)))]
    # dyadic exact ties: every gap of length `gap` costs exactly beta_s
    cases += [worst_case_gcsr_instance(periods=3, gap=gap, idle_ratio=4.0) for gap in (3, 4, 5)]
    cases += [worst_case_rho_instance(periods=5, gap=gap) for gap in (2, 6)]
    cases.append(worst_case_rho_instance(periods=4, generators=2).truncated(20))
    # leading and trailing idle runs, all-zero workloads (M=0), one slot
    cases += [
        flat_instance([0, 0, 2, 0, 1, 0, 0, 0, 0, 2, 0.5, 0, 0]),
        flat_instance([0.0, 0.0, 0.0]),
        flat_instance([0.0, 0.4, 0.0], price=0.1, beta_s=0.08),  # a lone busy slot
        flat_instance([0.0]),
        flat_instance([1.5]),
        flat_instance([0, 3, 0, 0, 0, 3]),  # a 4-slot gap ties beta_s
    ]
    # horizons one slot either side of the default block boundary
    big = harness.build_instance(harness.synthesize_trace(5, 11, 8, "ny"),
                                 harness.validate_config({"servers": 8}))
    for t_end in (offline.BLOCK_SLOTS - 1, offline.BLOCK_SLOTS, offline.BLOCK_SLOTS + 1):
        cases.append(big.truncated(t_end))
    return cases


CASES = _cases()


def test_cases_cover_the_edges():
    assert any(inst.max_servers == 0 for inst in CASES)
    assert any(inst.horizon == 1 for inst in CASES)
    assert any(inst.workload[0] == 0.0 and inst.workload[-1] == 0.0 for inst in CASES)
    assert max(inst.horizon for inst in CASES) > offline.BLOCK_SLOTS


@pytest.mark.parametrize("block", BLOCKS)
def test_streaming_cpoff_matches_whole_horizon_reference(monkeypatch, block):
    monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
    for k, inst in enumerate(CASES):
        want = reference_cp_offline_slices(inst)
        slices = cp_offline_slices(inst)
        assert slices.shape == want.shape, k
        assert np.array_equal(slices, want), k
        x = solve_cp_offline(inst)
        assert x.dtype == float, k
        assert np.array_equal(x, want.sum(axis=0) if len(want) else np.zeros(inst.horizon)), k


def stable_gap_pieces(need, prefix, start, carried):
    """gap_pieces as first written: carried gaps and the block's events put
    in slice order by a stable sort of their int64 slice indices."""
    was, now = need[:-1], need[1:]
    count = np.abs(now - was)
    row = np.repeat(np.arange(len(count)), count)
    i = np.arange(len(row)) + np.repeat(np.minimum(was, now) - np.cumsum(count) + count, count)
    opens = np.repeat(now < was, count)
    slices, first, base = carried
    held = len(slices)
    first = np.concatenate((first, start + row))
    base = np.concatenate((base, prefix[row, i]))
    i = np.concatenate((slices, i))
    row = np.concatenate((np.zeros(held, dtype=int), row))
    opens = np.concatenate((np.ones(held, dtype=bool), opens))
    order = np.argsort(i, kind="stable")
    i, row, opens, first, base = i[order], row[order], opens[order], first[order], base[order]
    last = np.full(len(i), len(need) - 1)
    follows = np.flatnonzero(i[1:] == i[:-1]) + 1
    last[follows - 1] = row[follows]
    return i[opens], first[opens], base[opens], last[opens]


def test_gap_pieces_sorts_as_the_stable_sort_did():
    # M sets the type gap_pieces sorts: uint8 up to 255, uint16 (both
    # radix sorts) up to 65535, uint32 past it
    rng = np.random.default_rng(16)
    checked = 0
    for k in range(400):
        m, rows = int(rng.integers(1, 12)), int(rng.integers(1, 40))
        if k % 100 == 0:
            m, rows = (300, 20) if k % 200 else (70_000, 3)
        need = rng.integers(0, m + 1, size=rows + 1)
        prefix = np.cumsum(rng.random((rows + 1, m)), axis=0)
        start = int(rng.integers(1, 500))
        # gaps open at slot start-1 on some of its idle slices
        idle = np.arange(need[0], m)
        slices = np.sort(rng.choice(idle, size=int(rng.integers(0, len(idle) + 1)), replace=False))
        carried = (slices, start - rng.integers(1, 50, size=len(slices)), rng.random(len(slices)))
        got = gap_pieces(need, prefix, start, carried)
        want = stable_gap_pieces(need, prefix, start, carried)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        checked += len(carried[0]) > 0 and len(got[0]) > len(carried[0])
    assert checked > 100  # draws with carried gaps and gaps opening in the block
