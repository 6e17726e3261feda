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
from dcmkit.offline import reaches_breakeven
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
