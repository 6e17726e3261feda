"""The exact DP's value layers against the recursion on unpadded layers.

The reference below is the backward pass as it was written before the
padded layer: the x-transform takes only the next layer's own columns and
adds the columns below and above them as separate pieces, and the
generator-axis scans run in doubling steps. Its stage costs come from one
per-layer supply_cost call on a full demand_table row. Every value layer of
solve_dcm_offline must be its floats byte for byte, signed zeros included,
not only give the same schedules.
"""

import dataclasses

import numpy as np
import pytest

from dcmkit import ConditioningModel, CoolingModel, CoolingRegime, supply_cost
from dcmkit import offline
from dcmkit.verify import random_bound_instance, random_tiny_instance
from test_model import bare_instance
from test_offline import dyadic_tie_instance


def edge_piece_transform(values, offsets, start, first, last):
    """min_j values[:, j] + beta * max(0, j - i) for columns i = first..last,
    values holding columns start..stop of a row that is +inf elsewhere: a
    column below start climbs into the block, one above stop takes the row
    minimum, each as a piece of its own."""
    width = values.shape[1]
    stop = start + width - 1
    k = min(max(first - start, 0), width)  # block columns k..j-1 are output columns
    j = max(min(last - start + 1, width), k)
    idx = offsets[start + k : stop + 1]
    reach = np.minimum.accumulate((values[:, k:] + idx)[:, ::-1], axis=1)[:, ::-1]
    fall = np.minimum.accumulate(values[:, : width if last > stop else j], axis=1)
    parts = [np.minimum(reach[:, : j - k] - idx[: j - k], fall[:, k:j])]
    if first < start:
        parts.insert(0, reach[:, :1] - offsets[first : min(last + 1, start)])
    if last > stop:
        parts.append(np.repeat(fall[:, -1:], last - max(first, stop + 1) + 1, axis=1))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def doubling_running_min(rows, reverse=False):
    """np.minimum.accumulate(rows, axis=0), or over reversed rows, in place
    in ceil(log2(len(rows))) doubling steps."""
    for step in (1 << k for k in range((len(rows) - 1).bit_length())):
        earlier, later = (rows[step:], rows[:-step]) if reverse else (rows[:-step], rows[step:])
        np.minimum(earlier, later, out=later)
    return rows


def unpadded_value_layers(instance):
    """value[t] of the backward pass on unpadded layers, t = 1..T+1."""
    m, gen, t_end = instance.max_servers, instance.generator, instance.horizon
    y_grid = np.arange(gen.count + 1, dtype=float)[:, None]
    x_offsets, y_offsets = instance.server.beta_s * np.arange(m + 1, dtype=float), gen.beta_g * y_grid
    need = np.ceil(instance.workload).astype(int)
    band = offline._dp_band(instance, need)
    lows = [0, *offline._dp_floor(instance, need).tolist(), 0]
    highs = [0, *band.tolist(), 0]
    tops = [0, *offline._dp_rows(instance, band).tolist(), 0]
    value = [None] * (t_end + 2)
    value[t_end + 1] = np.zeros((1, 1))
    for t in range(t_end, 0, -1):
        lo, hi, top = lows[t], highs[t], tops[t]
        over_x = edge_piece_transform(value[t + 1], x_offsets, lows[t + 1], lo, hi)
        k = min(top + 1, len(over_x))
        layer = np.empty((top + 1, hi + 1 - lo))
        reach = doubling_running_min(over_x + y_offsets[: len(over_x)], reverse=True)
        np.subtract(reach[:k], y_offsets[:k], out=layer[:k])
        fall = doubling_running_min(over_x[:k])
        np.minimum(layer[:k], fall, out=layer[:k])
        layer[k:] = fall[-1]
        demand = instance.demand_table(t)[lo : hi + 1]
        layer += supply_cost(gen, y_grid[: top + 1], instance.p(t), demand)
        value[t] = layer
    return value


def assert_layers_match(instance, context):
    """Every value layer is the reference's floats, owns them, and holds the
    band's shape; returns (lows, highs, tops)."""
    got, lows, highs, tops = offline._value_layers(instance)
    want = unpadded_value_layers(instance)
    for t in range(1, instance.horizon + 2):
        layer = got[t]
        assert layer.shape == (tops[t] + 1, highs[t] + 1 - lows[t]), (context, t)
        assert layer.flags.owndata and layer.flags.c_contiguous, (context, t)
        assert layer.tobytes() == want[t].tobytes(), (context, t)
    return lows, highs, tops


def held_at_peak(instance, rng, zero_prices):
    """instance with a stretch of 1-5 slots held at its peak workload, where
    the layers are one fleet column, and, if zero_prices, 40% of the other
    prices set to -0.0 (p_min = 0 widens their layers to the full row)."""
    workload, price = instance.workload.copy(), instance.price
    start = int(rng.integers(0, instance.horizon))
    workload[start : start + int(rng.integers(1, 6))] = workload.max()
    if zero_prices:
        price = np.where((rng.random(instance.horizon) < 0.4) & (price < price.max()), -0.0, price)
    return dataclasses.replace(instance, workload=workload, price=price)


def one_column_steps(lows, highs):
    """The layers t of one column over a layer t+1 of one column."""
    return [t for t in range(1, len(lows) - 1) if lows[t] == highs[t] and lows[t + 1] == highs[t + 1]]


def test_value_layers_are_the_unpadded_recursion_bit_for_bit():
    # the draws of test_feasible_row_dp_matches_the_full_layer_reference,
    # every fifth also with its workload zeroed (M = 0) and every other one
    # also held at its peak for a few slots
    rng = np.random.default_rng(16)
    seen = dict(no_servers=0, no_generators=0, one_slot=0, dyadic=0, band_falls=0, need_rises=0,
                column_climbs=0, column_pads=0, column_after_wide=0, wide_after_column=0,
                zero_price_column=0)
    extra = np.random.default_rng(37)  # the held draws' own stream, so the draws above stay
    for k in range(1200):
        inst = random_tiny_instance(rng) if k % 2 else random_bound_instance(rng)
        if k % 3 == 0:
            inst = dyadic_tie_instance(inst, rng)
        whole = inst
        if k % 10 == 4:
            inst = inst.truncated(1)
        elif k % 10 == 7:
            inst = inst.truncated(int(rng.integers(1, inst.horizon + 1)))
        lows, highs, _ = assert_layers_match(inst, k)
        if k % 5 == 0:
            assert_layers_match(dataclasses.replace(inst, workload=np.zeros(inst.horizon)), (k, "M=0"))
            seen["no_servers"] += 1
        t_end = inst.horizon
        seen["no_generators"] += inst.generator.count == 0
        seen["one_slot"] += t_end == 1
        seen["dyadic"] += k % 3 == 0
        seen["band_falls"] += any(highs[t] > highs[t + 1] for t in range(1, t_end))
        seen["need_rises"] += any(lows[t] < lows[t + 1] for t in range(1, t_end))
        if k % 2 == 0:
            # one-column steps next to wide ones: a column read from a wide
            # step's layer, and a wide step that reads a column into the buffer
            held = held_at_peak(whole, extra, zero_prices=k % 4 == 0).truncated(t_end)
            lows, highs, tops = assert_layers_match(held, (k, "held"))
            wide = [hi > lo for lo, hi in zip(lows, highs)]
            steps = one_column_steps(lows, highs)
            seen["column_climbs"] += any(lows[t] < lows[t + 1] for t in steps)
            seen["column_pads"] += any(tops[t] > tops[t + 1] for t in steps)
            seen["column_after_wide"] += any(wide[t + 2] for t in steps if t < t_end)
            seen["wide_after_column"] += any(wide[t - 1] for t in steps if t > 1)
            seen["zero_price_column"] += bool(steps) and bool(np.signbit(held.price).any())
    assert min(seen.values()) >= 50, seen


def test_value_layers_do_not_depend_on_block_or_chunk_size(monkeypatch):
    rng = np.random.default_rng(25)
    draws = []
    for k in range(24):
        inst = random_tiny_instance(rng) if k % 3 == 1 else random_bound_instance(rng)
        draws.append(dyadic_tie_instance(inst, rng) if k % 3 == 2 else inst)
    # runs of one-column steps that block cuts split, half among -0.0 prices
    extra = np.random.default_rng(37)
    held = [held_at_peak(inst, extra, zero_prices=k % 2 == 0) for k, inst in enumerate(draws[:12])]
    runs = 0
    for inst in held:
        steps = one_column_steps(*offline._value_layers(inst)[1:3])
        runs += any(t + 1 in steps for t in steps)
    assert runs >= 8, runs
    draws += held
    for block in (1, 2, 5, 256):
        for chunk in (1, 64, offline.CHUNK_CELLS):
            with monkeypatch.context() as patch:
                patch.setattr(offline, "BLOCK_SLOTS", block)
                patch.setattr(offline, "CHUNK_CELLS", chunk)
                for k, inst in enumerate(draws):
                    assert_layers_match(inst, (block, chunk, k))


def test_band_cells_are_the_grid_cells_for_every_overhead_kind():
    # the flat band-cell read gives each cell the bits of its full row,
    # whatever cooling and conditioning the model has; a band may be empty
    # (low = high + 1) or a single cell, and may reach either end of the row
    servers, n_slots = 300, 40
    b_max = 0.25 * servers
    regimes = {
        "quadratic": ((0.041, 0.144, 0.047), (0.03, 0.136, 0.042)),
        "cubic": ((0.4,), (0.25,)),
    }
    coolings = [CoolingModel()] + [
        CoolingModel(kind=kind, regimes=(CoolingRegime("day", 8, 20, day),
                                         CoolingRegime("night", 20, 8, night)), b_max=b_max)
        for kind, (day, night) in regimes.items()
    ]
    conditionings = [
        ConditioningModel(),
        ConditioningModel(kind="quadratic", quad=0.012, lin=0.046, const=0.056, b_max=b_max),
    ]
    rng = np.random.default_rng(26)
    workload = rng.uniform(0.0, servers, n_slots)
    workload[0] = servers
    for cooling in coolings:
        for conditioning in conditionings:
            inst = bare_instance(workload, np.full(n_slots, 0.1),
                                 cooling=cooling, conditioning=conditioning)
            m = inst.max_servers
            for first, end in ((1, n_slots), (7, 7), (3, 19)):
                ends = np.sort(rng.integers(0, m + 1, (2, end - first + 1)), axis=0)
                lows, highs = ends[0], ends[1] - (rng.random(end - first + 1) < 0.2)
                lows[0], highs[-1] = 0, m
                cells = inst.demand_table(first, end, lows, highs)
                grid = inst.demand_table(first, end)
                want = np.concatenate([row[lo : hi + 1] for row, lo, hi in zip(grid, lows, highs)])
                assert cells.tobytes() == want.tobytes(), (cooling.kind, conditioning.kind, first)
                assert not cells.flags.writeable
            for lows, highs in (([0, 2], [m + 1, 2]), ([3, 0], [1, 0]), ([0], [0])):
                with pytest.raises(ValueError, match="one per slot"):
                    inst.demand_table(5, 6, np.array(lows), np.array(highs))
