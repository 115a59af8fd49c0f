"""The design-space search keeps its memo state per call.

The tiling optimizer and the static-partition baseline memoize tile
geometry, first-fit grids and per-(grid, groups) cycles.  These tests pin
that the memos live for one call only, that every returned schedule
carries its own partition's label, and that the static search costs each
distinct candidate once.  They also property-test the knapsack filter
packer against the eager-table formulation it replaced.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.deconv import (
    best_static_partition,
    lower_network,
    optimize_layers,
    pack_filter_groups,
    schedule_with_partition,
)
from repro.deconv.exhaustive import Partition
from repro.deconv.optimizer import _bounded_knapsack
from repro.hw import ASV_BASE, SystolicModel
from repro.hw.schedule import LayerWork, SubConvWork
from repro.models.stereo_networks import network_specs

HALF = ASV_BASE.with_resources(name="asv-half", buffer_bytes=ASV_BASE.buffer_bytes // 2)


def _layers(transform: bool):
    return lower_network(
        network_specs("DispNet", size=(68, 120)), transform=transform, ilar=transform
    )


def _plain(sched) -> str:
    return json.dumps(sched.to_dict(), sort_keys=True)


def _static(hw):
    part, schedules = best_static_partition(_layers(False), hw, SystolicModel(hw))
    return repr(part), [_plain(s) for s in schedules]


def _ilar(hw):
    return [_plain(s) for s in optimize_layers(_layers(True), hw, SystolicModel(hw))]


class TestMemoStateIsPerCall:
    def test_back_to_back_configs_equal_fresh_calls(self):
        fresh = {"half": (_static(HALF), _ilar(HALF))}
        fresh["base"] = (_static(ASV_BASE), _ilar(ASV_BASE))
        # the other order: base first, then half right after it
        base = (_static(ASV_BASE), _ilar(ASV_BASE))
        half = (_static(HALF), _ilar(HALF))
        assert base == fresh["base"]
        assert half == fresh["half"]
        assert base != half

    def test_schedule_with_partition_carries_its_label(self):
        layer = _layers(False)[3]
        for part in (
            Partition(256 * 1024, 256 * 1024, 256 * 1024),
            Partition(128 * 1024, 384 * 1024, 256 * 1024),
        ):
            sched = schedule_with_partition(layer, ASV_BASE, part)
            assert sched.label == f"static:{part!r}"

    def test_best_static_partition_labels_the_winner(self):
        part, schedules = best_static_partition(_layers(False), ASV_BASE)
        assert {s.label for s in schedules} == {f"static:{part!r}"}

    def test_static_search_costs_each_candidate_once(self):
        class Counting(SystolicModel):
            def __init__(self, hw):
                super().__init__(hw)
                self.costed = []

            def run_schedule(self, sched, validate: bool = True):
                body = sched.to_dict()
                del body["label"]  # the winner is rebuilt under its label
                self.costed.append(json.dumps(body, sort_keys=True))
                return super().run_schedule(sched, validate)

        model = Counting(ASV_BASE)
        _, schedules = best_static_partition(_layers(False), ASV_BASE, model)
        seen = set()
        for i, body in enumerate(model.costed):
            if body in seen:
                # the two reuse orders of one (grid, groups) may build the
                # same rounds; they are costed back to back, and only once
                twin = model.costed[i - 1]
                assert body == twin and (i == 1 or model.costed[i - 2] != body), i
            seen.add(body)
        # every returned schedule is one of the costed candidates
        for sched in schedules:
            body = sched.to_dict()
            del body["label"]
            assert json.dumps(body, sort_keys=True) in model.costed


def _eager_knapsack(cap, weights, values, counts):
    """The knapsack with an eagerly built choice table (reference)."""
    n = len(weights)
    take = [0] * n
    order = sorted(range(n), key=lambda k: -weights[k])
    room = cap
    for k in order:
        if counts[k] == 0 or weights[k] == 0:
            continue
        fit = min(counts[k], room // weights[k])
        take[k] = fit
        room -= fit * weights[k]
    if room == 0:
        return take
    items = []
    for k in range(n):
        rem = counts[k] - take[k]
        mult = 1
        while rem > 0:
            use = min(mult, rem)
            items.append((k, use, weights[k] * use, values[k] * use))
            rem -= use
            mult *= 2
    best = [0] * (room + 1)
    choice = [dict() for _ in range(room + 1)]
    for k, use, w, v in items:
        if w > room:
            continue
        for r in range(room, w - 1, -1):
            cand = best[r - w] + v
            if cand > best[r]:
                best[r] = cand
                picked = dict(choice[r - w])
                picked[k] = picked.get(k, 0) + use
                choice[r] = picked
    for k, cnt in choice[room].items():
        take[k] += cnt
    return take


_items = st.lists(
    st.tuples(
        st.integers(0, 12),  # weight; 0 reaches the DP's picking path
        st.integers(0, 20),  # value
        st.integers(0, 9),   # count
    ),
    min_size=1,
    max_size=5,
)


class TestKnapsackProperties:
    @settings(max_examples=300, deadline=None)
    @given(cap=st.integers(0, 60), items=_items)
    # greedy fills the capacity exactly: returns before the DP
    @example(cap=10, items=[(5, 1, 4)])
    # the DP runs but nothing fits the residual room: choice[room] empty
    @example(cap=10, items=[(4, 1, 2), (7, 1, 1)])
    # zero-weight items are left to the DP, which picks them
    @example(cap=7, items=[(0, 3, 2), (4, 1, 1)])
    def test_lazy_table_matches_eager_table(self, cap, items):
        weights, values, counts = (list(c) for c in zip(*items))
        take = _bounded_knapsack(cap, weights, values, counts)
        assert take == _eager_knapsack(cap, weights, values, counts)
        assert all(0 <= t <= c for t, c in zip(take, counts))
        assert sum(t * w for t, w in zip(take, weights)) <= cap

    @settings(max_examples=200, deadline=None)
    @given(
        subs=st.lists(
            st.tuples(st.integers(1, 40), st.integers(1, 3000), st.integers(0, 400)),
            min_size=1,
            max_size=4,
        ),
        slack=st.integers(0, 20_000),
    )
    def test_every_filter_lands_once_within_capacity(self, subs, slack):
        layer = LayerWork(
            name="prop",
            in_channels=4,
            ifmap_rows=8,
            ifmap_cols=8,
            subconvs=tuple(
                SubConvWork(f"s{k}", taps=1, filters=f, out_rows=2, out_cols=2)
                for k, (f, _, _) in enumerate(subs)
            ),
        )
        w_cost = [w for _, w, _ in subs]
        p_cost = [p for _, _, p in subs]
        cost = [w + p for w, p in zip(w_cost, p_cost)]
        capacity = max(cost) + slack
        value = [1] * len(subs)
        scale = max(1, capacity // 2048)
        cap = capacity // scale
        scaled = [max(1, math.ceil(c / scale)) for c in cost]
        if max(scaled) > cap:
            # the capacity is discretised conservatively: a filter that
            # fits only before rounding is refused, never over-packed
            with pytest.raises(ValueError, match="cannot fit"):
                pack_filter_groups(layer, capacity, w_cost, p_cost, value)
            return
        groups = pack_filter_groups(layer, capacity, w_cost, p_cost, value)
        for k, sub in enumerate(layer.subconvs):
            assert sum(g[k] for g in groups) == sub.filters
        for g in groups:
            assert any(g)
            assert sum(n * s for n, s in zip(g, scaled)) <= cap
            assert sum(n * c for n, c in zip(g, cost)) <= capacity
