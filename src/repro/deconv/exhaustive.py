"""Baseline scheduler: exhaustively-searched *static* buffer partition.

The paper's baseline accelerator (Sec. 6.1/6.2) statically splits the
on-chip buffer between ifmap, weights and ofmap, chooses the partition
by exhaustive offline search over the whole network, and then uses the
*same* partition for every layer.  Deconvolutions run naively (dense
over the zero-stuffed map) unless the caller lowers them transformed
(the paper's DCT-only ablation runs the transformed network on this
same static-partition baseline scheduler).

Contrast with :mod:`repro.deconv.optimizer`, which re-solves the tiling
per layer and additionally exploits inter-layer activation reuse.
"""

from __future__ import annotations

from repro.deconv.optimizer import (
    _build_schedule,
    _grids,
    _runs,
    _TileGeometry,
    _TileResolver,
)
from repro.hw.config import HWConfig
from repro.hw.schedule import LayerWork, Schedule
from repro.hw.systolic import SystolicModel

__all__ = ["Partition", "schedule_with_partition", "best_static_partition"]


class Partition:
    """A static (ifmap, weight, ofmap) byte split of the usable buffer."""

    def __init__(self, ifmap_bytes: int, weight_bytes: int, ofmap_bytes: int):
        if min(ifmap_bytes, weight_bytes, ofmap_bytes) <= 0:
            raise ValueError("every partition section needs capacity")
        self.ifmap_bytes = ifmap_bytes
        self.weight_bytes = weight_bytes
        self.ofmap_bytes = ofmap_bytes

    @property
    def total(self) -> int:
        return self.ifmap_bytes + self.weight_bytes + self.ofmap_bytes

    def __repr__(self):
        mb = 1024 * 1024
        return (
            f"Partition(if={self.ifmap_bytes / mb:.2f}MB, "
            f"w={self.weight_bytes / mb:.2f}MB, of={self.ofmap_bytes / mb:.2f}MB)"
        )


class _LayerSearch:
    """One layer's static-partition search state, for one search call.

    The first-fit grid depends only on the ifmap section, and the best
    reuse order of a (grid, groups) pair only on that pair, so both are
    memoized here.  Cycles are kept, never schedules: the winner is
    rebuilt at the end under its own partition's label.
    """

    def __init__(self, layer: LayerWork, hw: HWConfig, model: SystolicModel):
        self.layer = layer
        self.hw = hw
        self.model = model
        self.resolve = _TileResolver(layer)
        self._grid: dict = {}  # ifmap bytes -> first-fit geometry or None
        self._beta: dict = {}  # (grid, groups) -> (beta, cycles) or None

    def first_fit_grid(self, ifmap_bytes: int) -> _TileGeometry | None:
        """Smallest tile grid whose ifmap chunk fits the ifmap section."""
        if ifmap_bytes not in self._grid:
            bpe = self.hw.bytes_per_elem
            self._grid[ifmap_bytes] = next(
                (
                    geom
                    for geom in _grids(self.layer, self.resolve)
                    if geom.ifmap_chunk_elems * bpe <= ifmap_bytes
                ),
                None,
            )
        return self._grid[ifmap_bytes]

    def best_beta(self, geom: _TileGeometry, groups) -> tuple[bool, int] | None:
        """Fastest valid reuse order of a (grid, groups) pair and its
        cycles, or ``None`` if neither order is valid."""
        # groups repeat one filter mix many times; run-length keys stay small
        key = (geom.n_row_tiles, geom.n_col_tiles, geom.n_ic_chunks, *_runs(groups))
        if key not in self._beta:
            best = None
            for weight_resident in (False, True):
                # resident full-I weights only fit the weight section
                # when not chunked
                try:
                    sched = _build_schedule(
                        self.layer, geom, groups, weight_resident, label=""
                    )
                    sched.validate(self.hw)
                except ValueError:
                    continue
                cycles = self.model.run_schedule(sched, validate=False).cycles
                if best is None or cycles < best[1]:
                    best = (weight_resident, cycles)
            self._beta[key] = best
        return self._beta[key]

    def plan(self, part: Partition):
        """(grid, groups, beta, cycles) under ``part``, or ``None``."""
        geom = self.first_fit_grid(part.ifmap_bytes)
        if geom is None:
            return None
        groups = _greedy_groups(self.layer, geom, self.hw, part)
        if groups is None:
            return None
        best = self.best_beta(geom, groups)
        if best is None:
            return None
        return geom, groups, *best

    def schedule(self, part: Partition) -> Schedule | None:
        """The layer's schedule under ``part``, labelled with it."""
        plan = self.plan(part)
        if plan is None:
            return None
        geom, groups, weight_resident, _ = plan
        # the same build that best_beta validated, under this label
        return _build_schedule(
            self.layer, geom, groups, weight_resident, label=f"static:{part!r}"
        )


def _greedy_groups(layer, geom, hw, part: Partition):
    """Fill filter groups against the static weight/ofmap sections."""
    bpe = hw.bytes_per_elem
    n_subs = len(layer.subconvs)
    max_r = [geom.max_share("rows", k) for k in range(n_subs)]
    max_c = [geom.max_share("cols", k) for k in range(n_subs)]
    w_cost = [s.taps * layer.in_channels * bpe for s in layer.subconvs]
    p_cost = [max_r[k] * max_c[k] * bpe for k in range(n_subs)]
    remaining = [s.filters for s in layer.subconvs]
    groups = []
    # large sub-kernels first, as many filters per group as both the
    # weight and ofmap sections allow
    order = sorted(range(n_subs), key=lambda k: -w_cost[k])
    while any(remaining):
        w_room, p_room = part.weight_bytes, part.ofmap_bytes
        group = [0] * n_subs
        for k in order:
            if not remaining[k]:
                continue
            fit = min(
                remaining[k],
                w_room // w_cost[k] if w_cost[k] else remaining[k],
                p_room // p_cost[k] if p_cost[k] else remaining[k],
            )
            group[k] = fit
            w_room -= fit * w_cost[k]
            p_room -= fit * p_cost[k]
        if not any(group):
            return None  # not even one filter fits this partition
        groups.append(tuple(group))
        for k in range(n_subs):
            remaining[k] -= group[k]
    return groups


def schedule_with_partition(
    layer: LayerWork,
    hw: HWConfig,
    part: Partition,
    model: SystolicModel | None = None,
) -> Schedule | None:
    """Schedule one layer under a fixed buffer partition, or ``None``
    if the partition cannot host the layer at all."""
    model = model or SystolicModel(hw)
    return _LayerSearch(layer, hw, model).schedule(part)


def best_static_partition(
    layers,
    hw: HWConfig,
    model: SystolicModel | None = None,
    granularity: int | None = None,
) -> tuple[Partition, list[Schedule]]:
    """Exhaustive offline partition search (the paper's strong baseline).

    Enumerates every (ifmap, weight, ofmap) split of the usable buffer
    at bank/2 granularity, schedules the *whole network* under each,
    and returns the partition minimising total latency together with
    its per-layer schedules.
    """
    model = model or SystolicModel(hw)
    # partition granularity tracks the buffer so the search always sees
    # ~12 allocation units, whatever the SRAM capacity
    gran = granularity or max(
        min(hw.bank_bytes // 2, hw.usable_buffer_bytes // 12), 4096
    )
    units = hw.usable_buffer_bytes // gran
    if units < 3:
        raise ValueError("buffer too small for a three-way partition")
    searches = [_LayerSearch(layer, hw, model) for layer in layers]
    best = None
    best_cycles = None
    for i in range(1, units - 1):
        for w in range(1, units - i):
            o = units - i - w
            part = Partition(i * gran, w * gran, o * gran)
            cycles = 0
            for search in searches:
                plan = search.plan(part)
                if plan is None:
                    break
                cycles += plan[-1]
            else:
                if best_cycles is None or cycles < best_cycles:
                    best, best_cycles = part, cycles
    if best is None:
        raise ValueError(f"no static partition can host this network on {hw.name}")
    return best, [search.schedule(best) for search in searches]
