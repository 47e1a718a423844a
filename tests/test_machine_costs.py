"""The calibrated cost table (Tables 1/2 anchors)."""

import dataclasses

import pytest

from repro.errors import RuntimeConfigError
from repro.fastswap.runtime import FastswapConfig
from repro.machine.costs import AccessKind, CostTable, DEFAULT_COSTS, GuardKind


def test_table1_fast_path_anchors():
    c = DEFAULT_COSTS
    assert c.fast_guard(AccessKind.READ, cached=True) == 21
    assert c.fast_guard(AccessKind.WRITE, cached=True) == 21
    assert c.fast_guard(AccessKind.READ, cached=False) == 297
    assert c.fast_guard(AccessKind.WRITE, cached=False) == 309


def test_table1_slow_path_anchors():
    c = DEFAULT_COSTS
    assert c.slow_guard_local(AccessKind.READ, cached=True) == 144
    assert c.slow_guard_local(AccessKind.WRITE, cached=True) == 159
    assert c.slow_guard_local(AccessKind.READ, cached=False) == 453
    assert c.slow_guard_local(AccessKind.WRITE, cached=False) == 432


def test_table2_fastswap_anchors():
    c = DEFAULT_COSTS
    assert c.fastswap_fault(AccessKind.READ, remote=False) == 1_300
    assert c.fastswap_fault(AccessKind.WRITE, remote=False) == 1_300
    assert c.fastswap_fault(AccessKind.READ, remote=True) == 34_000
    assert c.fastswap_fault(AccessKind.WRITE, remote=True) == 35_000


def test_local_access_is_36_cycles():
    assert DEFAULT_COSTS.local_access == 36


def test_chunking_crossover_near_paper_730():
    # §3.4 / Fig. 6: break-even at ~730 elements per object.
    d_star = DEFAULT_COSTS.chunking_crossover_density()
    assert 650 < d_star < 800


def test_boundary_check_cheaper_than_fast_guard():
    c = DEFAULT_COSTS
    assert c.boundary_check < c.fast_guard_read_cached


def test_locality_guard_slightly_more_expensive_than_slow():
    # §3.4: "slightly more expensive locality invariant guards".
    c = DEFAULT_COSTS
    assert c.slow_guard_read_cached < c.locality_guard < 10 * c.slow_guard_read_cached


def test_with_overrides_returns_new_table():
    c = DEFAULT_COSTS.with_overrides(local_access=10.0)
    assert c.local_access == 10.0
    assert DEFAULT_COSTS.local_access == 36.0


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CostTable)])
def test_negative_cost_rejected(name):
    with pytest.raises(RuntimeConfigError, match=name):
        CostTable(**{name: -1})


@pytest.mark.parametrize(
    "knob",
    [
        # Books -1,572 cycles per dirty writeback on a write sweep.
        {"writeback_sync_fraction": -0.5},
        {"writeback_sync_fraction": 1.5},
        # Books 35,722 instead of 37,822 cycles per faulting write.
        {"reclaim_cycles": -100.0},
    ],
    ids=["sync_fraction_negative", "sync_fraction_above_one", "reclaim_negative"],
)
def test_fastswap_config_rejects_out_of_range_knobs(knob):
    with pytest.raises(RuntimeConfigError):
        FastswapConfig(local_memory=4096, heap_size=16384, **knob)


def test_degenerate_crossover_rejected():
    c = DEFAULT_COSTS.with_overrides(boundary_check=50.0)
    with pytest.raises(RuntimeConfigError):
        c.chunking_crossover_density()


def test_guard_kind_enum_members():
    names = {k.value for k in GuardKind}
    assert {"none", "custody_miss", "fast", "slow", "boundary", "locality"} == names
