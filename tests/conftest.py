"""Shared pytest fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.aifm.pool import PoolConfig
from repro.machine.cache import AlwaysHitCache
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import KB, MB


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/goldens/*.json from the current trace output "
        "instead of comparing against it",
    )


@pytest.fixture
def update_goldens(request) -> bool:
    return request.config.getoption("--update-goldens")


@pytest.fixture
def small_pool_config() -> PoolConfig:
    return PoolConfig(object_size=4 * KB, local_memory=64 * KB, heap_size=1 * MB)


@pytest.fixture
def trackfm_runtime(small_pool_config) -> TrackFMRuntime:
    return TrackFMRuntime(small_pool_config, cache=AlwaysHitCache())


@pytest.fixture(scope="session")
def quick_ablation_report():
    """``build_report(quick=True)``, measured once per test run.

    The report is deterministic and a measurement takes seconds, so the
    tests that gate it share this one: the comparison with the checked-in
    ``ABLATION_quick.json`` and the ablate gate's record, check and tamper
    runs.  Callers must not mutate it.
    """
    from repro.ablate.report import build_report

    return build_report(quick=True)
