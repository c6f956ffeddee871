"""Shared fixtures and hypothesis profiles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_gram() -> np.ndarray:
    """A fixed 5x5 PSD Gram matrix (from the Prefix workload)."""
    from repro.workloads import prefix

    return prefix(5).gram()


@pytest.fixture
def feasible_strategy() -> np.ndarray:
    """A random feasible 1-LDP strategy matrix (projected uniform)."""
    from repro.optimization import initial_bounds, project_columns

    generator = np.random.default_rng(7)
    raw = generator.random((20, 5))
    bounds = initial_bounds(20, 1.0)
    return project_columns(raw, bounds, 1.0).matrix


@pytest.fixture
def factor_builds(monkeypatch) -> list:
    """Records the strategy of every variance-factor build a session makes."""
    import repro.protocol.engine as engine

    builds = []
    real = engine.variance_factors

    def counting(workload, strategy, operator):
        builds.append(strategy)
        return real(workload, strategy, operator)

    monkeypatch.setattr(engine, "variance_factors", counting)
    return builds
