"""Shared test configuration: a bounded, deterministic hypothesis profile, an
empty operator cache for every test, and the environment of a child Python
process."""

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import fracpme
from fracpme import extension_op

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def child_env():
    """os.environ with PYTHONPATH led by the directory of the fracpme this
    process imported, so a child imports the same package, installed or not."""
    src = str(Path(fracpme.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture(autouse=True)
def _empty_operator_cache():
    """No test sees an operator an earlier test assembled."""
    extension_op._cache.clear()
