import numpy as np
import pytest
from hypothesis import settings

from pathlq import GraphSpec

# The same examples on every run, and none replayed from earlier runs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def five_node_spec():
    """The 5-node demo instance with delays 3, 2, 5, 4."""
    return GraphSpec(n=5, tau=(3, 2, 5, 4), q=(1.0,) * 5, r=(1.0,) * 5, horizon=6)
