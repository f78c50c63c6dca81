import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# make oracles.py importable regardless of how pytest is invoked
sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def indefinite_kernel(monkeypatch):
    """Make surrogate builds read the oracles' indefinite test kernel,
    with h = (1, 2), wherever they would evaluate the given family."""
    import oracles
    from bifidelity import surrogate

    real_block, real_diagonal = surrogate._kernel_block, surrogate._kernel_diagonal

    def install(family):
        def block(kernel, a, b):
            if kernel.family != family:
                return real_block(kernel, a, b)
            return oracles.kernel_block_dense("compact_rbf", a, b, (1.0, 2.0))

        def diagonal(kernel, a):
            return np.ones(a.shape[1]) if kernel.family == family else real_diagonal(kernel, a)

        monkeypatch.setattr(surrogate, "_kernel_block", block)
        monkeypatch.setattr(surrogate, "_kernel_diagonal", diagonal)

    return install
