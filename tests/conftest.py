import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    from ocrs_ray.session import enable_hash_shuffle

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # Configure once, so a test-built dataset (`rd.from_items`,
    # `rd.from_arrow`) handed to a keyed helper hashes whatever ran first.
    enable_hash_shuffle()
    yield
    ray.shutdown()
