import os

import pytest


@pytest.fixture(scope="session")
def ray_session():
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

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def seq_dir_small(tmp_path_factory):
    """Tiny deterministic sequences table (no Ray needed to build)."""
    from ts_pymfe_ray.synth import ensure_sequences

    root = str(tmp_path_factory.mktemp("seqdata"))
    return ensure_sequences(0.0005, cache_root=root, use_ray=False)


@pytest.fixture(scope="session")
def check_oracle():
    """This checkout's tools/check_oracle.py, loaded as a module."""
    import importlib.util

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "check_oracle", os.path.join(root, "tools", "check_oracle.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod
