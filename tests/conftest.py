"""Session-scoped Ray fixture — Ray is initialised ONCE per pytest session."""

from __future__ import annotations

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
        )
    yield
    ray.shutdown()


@pytest.fixture
def ray_executions(ray_session, monkeypatch):
    """The Ray Data executions a test starts: one list entry per
    ``StreamingExecutor.execute`` call, the one entry point of every
    execution (a read, a ``map_batches``, a gather, a sort); clear it
    to count from a point on."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls = []
    real = StreamingExecutor.execute

    def execute(self, *a, **kw):
        calls.append(type(self).__name__)
        return real(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    return calls
