import multiprocessing

import pytest

from alpha_extremal.enumeration import enumerate_graphs

# Published census of simple graphs on 1..9 unlabeled vertices.
GRAPH_CENSUS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346, 9: 274668}


@pytest.fixture(scope="session")
def graphs_by_order():
    """All graphs of order 1..7, enumerated once per session."""
    return {n: list(enumerate_graphs(n)) for n in range(1, 8)}


@pytest.fixture(scope="session")
def graphs_order_8():
    return list(enumerate_graphs(8))


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace multiprocessing.Pool with a serial in-process map; the
    returned list records the size of every pool opened."""
    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    return sizes
