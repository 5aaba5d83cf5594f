"""Quick performance smoke test (``make bench-quick``).

Deselected from the tier-1 suite by the ``perfbench`` marker (timing
assertions do not belong in correctness CI); the full benchmark with
the 5x acceptance floor lives in ``benchmarks/bench_perf_grid.py``.
This smoke variant finishes in seconds and uses a deliberately loose
threshold so scheduler noise cannot fail it.
"""

import time

import pytest

from repro.campaign.runner import project_figure
from repro.campaign.spec import figure_campaign
from repro.perf.cache import clear_caches

pytestmark = pytest.mark.perfbench


def _best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        clear_caches()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_batch_campaign_beats_scalar():
    scalar_tasks = figure_campaign(method="scalar")
    batch_tasks = figure_campaign(method="batch")
    project_figure(batch_tasks[0])  # warm imports outside the timer

    scalar = _best_of(lambda: [project_figure(t) for t in scalar_tasks])
    batch = _best_of(lambda: [project_figure(t) for t in batch_tasks])

    # The full benchmark demands 5x; here 2x keeps the smoke test
    # immune to noisy shared machines while still catching any
    # regression that de-vectorizes the batch path.
    assert batch * 2 < scalar, (
        f"batched campaign ({batch * 1000:.1f} ms) is not at least 2x "
        f"faster than scalar ({scalar * 1000:.1f} ms)"
    )
