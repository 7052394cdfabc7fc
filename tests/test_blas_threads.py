"""The suite pins BLAS to one thread (see conftest.py), so timed tests keep
their pace when other work shares the host's cores."""
from __future__ import annotations

import os
import threading
from pathlib import Path

import numpy as np
import pytest

TASKS = Path("/proc/self/task")


@pytest.mark.skipif(not TASKS.is_dir(), reason="needs Linux /proc/self/task")
@pytest.mark.skipif(os.environ.get("OPENBLAS_NUM_THREADS") != "1",
                    reason="the caller chose a BLAS thread count")
def test_large_matmul_starts_no_native_threads():
    a = np.ones((1000, 1000))
    assert (a @ a)[0, 0] == 1000.0
    # Every task of the process is a Python thread: BLAS started none.
    assert len(list(TASKS.iterdir())) == threading.active_count()
