"""The uniform host block stamped into every ``BENCH_*.json``.

Benchmark numbers only mean something relative to the machine that
produced them — sharded sampling and MCMC chains scale with cores, and
the planner's wall-clock wins depend on per-host kernel rates — so
every committed report carries the same small provenance block instead
of each writer inventing its own ad-hoc fields.
"""

from __future__ import annotations

import os
import platform
from typing import Any, Dict

__all__ = ["BENCH_SCHEMA", "host_block"]

#: Version of the shared ``BENCH_*.json`` envelope: bumped to 2 when
#: the per-writer ``cpu_count`` fields were replaced by this uniform
#: ``host`` block.
BENCH_SCHEMA = 2


def host_block() -> Dict[str, Any]:
    """Provenance of the machine a benchmark report was produced on."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
