"""Make the benchmark's modules and the program under src/ importable."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]


@pytest.fixture
def pick():
    """pick(workload, seed, *names): the named items of a workload's full list."""
    import workloads

    def pick(workload, seed, *names):
        items = {item.name: item for item in workloads.build_items(workload, seed)}
        return [items[name] for name in names]
    return pick
