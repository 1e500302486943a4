"""Point-query results against the benchmark's recorded digests.

``bench/workloads.py`` digests the first 300 answers of each seed's query
batch 0, formatted like the CSVs, and ``bench/query_digests.json`` holds the
digests of seeds 0 to 999.  Recomputing seeds 0 to 9 here checks the
point-query results on every test run, not only when the benchmark runs.
"""

import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_workloads():
    """Run ``bench/workloads.py`` as a module without writing its bytecode."""
    path = BENCH / "workloads.py"
    module = types.ModuleType("linkopt_bench_workloads")
    module.__file__ = str(path)
    # dataclasses looks the defining module up in sys.modules.
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("seed", range(10))
def test_batch_digest_matches_recorded(seed):
    recorded = WORKLOADS.load_reference_digests()
    assert WORKLOADS.batch_digest(seed) == recorded[str(seed)]
