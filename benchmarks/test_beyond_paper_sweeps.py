"""Benchmarks regenerating the beyond-paper sweeps without a file of their own.

``scale``, ``evac`` and ``mig`` have their shape assertions in
``tests/test_scenarios.py`` / ``tests/test_migration.py``; regenerating them
here as well puts all 13 registered scenarios under ``attach_rows``'s
comparison with ``benchmarks/baseline.json``.
"""

import pytest
from conftest import attach_rows

from repro.api import Session


@pytest.mark.parametrize("name", ["scale", "evac", "mig"])
def test_beyond_paper_sweep_matches_baseline(benchmark, name):
    result = benchmark.pedantic(lambda: Session().run_scenario(name), rounds=1, iterations=1)
    attach_rows(benchmark, result)
    print()
    print(result.to_table())
    assert result.rows
