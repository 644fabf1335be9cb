"""Layer micro-benchmarks of ``cftinv verify --all`` and of the ``fock``
command's scan (pytest-benchmark).

Run from the root of a checkout; the directory sits outside ``testpaths``,
so the test suite never collects it:

    PYTHONPATH=src python -m pytest benchmarks/bench_verify.py \
        --benchmark-json=after.json

``benchmarks/compact.py`` folds two such files (before, after) into a
committed ``BENCH_<n>.json``.  Both cases run at 50 digits, the CLI's
default, on two lanes where the machine has a second usable CPU, so they
time the lanes, fork included: ``run_batteries`` over every battery at
seed 42 and the default dims (the body of ``cftinv verify --all --seed
42``), and the ``fock`` command's ratio scan, h = 1..5000 on the grid
``0.013:1:5:log`` parsed as the CLI parses it.
"""

import pytest
from mpmath import mp

from cftinv import fock, verify
from cftinv.cli import RunConfig, parse_grid

#: Parsed at import, at mpmath's default precision, as the CLI parses --grid.
FOCK_GRID = parse_grid("0.013:1:5:log")

# The fock command scanned its grid in one process before the lanes, so on
# such a checkout this case times the one scan: its "before" median.
scan = getattr(fock, "fermi_ratio_scan_lanes", fock.fermi_ratio_scan)


@pytest.fixture(autouse=True)
def _fifty_digits():
    with mp.workdps(50):
        yield


def test_run_batteries_all(benchmark):
    cfg = RunConfig(command="verify", seed=42)
    b = benchmark.pedantic(verify.run_batteries,
                           (cfg, set(verify.BATTERIES)), rounds=5,
                           iterations=1)
    assert b.all_pass and len(b.results) == 46


def test_fock_command_scan(benchmark):
    h = fock.positive(*range(1, 5001))
    rows = benchmark.pedantic(scan, (h, FOCK_GRID), rounds=5, iterations=1)
    assert len(rows) == len(FOCK_GRID)
