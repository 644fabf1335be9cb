"""Layer micro-benchmarks of ``cftinv.fock`` (pytest-benchmark).

Run from the root of a checkout; the directory sits outside ``testpaths``,
so the test suite never collects it:

    PYTHONPATH=src python -m pytest benchmarks/bench_fock.py \
        --benchmark-json=after.json

``benchmarks/compact.py`` folds two such files (before, after) into a
committed ``BENCH_<n>.json``.  Every case runs at 50 digits, the CLI's
default.  The Bose cases run the occupation-box walk on seeded eigenvalues
in [0.05, 0.8]: six modes at cutoff 8 (531441 leaves), and four modes at
cutoff 14 (50625 leaves), the largest case of the ``verify --fock`` battery.
The Fermi ratio cases run ``fermi_ratio_scan`` on the inputs of the CLI:
``cftinv fock --grid 0.0127:1:5:log`` (h = 1..5000, the grid parsed as the
CLI parses it) and the ``verify --fock`` battery (h = 1..2000).
"""

import random

import pytest
from mpmath import mp

import cftinv as ci
from cftinv.cli import parse_grid

#: Parsed at import, at mpmath's default precision, as the CLI parses --grid.
FOCK_GRID = parse_grid("0.0127:1:5:log")
BATTERY_GRID = ["1", "0.5", "0.1", "0.05", "0.01"]


@pytest.fixture(autouse=True)
def _fifty_digits():
    with mp.workdps(50):
        yield


@pytest.mark.parametrize("modes,cut", [(6, 8), (4, 14)],
                         ids=["d6-cut8", "d4-cut14"])
def test_gamma_trace_bruteforce_bose(benchmark, modes, cut):
    rng = random.Random(1)
    a = ci.contraction(*[rng.uniform(0.05, 0.8) for _ in range(modes)])
    out = benchmark(ci.gamma_trace_bruteforce, a, "bose", cut)
    assert out.terms == (cut + 1) ** modes


@pytest.mark.parametrize("size,grid", [(5000, FOCK_GRID), (2000, BATTERY_GRID)],
                         ids=["fock-5000-log5", "battery-2000"])
def test_fermi_ratio_scan(benchmark, size, grid):
    h = ci.positive(*range(1, size + 1))
    rows = benchmark(ci.fermi_ratio_scan, h, grid)
    assert len(rows) == len(grid)
