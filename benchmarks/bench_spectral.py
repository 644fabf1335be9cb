"""Layer micro-benchmarks of ``cftinv.spectral`` (pytest-benchmark).

Run from the root of a checkout; the directory sits outside ``testpaths``,
so the test suite never collects it:

    PYTHONPATH=src python -m pytest benchmarks/bench_spectral.py \
        --benchmark-json=after.json

``benchmarks/compact.py`` folds two such files (before, after) into a
committed ``BENCH_<n>.json``.  All cases run at 50 digits with the CLI's
default cutoff 2000.  ``sector_log_trace`` caches its evaluations, so each
round of the fit gets a fresh trace function: a round times the grid's
character evaluations and the least-squares solve, as one ``invariants``
command does.
"""

import pytest
from mpmath import mp

import cftinv as ci

CUTOFF = 2000


@pytest.fixture(autouse=True)
def _fifty_digits():
    with mp.workdps(50):
        yield


def _model(m):
    with mp.workdps(50):
        model = ci.build_minimal_model(m)
        return ci.modular_matrices(model), ci.all_character_series(model, CUTOFF)


@pytest.mark.parametrize("m", [3, 4])
def test_fit_invariants_clean_grid(benchmark, m):
    md, series = _model(m)
    grid = ci.clean_fit_grid(md)

    def fresh_trace():
        fn, err = ci.sector_log_trace(md, series, 0)
        return (fn, grid), {"err_fn": err}

    fit = benchmark.pedantic(ci.fit_invariants, setup=fresh_trace,
                             rounds=50, iterations=1)
    assert fit.a0 > 0


def test_two_dim_log_trace_point(benchmark):
    """One t of the diagonal m = 4 two-component trace."""
    md, series = _model(4)
    n = len(series)
    z = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    fn = ci.spectral.two_dim_log_trace(
        ci.two_dim_spec(z, md, series, md, series))
    assert benchmark(fn, "0.01") > 0
