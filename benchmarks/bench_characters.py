"""Layer micro-benchmarks of ``cftinv.characters`` (pytest-benchmark).

Run from the root of a checkout; the directory sits outside ``testpaths``,
so the test suite never collects it:

    PYTHONPATH=src python -m pytest benchmarks/bench_characters.py \
        --benchmark-json=after.json

``benchmarks/compact.py`` folds two such files (before, after) into a
committed ``BENCH_<n>.json``.  All cases run at 50 digits on the m = 4
model with the CLI's default cutoff 2000.  Repeated ``evaluate`` calls at
one t reuse its cached term count, as the sectors of one S-transform
evaluation do.
"""

import pytest
from mpmath import mp

import cftinv as ci

M, CUTOFF = 4, 2000


@pytest.fixture(autouse=True)
def _fifty_digits():
    with mp.workdps(50):
        yield


@pytest.fixture(scope="module")
def m4():
    with mp.workdps(50):
        model = ci.build_minimal_model(M)
        return ci.modular_matrices(model), ci.all_character_series(model, CUTOFF)


@pytest.mark.parametrize("t", ["0.3", "2", "250"])
def test_evaluate(benchmark, m4, t):
    _, series = m4
    tv = benchmark(ci.evaluate, series[0], t)
    assert tv.value > 0


def test_evaluate_small_t(benchmark, m4):
    md, series = m4
    tv = benchmark(ci.evaluate_small_t, md, series, 0, "0.004")
    assert tv.value > 0


def test_all_character_series(benchmark):
    model = ci.build_minimal_model(M)
    series = benchmark.pedantic(ci.all_character_series, (model, CUTOFF),
                                rounds=5, iterations=1)
    assert len(series) == len(model.sectors)
