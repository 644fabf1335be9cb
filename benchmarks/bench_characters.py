"""Layer micro-benchmarks of ``cftinv.characters`` (pytest-benchmark).

Run from the root of a checkout; the directory sits outside ``testpaths``,
so the test suite never collects it:

    PYTHONPATH=src python -m pytest benchmarks/bench_characters.py \
        --benchmark-json=after.json

``benchmarks/compact.py`` folds two such files (before, after) into a
committed ``BENCH_<n>.json``.  All cases run at 50 digits.  The evaluation
cases use the m = 4 model with the CLI's default cutoff 2000; repeated
``evaluate`` calls at one t reuse its cached term count, as the sectors of
one S-transform evaluation do.

The build cases time the exact coefficient tables: ``partition_numbers``
at the default cutoff and at the dump's 20000, one sector's
``character_coeffs`` at cutoff 20000 as ``characters --dump`` builds it
(partition numbers included), and every sector's full series
(``all_character_series`` with each ``coeffs`` read) for m = 3..8 at the
default cutoff, as ``verify --characters`` builds them.

The command cases time what one evaluating command pays for its series: a
fresh ``all_character_series`` at the default cutoff plus one
``transform_traces`` at t = 0.1, with the module's per-t caches cleared
before each round as a fresh process has them.
"""

import pytest
from mpmath import mp

import cftinv as ci
from cftinv import characters

M, CUTOFF, DUMP_CUTOFF = 4, 2000, 20000


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


@pytest.mark.parametrize("n", [CUTOFF, DUMP_CUTOFF])
def test_partition_numbers(benchmark, n):
    p = benchmark.pedantic(ci.partition_numbers, (n,), rounds=5, iterations=1)
    assert len(p) == n + 1


@pytest.mark.parametrize("m", [5, 8])
def test_character_coeffs_dump(benchmark, m):
    model = ci.build_minimal_model(m)
    sector = model.sectors[-1]
    series = benchmark.pedantic(ci.character_coeffs,
                                (model, sector, DUMP_CUTOFF),
                                rounds=5, iterations=1)
    assert series.cutoff == DUMP_CUTOFF


def _full_series(model):
    return [s.coeffs for s in ci.all_character_series(model, CUTOFF)]


@pytest.mark.parametrize("m", range(3, 9))
def test_all_character_series(benchmark, m):
    model = ci.build_minimal_model(m)
    coeffs = benchmark.pedantic(_full_series, (model,), rounds=5, iterations=1)
    assert len(coeffs) == len(model.sectors)


def _cold_caches():
    for obj in vars(characters).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def _series_and_transform(model, md):
    return characters.transform_traces(
        md, ci.all_character_series(model, CUTOFF), "0.1")


@pytest.mark.parametrize("m", [3, 5, 8])
def test_command_series_and_transform(benchmark, m):
    model = ci.build_minimal_model(m)
    md = ci.modular_matrices(model)
    traces = benchmark.pedantic(_series_and_transform, (model, md),
                                setup=_cold_caches, rounds=10, iterations=1)
    assert len(traces) == len(model.sectors)
