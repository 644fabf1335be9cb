"""Layer micro-benchmarks of ``cftinv.fock`` (pytest-benchmark).

Run from the root of a checkout; the directory sits outside ``testpaths``,
so the test suite never collects it:

    PYTHONPATH=src python -m pytest benchmarks/bench_fock.py \
        --benchmark-json=after.json

``benchmarks/compact.py`` folds two such files (before, after) into a
committed ``BENCH_<n>.json``.  Both cases run the Bose occupation-box walk at
50 digits, the CLI's default, on seeded eigenvalues in [0.05, 0.8]: six
modes at cutoff 8 (531441 leaves), and four modes at cutoff 14 (50625
leaves), the largest case of the ``verify --fock`` battery.
"""

import random

import pytest
from mpmath import mp

import cftinv as ci


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
