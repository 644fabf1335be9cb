"""Layer micro-benchmarks of ``cftinv.lab`` (pytest-benchmark).

Run from the root of a checkout; the directory sits outside ``testpaths``,
so the test suite never collects it:

    PYTHONPATH=src python -m pytest benchmarks/bench_lab.py \
        --benchmark-json=after.json

``benchmarks/compact.py`` folds two such files (before, after) into a
committed ``BENCH_<n>.json``.  All cases run at 50 digits, the CLI's
default, on seeded random densities; the inputs (and the canonical flow of
``test_index_product``) are built outside the timed call.
"""

import random

import pytest
from mpmath import mp, mpf

import cftinv as ci
from cftinv import lab, verify


# The lab multiplied with mpmath's ``*`` before ``lab.matmul`` existed, so on
# such a checkout the product case times ``*``: its "before" median.
matmul = getattr(lab, "matmul", lambda a, b: a * b)


@pytest.fixture(autouse=True)
def _fifty_digits():
    with mp.workdps(50):
        yield


@pytest.mark.parametrize("dims", [(2, 3, 2), (4, 4, 4)], ids=str)
def test_index_product(benchmark, dims):
    rng = random.Random(1)
    triple = ci.FiniteFactorTriple(*dims)
    rho1 = lab.random_density(dims[0], rng)
    rho3 = lab.random_density(dims[2], rng)
    flow = ci.canonical_flow(triple, rho1, rho3)
    out = benchmark(ci.index_product, triple, rho1, rho3, flow)
    assert out.deviation < mpf("1e-8")


@pytest.mark.parametrize("dims", [(2, 3, 2), (4, 4, 4)], ids=str)
def test_canonical_flow_and_index_product(benchmark, dims):
    """The flow and its masses together: the flow does the decomposing."""
    rng = random.Random(1)
    triple = ci.FiniteFactorTriple(*dims)
    rho1 = lab.random_density(dims[0], rng)
    rho3 = lab.random_density(dims[2], rng)

    def run():
        return ci.index_product(triple, rho1, rho3,
                                ci.canonical_flow(triple, rho1, rho3))

    assert benchmark(run).deviation < mpf("1e-8")


def test_araki_relative_entropy(benchmark):
    rng = random.Random(2)
    r1, r2 = lab.random_density(6, rng), lab.random_density(6, rng)
    assert benchmark(ci.araki_relative_entropy, r1, r2) > 0


def test_modular_implementation_residual(benchmark):
    rng = random.Random(3)
    der = ci.spatial_derivative(lab.random_density(12, rng),
                                lab.random_density(3, rng), (3, 4, 3), (0, 1))
    r1, r2 = benchmark.pedantic(lab.modular_implementation_residual,
                                (der, mpf("0.37")), rounds=5, iterations=1)
    assert max(r1, r2) < mpf("1e-18")


def test_entropy_derivative_identity(benchmark):
    rng = random.Random(4)
    triple = ci.FiniteFactorTriple(3, 4, 3)
    rho1 = lab.random_density(3, rng)
    rep = benchmark.pedantic(ci.entropy_derivative_identity, (triple, rho1),
                             rounds=5, iterations=1)
    assert rep.identity_residual < mpf("1e-6")


def test_matmul_36_complex(benchmark):
    """One dense 36 x 36 complex product, the size of the operators on the
    full space at dims 3,4,3."""
    rng = random.Random(5)
    a, b = lab.random_density(36, rng), lab.random_density(36, rng)
    out = benchmark.pedantic(matmul, (a, b), rounds=10, iterations=1)
    assert out.rows == out.cols == 36


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 4, 3)], ids=str)
def test_battery_appendix_c(benchmark, dims):
    """The whole matrix-lab battery, the body of ``cftinv lab``."""

    def run():
        b = verify.Battery()
        verify.battery_appendix_c(b, dims, 7)
        return b

    assert benchmark.pedantic(run, rounds=3, iterations=1).all_pass


@pytest.mark.parametrize("n", [12, 24, 36])
def test_eighe(benchmark, n):
    """One eigendecomposition of an n x n density; 36 is the full space at
    dims 3,4,3.  ``lab.eighe`` is whichever routine the lab decomposes with."""
    a = lab.random_density(n, random.Random(n))
    rounds = {12: 10, 24: 5, 36: 3}[n]
    e, q = benchmark.pedantic(lab.eighe, (a,), rounds=rounds, iterations=1)
    assert e.rows == q.cols == n


def test_power_it(benchmark):
    """(d phi/d psi)^{it} at dims 3,4,3: two per-leg powers and their
    product on the full space."""
    rng = random.Random(3)
    der = ci.spatial_derivative(lab.random_density(12, rng),
                                lab.random_density(3, rng), (3, 4, 3), (0, 1))
    u = benchmark.pedantic(der.power_it, (mpf("0.37"),), rounds=10,
                           iterations=1)
    assert u.rows == u.cols == 36
