"""``cftinv.linalg.eighe`` against mpmath's ``eighe``, bit for bit.

Every eigenvalue and every entry of Q must have mpmath's type and raw
tuple: a changed bit would move the lab's report rows.
"""

import random

import pytest
from mpmath import mp, mpf, mpc, matrix

import cftinv as ci
from cftinv import lab, linalg


def _raw(x):
    return type(x), x._mpc_ if isinstance(x, mpc) else x._mpf_


def assert_same_eighe(a):
    want_e, want_q = mp.eighe(a)
    got_e, got_q = linalg.eighe(a)
    n = a.rows
    assert (got_e.rows, got_e.cols, got_q.rows, got_q.cols) == (n, 1, n, n)
    assert [_raw(got_e[i]) for i in range(n)] == [_raw(want_e[i]) for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert _raw(got_q[i, j]) == _raw(want_q[i, j]), (i, j)
    return got_e, got_q


def real_symmetric(n, rng):
    a = matrix(n, n)
    for i in range(n):
        for j in range(i, n):
            a[i, j] = a[j, i] = mpf(rng.gauss(0, 1))
    return a


def with_spectrum(evals, rng):
    """U diag(evals) U* for a seeded unitary U."""
    _, u = mp.eighe(lab.random_density(len(evals), rng))
    return lab.matmul(lab.matmul(u, mp.diag(evals)), lab.dag(u))


DPS = pytest.mark.parametrize("dps", [30, 50])


def test_operator_table_matches_mpmath():
    """Each raw helper makes the libmp call mpmath's operator makes."""
    with mp.workdps(30):
        vals = [mpf(1) / 3, mpf(-5) / 7, mpc(mpf(2) / 3, mpf(-1) / 9),
                mpc(0, mpf(3) / 11), mpc(mpf(1) / 13, 0)]
        raw = [_raw(x)[1] for x in vals]
        ops = [(linalg._add, lambda x, y: x + y),
               (linalg._sub, lambda x, y: x - y),
               (linalg._mul, lambda x, y: x * y),
               (linalg._div, lambda x, y: x / y)]
        for x, rx in zip(vals, raw):
            for y, ry in zip(vals, raw):
                for fn, op in ops:
                    want = _raw(op(x, y))
                    got = fn(rx, ry, mp.prec, "n")
                    assert (mpc if len(got) == 2 else mpf, got) == want
            for fn, op in [(linalg._neg, lambda x: -x),
                           (linalg._conj, mp.conj), (linalg._abs, abs)]:
                got = fn(rx, mp.prec, "n")
                assert (mpc if len(got) == 2 else mpf, got) == _raw(op(x))
            assert linalg._re(rx) == mp.re(x)._mpf_
            assert linalg._im(rx) == mp.im(x)._mpf_


@DPS
def test_random_densities(dps):
    rng = random.Random(dps)
    with mp.workdps(dps):
        for n in (1, 2, 3, 4, 5, 6, 8, 12):
            for _ in range(2):
                assert_same_eighe(lab.random_density(n, rng))


@DPS
def test_criterion_9_decompositions(dps, monkeypatch):
    """Every decomposition a cut-down criterion 9 asks for: index products
    over leg dims 1..4, relative entropies, cocycles and the derivative
    identity."""
    calls = []

    def checked(a):
        calls.append(a.rows)
        return assert_same_eighe(a)

    monkeypatch.setattr(lab, "eighe", checked)
    rng = random.Random(909)
    with mp.workdps(dps):
        for d1 in range(1, 5):
            for d3 in range(1, 5):
                triple = ci.FiniteFactorTriple(d1, 2, d3)
                r1, r3 = lab.random_density(d1, rng), lab.random_density(d3, rng)
                ci.index_product(triple, r1, r3, ci.canonical_flow(triple, r1, r3))
        for n in range(2, 7):
            r1, r2 = lab.random_density(n, rng), lab.random_density(n, rng)
            ci.araki_relative_entropy(r1, r2)
            ci.relative_entropy_oracle(r1, r2)
        psi, psi0 = lab.random_density(3, rng), lab.random_density(3, rng)
        ci.connes_cocycle(psi, psi0, mpf("0.3"))
        ci.entropy_derivative_identity(ci.FiniteFactorTriple(2, 3, 2),
                                       lab.random_density(2, rng))
    assert len(calls) > 80 and max(calls) == 6


@DPS
def test_degenerate_product_state(dps):
    """kron(rho1, 1/d2) of ``entropy_derivative_identity``: each eigenvalue
    of rho1 repeated d2 times, with many exact zeros off the diagonal."""
    rng = random.Random(3)
    with mp.workdps(dps):
        for d1, d2 in ((2, 3), (3, 4)):
            rho1 = lab.random_density(d1, rng)
            assert_same_eighe(lab.kron(rho1, lab.eye(d2) * (mpf(1) / d2)))


@DPS
def test_near_degenerate_spectrum(dps):
    rng = random.Random(4)
    with mp.workdps(dps):
        tiny = mpf(10) ** (-dps + 5)
        assert_same_eighe(with_spectrum(
            [mpf("0.25"), mpf("0.25") + tiny, mpf("0.25") - tiny, mpf("0.5")],
            rng))
        assert_same_eighe(with_spectrum([mpf(1) / 3] * 3, rng))


@DPS
def test_structured_inputs(dps):
    rng = random.Random(5)
    with mp.workdps(dps):
        assert_same_eighe(mp.diag([mpf(3), mpf(-1), mpf(2), mpf(2)]))
        assert_same_eighe(mp.diag([mpc(2, 0), mpf(1)]))
        for n in (2, 5, 9):
            assert_same_eighe(real_symmetric(n, rng))
        assert_same_eighe(matrix([[mpf("0.7")]]))
        assert_same_eighe(matrix([[mpc("0.7", 0)]]))
        assert_same_eighe(matrix(3, 3))
        # a zero column above the diagonal skips one Householder step
        a = lab.random_density(4, rng)
        for k in range(3):
            a[k, 3] = a[3, k] = 0
        assert_same_eighe(a)


def test_36_density():
    """The size of the operators on the full space at dims 3,4,3."""
    with mp.workdps(50):
        assert_same_eighe(lab.random_density(36, random.Random(6)))


def test_no_convergence_raises_like_mpmath():
    """With no iterations allowed, the QL step refuses as mpmath's does."""
    with mp.workdps(30):
        d = [mpf(1)._mpf_, mpf(2)._mpf_]
        e = [mpf(1)._mpf_, mpf(0)._mpf_]
        with pytest.raises(RuntimeError, match="no convergence"):
            linalg._tridiag_eigen(d, e, [[], []], mp.prec, "n",
                                  mp.eps._mpf_, 0)
