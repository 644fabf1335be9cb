from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf, sqrt, fabs

import cftinv as ci
from cftinv.linalg import matmul
from cftinv.errors import InvalidModelError, FusionIntegralityError


def max_entry(m):
    return max(fabs(m[i, j]) for i in range(m.rows) for j in range(m.cols))


def test_ising_weights(model3):
    assert model3.c == Fraction(1, 2)
    assert {s.h for s in model3.sectors} == {Fraction(0), Fraction(1, 2),
                                             Fraction(1, 16)}
    assert model3.sectors[0].h == 0          # vacuum first
    assert [s.h for s in model3.sectors] == sorted(s.h for s in model3.sectors)


def test_sector_count_m4(model4):
    assert model4.c == Fraction(7, 10)
    assert len(model4.sectors) == 6


@pytest.mark.parametrize("bad", [2, 1, 0, -3])
def test_invalid_model(bad):
    with pytest.raises(InvalidModelError):
        ci.build_minimal_model(bad)


def test_ising_smatrix_exact(md3):
    # order (0, 1/16, 1/2); the Kac S matrix is
    # [[1/2, r2, 1/2], [r2, 0, -r2], [1/2, -r2, 1/2]] with r2 = sqrt(2)/2
    r2 = sqrt(mpf(2)) / 2
    expected = [[mpf(1) / 2, r2, mpf(1) / 2],
                [r2, mpf(0), -r2],
                [mpf(1) / 2, -r2, mpf(1) / 2]]
    for i in range(3):
        for j in range(3):
            assert fabs(md3.S[i, j] - expected[i][j]) < mpf("1e-45")
    assert fabs(md3.mu - 4) < mpf("1e-45")
    assert fabs(md3.dims[1] - sqrt(mpf(2))) < mpf("1e-45")


def test_s00_is_inverse_sqrt_mu(md3, md4):
    for md in (md3, md4):
        assert fabs(md.S[0, 0] - 1 / sqrt(md.mu)) < mpf("1e-45")
        assert fabs(md.mu - sum(d * d for d in md.dims)) < mpf("1e-40")


@pytest.mark.parametrize("m", range(3, 13))
def test_sl2z_relations(m):
    md = ci.modular_matrices(ci.build_minimal_model(m))
    S = md.S
    n = S.rows
    assert max_entry(S - S.T) < mpf("1e-25")
    eye = mp.eye(n)
    assert max_entry(matmul(S, S.T) - eye) < mpf("1e-25")
    T = mp.diag(list(md.T))
    s2 = matmul(S, S)
    # the bits of mpmath's (S*T)**3, which forms (1*A)*(A*A) and an unused A^4
    st = matmul(S, T)
    assert max_entry(matmul(st, matmul(st, st)) - s2) < mpf("1e-25")
    # S^2 is the charge-conjugation permutation
    for i in range(n):
        for j in range(n):
            v = fabs(s2[i, j])
            assert min(fabs(v - 1), v) < mpf("1e-25")
    assert all(d >= 1 - mpf("1e-30") for d in md.dims)
    assert fabs(md.dims[0] - 1) < mpf("1e-45")


def test_verlinde_ising(md3, model3):
    N = ci.verlinde_fusion(md3)
    i_sigma = model3.sector_index("1/16")
    i_eps = model3.sector_index("1/2")
    # sigma x sigma = 1 + eps
    assert N[i_sigma][i_sigma][0] == 1
    assert N[i_sigma][i_sigma][i_eps] == 1
    assert N[i_sigma][i_sigma][i_sigma] == 0
    # eps x eps = 1
    assert N[i_eps][i_eps][0] == 1
    assert N[i_eps][i_eps][i_eps] == 0
    # vacuum is the fusion identity
    for j in range(3):
        for k in range(3):
            assert N[0][j][k] == (1 if j == k else 0)


@pytest.mark.parametrize("m", range(3, 9))
def test_verlinde_integer_symmetric(m):
    md = ci.modular_matrices(ci.build_minimal_model(m))
    N = ci.verlinde_fusion(md)
    n = len(md.dims)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert N[i][j][k] >= 0
                assert N[i][j][k] == N[j][i][k]


@pytest.mark.parametrize("m", [9, 10, 11, 12])
def test_verlinde_integrality_large_m(m):
    # double precision is ample for the 1e-8 integrality margin; full mp
    # arithmetic on the m = 12 tensor (66^4 terms) buys nothing here
    md = ci.modular_matrices(ci.build_minimal_model(m))
    n = len(md.dims)
    S = np.array([[float(md.S[i, j]) for j in range(n)] for i in range(n)])
    rng = np.random.default_rng(m)
    for i, j in zip(rng.integers(0, n, 40), rng.integers(0, n, 40)):
        vals = np.einsum("l,l,kl->k", S[i], S[j], S / S[0])
        assert np.all(np.abs(vals - np.round(vals)) < 1e-8)
        assert np.all(np.round(vals) >= 0)


def test_fusion_integrality_guard(md3):
    # a wrong S matrix (two rows swapped) must be rejected
    S = md3.S.copy()
    for j in range(3):
        S[0, j], S[1, j] = S[1, j], S[0, j]
    broken = ci.ModularData(model=md3.model, S=S, T=md3.T, dims=md3.dims,
                            mu=md3.mu)
    with pytest.raises(FusionIntegralityError):
        ci.verlinde_fusion(broken)


def test_mu_n_index_values():
    idx, rt = ci.mu_n_index(sqrt(mpf(2)), 4, 3)
    assert fabs(idx - 32) < mpf("1e-40")
    idx, rt = ci.mu_n_index(1, 1, 7)
    assert idx == 1 and rt == 1
    # the n-th root approaches mu; at n = 50 the gap 4(1 - 2^(-1/50)) is 0.0551
    _, rt = ci.mu_n_index(sqrt(mpf(2)), 4, 50)
    assert mpf("0.05") < fabs(rt - 4) < mpf("0.06")
    _, rt = ci.mu_n_index(sqrt(mpf(2)), 4, 60)
    assert fabs(rt - 4) < mpf("0.05")


def test_mu_n_index_monotone_to_mu():
    prev = None
    for n in (1, 2, 5, 10, 100, 1000, 10000):
        _, rt = ci.mu_n_index(sqrt(mpf(2)), 4, n)
        if prev is not None:
            assert rt > prev
        prev = rt
    assert fabs(prev - 4) < mpf("1e-3")


def test_mu_n_index_preconditions():
    with pytest.raises(ValueError):
        ci.mu_n_index(0.5, 4, 3)
    with pytest.raises(ValueError):
        ci.mu_n_index(1, 0.5, 3)
    with pytest.raises(ValueError):
        ci.mu_n_index(1, 1, 0)


def test_json_document(md3):
    doc = ci.to_json_dict(md3)
    assert doc["m"] == 3 and doc["c"] == "1/2"
    assert [s["h"] for s in doc["sectors"]] == ["0/1", "1/16", "1/2"]
    assert doc["S"][0][0].startswith("0.5")
    assert doc["mu"].startswith("4.0")
    assert len(doc["S"]) == 3 and len(doc["S"][0]) == 3
    # decimal strings carry full working precision
    assert len(doc["sectors"][1]["d"]) > 40
