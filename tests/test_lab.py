import math
import random

import pytest
from mpmath import mp, mpf, mpc, fabs, log, exp, sqrt, matrix

import cftinv as ci
from cftinv import lab, linalg
from cftinv.errors import (HypothesisViolationError, IdentityViolationError,
                           NotSeparatingError, RankDeficiencyError)
from oracles import (VectorState, cocycle_direct_fresh, exp_factor,
                     flow_from_legs, index_product_fresh, max_abs,
                     power_it_fresh, product_span, random_unit_vector, reduced_density,
                     spatial_cocycle_factorization_residual,
                     weight_mass_cocycle_oracle, weight_total_mass)


@pytest.fixture(autouse=True)
def _lab_precision():
    # 30 digits: residual targets sit at 1e-16..1e-20, far above rounding
    old = mp.dps
    mp.dps = 30
    yield
    mp.dps = old


def rnd(seed):
    return random.Random(seed)


# ----------------------------------------------------------- linear algebra

def test_embed_and_kron_agree():
    rng = rnd(1)
    a = lab.random_density(2, rng)
    b = lab.random_density(3, rng)
    dims = (2, 3)
    full = lab.kron(a, b)
    via = lab.embed(a, (0,), dims) * lab.embed(b, (1,), dims)
    assert max_abs(full - via) < mpf("1e-28")


def test_embed_non_contiguous():
    rng = rnd(2)
    a = lab.random_density(2, rng)
    dims = (2, 3, 2)
    m = lab.embed(a, (2,), dims)
    expect = lab.kron(lab.kron(lab.eye(2), lab.eye(3)), a)
    assert max_abs(m - expect) < mpf("1e-28")


def test_reduced_density_pure_product():
    rng = rnd(3)
    v1 = random_unit_vector(2, rng)
    v2 = random_unit_vector(3, rng)
    full = matrix(6, 1)
    for i in range(2):
        for j in range(3):
            full[i * 3 + j] = v1[i] * v2[j]
    rho = reduced_density(full, (2, 3), (1,))
    expect = v2 * lab.dag(v2)
    assert max_abs(rho - expect) < mpf("1e-28")


def _raw(x):
    """Type and raw mpmath tuple of an entry, the bits to compare."""
    return type(x), x._mpc_ if isinstance(x, mpc) else x._mpf_


def assert_same_entries(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    for i in range(want.rows):
        for j in range(want.cols):
            assert _raw(got[i, j]) == _raw(want[i, j]), (i, j)


def assert_same_product(a, b):
    """``lab.matmul(a, b)`` has the type and bits of mpmath's ``a * b``."""
    got = lab.matmul(a, b)
    assert_same_entries(got, a * b)
    return got


def random_matrix(rng, rows, cols, kind):
    """Seeded entries: 'real' (mpf), 'complex' (mpc) or 'mixed', with some
    exact zeros and magnitudes over a few binades."""
    m = matrix(rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.15:
                continue
            scale = mpf(2) ** rng.randint(-8, 8)
            re = mpf(rng.gauss(0, 1)) / 3 * scale
            if kind == "complex" or (kind == "mixed" and rng.random() < 0.5):
                m[i, j] = mpc(re, mpf(rng.gauss(0, 1)) / 7 * scale)
            else:
                m[i, j] = re
    return m


DPS = pytest.mark.parametrize("dps", [15, 50, 100])


@DPS
def test_matmul_dense_complex_bit_identical(dps):
    rng = rnd(11)
    with mp.workdps(dps):
        for rows, inner, cols in [(1, 1, 1), (4, 4, 4), (6, 5, 7), (12, 12, 12)]:
            assert_same_product(random_matrix(rng, rows, inner, "complex"),
                                random_matrix(rng, inner, cols, "complex"))


@DPS
def test_matmul_real_stays_real(dps):
    rng = rnd(12)
    with mp.workdps(dps):
        for n in (3, 8):
            got = assert_same_product(random_matrix(rng, n, n, "real"),
                                      random_matrix(rng, n, n, "real"))
            assert all(type(got[i, j]) is mpf
                       for i in range(n) for j in range(n))


@DPS
def test_matmul_mixed_mpf_mpc_bit_identical(dps):
    rng = rnd(13)
    with mp.workdps(dps):
        for kinds in [("mixed", "mixed"), ("real", "mixed"),
                      ("mixed", "real"), ("real", "complex"),
                      ("complex", "real")]:
            assert_same_product(random_matrix(rng, 5, 6, kinds[0]),
                                random_matrix(rng, 6, 4, kinds[1]))
        # one mpc entry in a real row makes the whole output row complex
        a = random_matrix(rng, 3, 3, "real")
        a[1, 2] = mpc(0, 1)
        assert_same_product(a, random_matrix(rng, 3, 3, "real"))


@DPS
def test_matmul_structured_operands_bit_identical(dps):
    rng = rnd(14)
    with mp.workdps(dps):
        dims = (2, 3, 2)
        x = lab.embed(lab.random_density(3, rng), (1,), dims)
        y = lab.embed(lab.random_density(4, rng), (0, 2), dims)
        assert_same_product(x, y)
        assert_same_product(random_matrix(rng, 12, 12, "complex"), x)
        v = random_unit_vector(12, rng)
        assert assert_same_product(y, v).cols == 1
        zero_row = random_matrix(rng, 4, 4, "complex")
        for k in range(4):
            zero_row[2, k] = 0
        assert_same_product(zero_row, random_matrix(rng, 4, 4, "mixed"))
        assert_same_product(random_matrix(rng, 4, 4, "mixed"), zero_row)
        assert_same_product(matrix(3, 3), random_matrix(rng, 3, 2, "complex"))
        with pytest.raises(ValueError):
            lab.matmul(matrix(2, 3), matrix(2, 3))


@DPS
def test_matmul_wide_exponents_fall_back_to_fdot(dps, monkeypatch):
    """Products whose exponents span more than 2 prec bits, and infinities,
    go to fdot and still give mpmath's bits."""
    rng = rnd(15)
    with mp.workdps(dps):
        big, tiny = mpf(2) ** 400, mpf(2) ** -400
        a = random_matrix(rng, 4, 4, "complex")
        a[0, 0], a[0, 1] = a[0, 0] * big, a[0, 1] * tiny
        a[3, 3] = mpc(big, tiny)
        b = random_matrix(rng, 4, 3, "mixed")
        c = random_matrix(rng, 4, 4, "real")
        c[2, 1] = mp.inf
        # fdot lets 2^400 replace the 2^-400 before it, then cancels it:
        # mpmath's product is 0 where the exact sum is 2^-400
        cancel = (matrix([[tiny, big, big]]), matrix([[1], [1], [-1]]))
        pairs = [(a, b), (b.T, a), (c, b), cancel]
        wants = [x * y for x, y in pairs]
        assert wants[-1][0, 0] == 0
        calls = [0]
        real = mp.fdot

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(mp, "fdot", counted)
        for (x, y), want in zip(pairs, wants):
            assert_same_entries(lab.matmul(x, y), want)
        assert calls[0] > 0


@DPS
def test_matmul_complex_partial_fdot_bit_identical(dps, monkeypatch):
    """Complex products have mpmath's bits: complex times complex, mixed
    lines, and rows whose spread passes 2 prec so that only some of their
    entries, those meeting both wide terms, go to fdot."""
    rng = rnd(19)
    with mp.workdps(dps):
        for kinds in [("complex", "complex"), ("mixed", "complex"),
                      ("complex", "mixed"), ("mixed", "mixed")]:
            assert_same_product(random_matrix(rng, 7, 9, kinds[0]),
                                random_matrix(rng, 9, 6, kinds[1]))
        wide = mpf(2) ** (3 * mp.prec)
        a = random_matrix(rng, 4, 5, "complex")
        a[0, 0], a[1, 4] = a[0, 0] * wide, mpc(1 / wide, wide)
        b = random_matrix(rng, 5, 4, "complex")
        for k in (1, 2, 3):
            b[k, 0] = 0                  # column 0 meets only terms 0 and 4
        b[0, 1] = b[4, 1] = b[4, 2] = 0  # column 1 misses both wide terms
        b[0, 3] = 0                      # column 3 misses term 0 only
        want = a * b
        calls = [0]
        real = mp.fdot

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(mp, "fdot", counted)
        assert_same_entries(lab.matmul(a, b), want)
        assert 0 < calls[0] < a.rows * b.cols


def test_precomputed_span_matches_oracle():
    """The span read off ``_pack``'s per-term extents equals the span
    rebuilt from the raw parts of both lines."""
    rng = rnd(20)
    with mp.workdps(30):
        cap = 8 * mp.prec
        wide = mpf(2) ** (3 * mp.prec // 2)
        for trial in range(60):
            kind_a = ("real", "complex", "mixed")[trial % 3]
            kind_b = ("real", "complex", "mixed")[trial // 3 % 3]
            a = random_matrix(rng, 1, 6, kind_a)
            b = random_matrix(rng, 6, 1, kind_b)
            for k in range(6):
                r = rng.random()
                if r < 0.2:
                    a[0, k] = a[0, k] * wide
                elif r < 0.3:
                    b[k, 0] = mpc(0, 1) / wide
                elif r < 0.4:
                    a[0, k] = mpc(0, mpf(rng.gauss(0, 1)))
            row = [a[0, k] for k in range(6)]
            col = [b[k, 0] for k in range(6)]
            pa = linalg._pack(row, mp, cap)
            pb = linalg._pack(col, mp, cap)
            if any(p is None or p is linalg._ZERO_LINE for p in (pa, pb)):
                continue
            want = product_span(linalg._scan(row, mp, cap)[3],
                                linalg._scan(col, mp, cap)[3])
            assert linalg._span(pa[4], pb[4]) == want
        assert linalg._span([None, (0, 3)], [(1, 1), None]) is None
        zero, one = (mpf(0)._mpf_,) * 2, (mpf(1)._mpf_,) * 2
        assert product_span([zero, one], [one, zero]) is None


LEG_SUBSETS = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (2, 0), (0, 1, 2)]


@pytest.mark.parametrize("dims", [(2, 3, 4), (3, 4, 3)], ids=str)
def test_leg_product_matches_dense_oracle(dims):
    """``leg_product`` has the bits and types of the dense product of the
    two embedded factors, for every leg subset and its complement, with
    rows that mix mpf and mpc and exact zeros."""
    rng = rnd(16)
    for legs in LEG_SUBSETS:
        comp = tuple(l for l in range(3) if l not in legs)
        na = math.prod(dims[l] for l in legs)
        nb = math.prod(dims[l] for l in comp)
        a = random_matrix(rng, na, na, "mixed")
        b = random_matrix(rng, nb, nb, "mixed" if legs else "real")
        if na > 1:
            for k in range(na):
                a[na - 1, k] = 0                 # a zero row
        want = lab.matmul(lab.embed(a, legs, dims), lab.embed(b, comp, dims))
        assert_same_entries(lab.leg_product(a, b, legs, dims), want)


def test_leg_product_wide_exponents_fall_back_to_fdot(monkeypatch):
    """A term whose exponents span more than 2 prec bits, a row spread over
    more than 8 prec bits and an inf all go through fdot, as in matmul."""
    rng = rnd(17)
    dims, legs, comp = (2, 3, 2), (0, 2), (1,)
    a = random_matrix(rng, 4, 4, "complex")
    b = random_matrix(rng, 3, 3, "mixed")
    wide = mpf(2) ** (3 * mp.prec // 2)
    a[0, 1] = mpc(wide, 1 / wide)                # one term spans 3 prec
    a[2, 0], a[2, 3] = a[2, 0] * wide ** 3, a[2, 3] / wide ** 3
    b[1, 2] = mp.inf
    want = lab.matmul(lab.embed(a, legs, dims), lab.embed(b, comp, dims))
    calls = [0]
    real = mp.fdot

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(mp, "fdot", counted)
    assert_same_entries(lab.leg_product(a, b, legs, dims), want)
    assert calls[0] > 0


@pytest.mark.parametrize("dims", [(2, 3, 4), (3, 4, 3)], ids=str)
def test_embedded_product_matches_dense_oracle(dims):
    """``embedded_product`` has the bits and types of ``matmul`` with the
    dense embedded factor, for every leg subset: mixed rows, a zero row of
    each factor and a zero column of the embedded one."""
    rng = rnd(22)
    n = math.prod(dims)
    for legs in LEG_SUBSETS:
        nx = math.prod(dims[l] for l in legs)
        a = random_matrix(rng, n, n, "mixed")
        x = random_matrix(rng, nx, nx, "mixed" if nx > 1 else "complex")
        for k in range(n):
            a[n - 1, k] = 0
        if nx > 1:
            for k in range(nx):
                x[0, k] = x[k, nx - 1] = 0
        want = lab.matmul(a, lab.embed(x, legs, dims))
        assert_same_entries(lab.embedded_product(a, x, legs, dims), want)


def test_embedded_product_wide_exponents_fall_back_to_fdot(monkeypatch):
    """A row whose spread passes 2 prec, one past 8 prec and an inf go to
    fdot with the full lines, as in ``matmul``."""
    rng = rnd(23)
    dims, legs = (2, 3, 2), (0, 2)
    a = random_matrix(rng, 12, 12, "complex")
    x = random_matrix(rng, 4, 4, "mixed")
    wide = mpf(2) ** (3 * mp.prec)
    a[0, 0], a[0, 7] = a[0, 0] * wide, a[0, 7] / wide
    a[3, 1], a[3, 2] = a[3, 1] * wide ** 3, a[3, 2] / wide ** 3
    a[5, 4] = mp.inf
    x[1, 2] = x[1, 2] * wide
    # entry (8, 0) sums a[8, k] x[k_R, 0] over k = 0, 1, 6, 7: fdot lets the
    # two wide terms cancel the small one, where the exact sum keeps it
    for k in range(12):
        a[8, k] = 0
    a[8, 0], a[8, 1], a[8, 6] = 1 / wide, wide, wide
    x[0, 0], x[1, 0], x[2, 0], x[3, 0] = 1, 1, -1, 0
    want = lab.matmul(a, lab.embed(x, legs, dims))
    assert want[8, 0] == 0
    calls = [0]
    real = mp.fdot

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(mp, "fdot", counted)
    assert_same_entries(lab.embedded_product(a, x, legs, dims), want)
    assert calls[0] > 0


def test_max_abs_diff_matches_max_abs_of_difference():
    """The fused residual has the bits of ``max_abs(a - b)``, also where
    entries or whole matrices agree exactly."""
    rng = rnd(24)
    for k1, k2 in [("complex", "complex"), ("real", "real"),
                   ("mixed", "real"), ("real", "complex")]:
        a, b = random_matrix(rng, 5, 4, k1), random_matrix(rng, 5, 4, k2)
        pairs = [(a, b), (a, a), (b, b.copy())]
        c = a.copy()
        c[2, 3] = c[2, 3] + 1
        pairs.append((a, c))
        d = b.copy()
        d[0, 0] = mpc(d[0, 0], 0)                # equal value, other type
        pairs.append((b, d))
        for x, y in pairs:
            assert _raw(lab.max_abs_diff(x, y)) == _raw(max_abs(x - y))
    assert lab.max_abs_diff(lab.eye(3), lab.eye(3)) == 0
    with pytest.raises(ValueError):
        lab.max_abs_diff(matrix(2, 3), matrix(3, 2))


# ----------------------------------------------------------- shared spectra

def _key(a):
    """What makes two inputs decompose alike: precision, rounding, shape
    and the raw entries."""
    return (*mp._prec_rounding, a.rows, a.cols,
            tuple(_raw(a[i, j]) for i in range(a.rows)
                  for j in range(a.cols)))


def test_spectrum_shared_only_inside_the_block():
    rng = rnd(25)
    rho = lab.random_density(3, rng)
    assert lab.spectrum(rho) is not lab.spectrum(rho.copy())
    with lab.shared_spectra():
        sp = lab.spectrum(rho, "rho")
        assert lab.spectrum(rho.copy()) is sp
        with lab.shared_spectra():
            assert lab.spectrum(rho) is sp
        assert lab.spectrum(rho) is sp
        with mp.workdps(40):
            assert lab.spectrum(rho) is not sp
        # the guard runs on every call, with that call's name and error
        sing = mp.diag([mpf(1), mpf(0)])
        lab.spectrum(sing)
        with pytest.raises(NotSeparatingError, match="sing2"):
            lab.spectrum(sing, "sing2", NotSeparatingError)
        with pytest.raises(RankDeficiencyError, match="sing3"):
            lab.spectrum(sing, "sing3")
    assert lab._shared is None


def test_battery_decomposes_each_input_once(monkeypatch):
    """Within ``battery_appendix_c`` at 3,4,3 every eigendecomposition is
    of an input not decomposed before, and no shared spectrum is changed
    by the callers it is handed to."""
    from cftinv import verify
    keys = []
    made = []
    real = lab.eighe

    def recorded(a):
        keys.append(_key(a))
        e, q = real(a)
        made.append((e, q, [_raw(e[i]) for i in range(e.rows)],
                     [_raw(q[i, j]) for i in range(q.rows)
                      for j in range(q.cols)]))
        return e, q

    monkeypatch.setattr(lab, "eighe", recorded)
    # in process: a forked lane's decompositions are not seen here
    monkeypatch.setattr(verify, "_lanes_available", lambda: False)
    b = verify.Battery()
    verify.battery_appendix_c(b, (3, 4, 3), 7)
    assert b.all_pass
    assert len(keys) == len(set(keys)) == 44
    for e, q, raw_e, raw_q in made:
        assert [_raw(e[i]) for i in range(e.rows)] == raw_e
        assert [_raw(q[i, j]) for i in range(q.rows)
                for j in range(q.cols)] == raw_q
    assert lab._shared is None


def test_shared_spectra_dropped_on_return_and_raise(monkeypatch):
    from cftinv import verify
    seen = []

    def boom(*args, **kwargs):
        seen.append(len(lab._shared))
        raise RuntimeError("boom")

    # in process: a forked lane's memo is not seen here
    monkeypatch.setattr(verify, "_lanes_available", lambda: False)
    verify.battery_appendix_c(verify.Battery(), (2, 2, 2), 3)
    assert lab._shared is None
    monkeypatch.setattr(lab, "index_product", boom)
    with pytest.raises(RuntimeError, match="boom"):
        verify.battery_appendix_c(verify.Battery(), (2, 2, 2), 3)
    assert seen and seen[0] > 0
    assert lab._shared is None


def test_repeated_lab_commands_decompose_alike(monkeypatch, capsys):
    """Two identical ``lab`` commands in one process share nothing: each
    makes the same decompositions and prints the same bytes."""
    from cftinv import verify
    from cftinv.cli import main
    calls = [0]
    real = lab.eighe

    def counted(a):
        calls[0] += 1
        return real(a)

    monkeypatch.setattr(lab, "eighe", counted)
    # in process: a forked lane's decompositions are not counted here
    monkeypatch.setattr(verify, "_lanes_available", lambda: False)
    runs = []
    for _ in range(2):
        before = calls[0]
        code = main(["lab", "--dims", "2,3,2", "--seed", "3"])
        runs.append((code, calls[0] - before, capsys.readouterr().out))
    assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][1] > 0


@pytest.mark.parametrize("dps", [30, 50])
def test_scale_columns_matches_dense_oracle(dps, monkeypatch):
    """Q diag(f) as a column scaling has the bits of the dense product:
    mpf and mpc factors, a zero factor, mixed rows, a wide exponent."""
    rng = rnd(18)
    with mp.workdps(dps):
        wide = mpf(2) ** (3 * mp.prec // 2)
        q = random_matrix(rng, 6, 5, "mixed")
        q[3, 1] = mpc(wide, 1 / wide)
        factors = [mpf("0.3"), mpc(0, 2), mpf(0), mpc(wide, 1), mpf(-7) / 3]
        for vals in (factors, [mpf(x) for x in range(1, 6)]):
            d = mp.diag(vals)
            assert_same_entries(lab.scale_columns(q, d), lab.matmul(q, d))
        sp = lab.Spectrum(evals=[mpf(k) / 7 for k in range(1, 6)],
                          q=random_matrix(rng, 5, 5, "complex"))
        for f in (lambda x: x, lambda x: mp.expj(x), lambda x: 0 * x):
            d = mp.diag([f(lam) for lam in sp.evals])
            assert_same_entries(sp.fun(f), lab.matmul(lab.matmul(sp.q, d),
                                                      lab.dag(sp.q)))


def test_spectrum_functions_and_guard():
    rng = rnd(4)
    rho = lab.random_density(3, rng)
    sp = lab.spectrum(rho, "rho")
    assert max_abs(sp.fun(lambda lam: lam) - rho) < mpf("1e-28")
    assert max_abs(sp.pow(2) - rho * rho) < mpf("1e-28")
    assert max_abs(lab.spectrum(sp.log()).fun(exp) - rho) < mpf("1e-28")
    sing = mp.diag([mpf(1), mpf(0)])
    lab.spectrum(sing)                    # no guard without a name
    with pytest.raises(RankDeficiencyError, match="sing"):
        lab.spectrum(sing, "sing")
    with pytest.raises(NotSeparatingError):
        lab.spectrum(sing, "sing", NotSeparatingError)


def test_shared_spectra_match_fresh_decompositions():
    """Reusing a spectrum gives exactly the entries of decomposing again."""
    rng = rnd(5)
    der = ci.spatial_derivative(lab.random_density(12, rng),
                                lab.random_density(3, rng), (3, 4, 3), (0, 1))
    t = mpf("0.37")
    assert max_abs(der.power_it(t) - power_it_fresh(der, t)) == 0
    psi, psi0 = lab.random_density(3, rng), lab.random_density(3, rng)
    assert max_abs(lab.cocycle_direct(psi, psi0, mpf("0.7"))
                       - cocycle_direct_fresh(psi, psi0, mpf("0.7"))) == 0


def test_eighe_calls_per_function(monkeypatch):
    """Each lab function decomposes each density it needs once."""
    rng = rnd(6)
    dims = (2, 2, 2)
    rho_a, rho_b = lab.random_density(4, rng), lab.random_density(2, rng)
    der = ci.spatial_derivative(rho_a, rho_b, dims, (0, 1))
    psi, psi0, psi1 = (lab.random_density(3, rng) for _ in range(3))
    triple = ci.FiniteFactorTriple(*dims)
    rho1, rho3 = lab.random_density(2, rng), lab.random_density(2, rng)
    flow = ci.canonical_flow(triple, rho1, rho3)
    t, s = mpf("0.4"), mpf("0.3")
    cases = {
        "spatial_derivative":
            lambda: ci.spatial_derivative(rho_a, rho_b, dims, (0, 1)),
        "modular_implementation_residual":
            lambda: lab.modular_implementation_residual(der, t),
        "connes_cocycle": lambda: ci.connes_cocycle(psi, psi0, t),
        "spatial_cocycle_factorization_residual":
            lambda: spatial_cocycle_factorization_residual(
                rho_a, rho1, rho3, dims, (0, 1), t),
        "cocycle_identity_residual":
            lambda: lab.cocycle_identity_residual(psi, psi0, t, s),
        "cocycle_chain_residual":
            lambda: lab.cocycle_chain_residual(psi, psi0, psi1, t),
        "index_product": lambda: ci.index_product(triple, rho1, rho3, flow),
        "entropy_derivative_identity":
            lambda: ci.entropy_derivative_identity(triple, rho1),
    }
    calls = [0]
    real = lab.eighe

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(lab, "eighe", counted)
    got = {}
    for name, run in cases.items():
        before = calls[0]
        run()
        got[name] = calls[0] - before
    assert got == {"spatial_derivative": 2,
                   "modular_implementation_residual": 0,
                   "connes_cocycle": 3,
                   "spatial_cocycle_factorization_residual": 3,
                   "cocycle_identity_residual": 2,
                   "cocycle_chain_residual": 3,
                   "index_product": 2,
                   "entropy_derivative_identity": 1}


# -------------------------------------------------------- spatial derivative

def test_spatial_derivative_is_product():
    rng = rnd(10)
    dims = (2, 2, 3)
    rho_a = lab.random_density(4, rng)      # on legs (0, 1)
    rho_b = lab.random_density(3, rng)      # on leg 2
    der = ci.spatial_derivative(rho_a, rho_b, dims, (0, 1))
    expect = lab.kron(rho_a, lab.mat_pow(rho_b, -1))
    assert max_abs(der.dense() - expect) < mpf("1e-26")


def test_spatial_derivative_tracial_identity():
    n = 3
    tr = lab.eye(n) * (mpf(1) / n)
    der = ci.spatial_derivative(tr, tr, (n, n), (0,))
    assert max_abs(der.dense() - lab.eye(n * n)) < mpf("1e-28")


def test_spatial_derivative_inverse_relation():
    rng = rnd(11)
    dims = (2, 3, 2)
    rho_a = lab.random_density(6, rng)
    rho_b = lab.random_density(2, rng)
    der = ci.spatial_derivative(rho_a, rho_b, dims, (0, 1))
    prod = der.dense() * der.inverse().dense()
    assert max_abs(prod - lab.eye(12)) < mpf("1e-20")


def test_spatial_derivative_implements_flows():
    """D^{it} implements the phi flow and D^{-it} the psi flow; 50 random
    states across leg splits with per-leg dimension up to 4."""
    rng = rnd(12)
    combos = [((2, 2, 2), (0,)), ((2, 3, 2), (0, 1)), ((3, 2, 2), (2,)),
              ((2, 2, 4), (1, 2)), ((4, 2, 2), (0,)), ((2, 4, 2), (1,)),
              ((2, 2, 3), (0, 2)), ((3, 3, 2), (0, 1)), ((2, 3, 4), (2,)),
              ((4, 2, 3), (1,))]
    count = 0
    worst = mpf(0)
    while count < 50:
        dims, legs = combos[count % len(combos)]
        d_r = 1
        for l in legs:
            d_r *= dims[l]
        d_s = 1
        for l in range(3):
            if l not in legs:
                d_s *= dims[l]
        rho_phi = lab.random_density(d_r, rng)
        rho_psi = lab.random_density(d_s, rng)
        der = ci.spatial_derivative(rho_phi, rho_psi, dims, legs)
        r1, r2 = lab.modular_implementation_residual(der, mpf("0.41"))
        worst = max(worst, r1, r2)
        count += 1
    assert worst < mpf("1e-18")


def test_spatial_derivative_rejects_singular():
    sing = matrix(2, 2)
    sing[0, 0] = 1
    with pytest.raises(NotSeparatingError):
        ci.spatial_derivative(sing, lab.eye(2) / 2, (2, 2), (0,))


# ------------------------------------------------------------------ cocycles

def test_cocycle_same_state_is_identity():
    rng = rnd(20)
    psi = lab.random_density(3, rng)
    res = ci.connes_cocycle(psi, psi, mpf("0.8"))
    assert max_abs(res.u - lab.eye(3)) < mpf("1e-25")


def test_cocycle_reconstruction_matches_direct():
    rng = rnd(21)
    psi = lab.random_density(3, rng)
    psi0 = lab.random_density(3, rng)
    res = ci.connes_cocycle(psi, psi0, mpf("0.7"))
    direct = lab.cocycle_direct(psi, psi0, mpf("0.7"))
    assert max_abs(res.u - direct) < mpf("1e-16")
    assert res.membership_residual < mpf("1e-18")
    assert res.unitarity_residual < mpf("1e-18")


def test_cocycle_identity_and_chain():
    rng = rnd(22)
    psi = lab.random_density(4, rng)
    psi0 = lab.random_density(4, rng)
    psi1 = lab.random_density(4, rng)
    assert lab.cocycle_identity_residual(psi, psi0, mpf("0.4"), mpf("0.35")) \
        < mpf("1e-16")
    assert lab.cocycle_chain_residual(psi, psi0, psi1, mpf("0.6")) < mpf("1e-16")


def test_cocycle_factorization_on_ambient():
    """(d phi/d psi0)^{it} = (d phi/d psi)^{it} (D psi : D psi0)_t."""
    rng = rnd(23)
    dims = (2, 3)
    rho_phi = lab.random_density(2, rng)
    psi = lab.random_density(3, rng)
    psi0 = lab.random_density(3, rng)
    res = spatial_cocycle_factorization_residual(
        rho_phi, psi, psi0, dims, (0,), mpf("0.9"))
    assert res < mpf("1e-16")


# ------------------------------------------------------------ weight masses

def test_weight_mass_zero_generator():
    rng = rnd(30)
    g = matrix(4, 1)
    for i in range(4):
        g[i] = mpc(rng.gauss(0, 1), rng.gauss(0, 1))
    nrm = sqrt(sum(abs(g[i]) ** 2 for i in range(4)))
    for i in range(4):
        g[i] /= nrm
    state = VectorState.make(g, (2, 2), (0,))
    flow = flow_from_legs((2, 2), [None, None])
    # Ad V(t) trivial = modular flow only for a tracial marginal; build one
    bell = matrix(4, 1)
    bell[0] = bell[3] = 1 / sqrt(mpf(2))
    state = VectorState.make(bell, (2, 2), (0,))
    assert fabs(weight_total_mass(flow, state) - 1) < mpf("1e-25")


def test_weight_mass_eigenvector():
    # K = alpha on leg 0 plus beta on leg 1 (scalar blocks): every vector is
    # an eigenvector with kappa0 = alpha + beta, and the mass is e^{-kappa0}
    alpha, beta = mpf("0.3"), mpf("-0.7")
    flow = flow_from_legs((2, 2), [alpha * lab.eye(2), beta * lab.eye(2)])
    bell = matrix(4, 1)
    bell[0] = bell[3] = 1 / sqrt(mpf(2))
    state = VectorState.make(bell, (2, 2), (0,))
    mass = weight_total_mass(flow, state)
    assert fabs(mass - exp(-(alpha + beta))) < mpf("1e-25")


def test_weight_mass_square_setup_oracle():
    """On a square split the pairing equals the solved weight mass and the
    cocycle/analytic-continuation oracle."""
    rng = rnd(31)
    n = 3
    g = matrix(n * n, 1)
    for i in range(n * n):
        g[i] = mpc(rng.gauss(0, 1), rng.gauss(0, 1))
    nrm = sqrt(sum(abs(g[i]) ** 2 for i in range(n * n)))
    for i in range(n * n):
        g[i] /= nrm
    state = VectorState.make(g, (n, n), (0,))
    k2 = lab.random_density(n, rng)          # any Hermitian middle generator
    k2 = k2 + lab.dag(k2)
    flow = flow_from_legs((n, n), [lab.mat_log(state.density), k2])
    mass = weight_total_mass(flow, state)
    oracle = weight_mass_cocycle_oracle(flow, state)
    assert fabs(mass - oracle) < mpf("1e-24")
    # d(phi)/d(psi) = e^K pins the weight density to e^{-k2}: mass = Tr e^{-k2}
    solved = lab.trace(lab.spectrum(k2).fun(lambda x: exp(-x)))
    assert fabs(mass - solved) < mpf("1e-24")


def test_weight_mass_hypothesis_violation():
    rng = rnd(32)
    g = matrix(4, 1)
    for i in range(4):
        g[i] = mpc(rng.gauss(0, 1), rng.gauss(0, 1))
    nrm = sqrt(sum(abs(g[i]) ** 2 for i in range(4)))
    for i in range(4):
        g[i] /= nrm
    state = VectorState.make(g, (2, 2), (0,))
    wrong = lab.random_density(2, rng)
    flow = flow_from_legs((2, 2), [lab.mat_log(wrong), None])
    with pytest.raises(HypothesisViolationError):
        weight_total_mass(flow, state)


# -------------------------------------------------------------------- index

def test_index_product_232():
    rng = rnd(40)
    triple = ci.FiniteFactorTriple(2, 3, 2)
    rho1 = lab.random_density(2, rng)
    rho3 = lab.random_density(2, rng)
    flow = ci.canonical_flow(triple, rho1, rho3)
    out = ci.index_product(triple, rho1, rho3, flow)
    assert fabs(out.product - 9) < mpf("1e-8")


def test_index_product_trivial_inclusion():
    rng = rnd(41)
    triple = ci.FiniteFactorTriple(3, 1, 2)
    rho1 = lab.random_density(3, rng)
    rho3 = lab.random_density(2, rng)
    flow = ci.canonical_flow(triple, rho1, rho3)
    out = ci.index_product(triple, rho1, rho3, flow)
    assert fabs(out.product - 1) < mpf("1e-10")


def test_index_product_symmetric_masses():
    rng = rnd(42)
    triple = ci.FiniteFactorTriple(2, 3, 2)
    rho = lab.random_density(2, rng)
    flow = ci.canonical_flow(triple, rho, rho)
    out = ci.index_product(triple, rho, rho, flow)
    assert fabs(out.mass1 - 3) < mpf("1e-8")
    assert fabs(out.mass2 - 3) < mpf("1e-8")


def test_index_product_swap_symmetry_structure():
    """The leg swap U conjugates the canonical symmetric flow to its inverse:
    U K U* = -K entrywise in the leg representation."""
    rng = rnd(43)
    triple = ci.FiniteFactorTriple(2, 3, 2)
    rho = lab.random_density(2, rng)
    flow = ci.canonical_flow(triple, rho, rho)
    k1 = flow.generator_on((0,))
    k3 = flow.generator_on((2,))
    assert max_abs(k1 + k3) < mpf("1e-26")   # swap sends K to -K


def test_canonical_flow_generators_are_the_log_densities():
    """The dense generators of the canonical flow are mat_log(rho1) and
    -1 * mat_log(rho3) bit for bit, so the hypothesis check sees the same
    matrices as when the flow stored them."""
    rng = rnd(46)
    triple = ci.FiniteFactorTriple(3, 2, 2)
    rho1, rho3 = lab.random_density(3, rng), lab.random_density(2, rng)
    for dps in (30, 50):
        with mp.workdps(dps):
            flow = ci.canonical_flow(triple, rho1, rho3)
            assert flow.terms[1] is None
            for got, want in ((flow.generator_on((0,)), lab.mat_log(rho1)),
                              (flow.generator_on((2,)),
                               -1 * lab.mat_log(rho3))):
                assert (got.rows, got.cols) == (want.rows, want.cols)
                for i in range(want.rows):
                    for j in range(want.cols):
                        assert _raw(got[i, j]) == _raw(want[i, j]), (dps, i, j)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_index_product_matches_fresh_decompositions(d):
    """The masses summed over the flow's spectra agree with decomposing the
    dense generators again (the former formula) to rounding."""
    rng = rnd(47 + d)
    triple = ci.FiniteFactorTriple(d, 3, 5 - d)
    rho1, rho3 = lab.random_density(d, rng), lab.random_density(5 - d, rng)
    flow = ci.canonical_flow(triple, rho1, rho3)
    out = ci.index_product(triple, rho1, rho3, flow)
    mass1, mass2 = index_product_fresh(triple, rho1, rho3, flow)
    assert fabs(out.mass1 - mass1) < mpf("1e-28") * mass1
    assert fabs(out.mass2 - mass2) < mpf("1e-28") * mass2
    assert fabs(out.product - 9) < mpf("1e-26")


def test_index_product_hypothesis_check():
    rng = rnd(44)
    triple = ci.FiniteFactorTriple(2, 3, 2)
    rho1 = lab.random_density(2, rng)
    rho3 = lab.random_density(2, rng)
    other = lab.random_density(2, rng)
    flow = ci.canonical_flow(triple, other, rho3)
    with pytest.raises(HypothesisViolationError):
        ci.index_product(triple, rho1, rho3, flow)


def test_flow_preserves_leg_algebras():
    """Ad V(t) maps the leg-0 algebra to itself: dense commutation check."""
    rng = rnd(45)
    triple = ci.FiniteFactorTriple(2, 2, 2)
    rho1 = lab.random_density(2, rng)
    rho3 = lab.random_density(2, rng)
    flow = ci.canonical_flow(triple, rho1, rho3)
    v = exp_factor(flow, 1j * mpf("0.6"))
    vd = lab.dag(v)
    x = lab.random_density(2, rng)
    moved = v * lab.embed(x, (0,), triple.dims) * vd
    s = lab.mat_pow(rho1, 1j * mpf("0.6"))
    expect = lab.embed(s * x * lab.dag(s), (0,), triple.dims)
    assert max_abs(moved - expect) < mpf("1e-20")
    y = lab.random_density(2, rng)
    moved = v * lab.embed(y, (2,), triple.dims) * vd
    s = lab.mat_pow(rho3, -1j * mpf("0.6"))
    expect = lab.embed(s * y * lab.dag(s), (2,), triple.dims)
    assert max_abs(moved - expect) < mpf("1e-20")


# ------------------------------------------------------------------ entropy

def test_relative_entropy_trivial_and_known():
    rng = rnd(50)
    rho = lab.random_density(3, rng)
    assert fabs(ci.araki_relative_entropy(rho, rho)) < mpf("1e-25")
    r1 = mp.diag([mpf(1) / 2, mpf(1) / 2])
    r2 = mp.diag([mpf(3) / 4, mpf(1) / 4])
    s = ci.araki_relative_entropy(r1, r2)
    closed = log(mpf(4) / 3) / 2          # (1/2)log(2/3) + (1/2)log 2
    assert fabs(s - closed) < mpf("1e-25")
    assert fabs(s - ci.relative_entropy_oracle(r1, r2)) < mpf("1e-12")


def test_relative_entropy_vs_oracle_battery():
    rng = rnd(51)
    for _ in range(40):
        n = rng.randint(2, 6)
        r1 = lab.random_density(n, rng)
        r2 = lab.random_density(n, rng)
        s = ci.araki_relative_entropy(r1, r2)
        assert s >= -mpf("1e-25")
        assert fabs(s - ci.relative_entropy_oracle(r1, r2)) < mpf("1e-12")


def test_relative_entropy_positivity_zero_iff_equal():
    rng = rnd(52)
    for _ in range(20):
        r1 = lab.random_density(3, rng)
        r2 = lab.random_density(3, rng)
        s = ci.araki_relative_entropy(r1, r2)
        assert s > mpf("1e-8")            # generic distinct pairs
    rho = lab.random_density(4, rng)
    assert fabs(ci.araki_relative_entropy(rho, rho)) < mpf("1e-25")


def test_relative_entropy_rank_guard():
    good = mp.diag([mpf("0.999999"), mpf("1e-6")])
    bad = mp.diag([1 - mpf("1e-14"), mpf("1e-14")])
    ci.araki_relative_entropy(good, good)
    with pytest.raises(RankDeficiencyError):
        ci.araki_relative_entropy(bad, good)


def test_pimsner_popa():
    assert fabs(ci.pimsner_popa_entropy(ci.FiniteFactorTriple(2, 3, 2))
                - log(mpf(9))) < mpf("1e-25")
    assert ci.pimsner_popa_entropy(ci.FiniteFactorTriple(4, 1, 4)) == 0
    rng = rnd(53)
    triple = ci.FiniteFactorTriple(2, 2, 2)
    rho = lab.random_density(2, rng)
    out = ci.index_product(triple, rho, rho, ci.canonical_flow(triple, rho, rho))
    assert fabs(ci.pimsner_popa_entropy(triple)
                - 2 * log(sqrt(out.product))) < mpf("1e-8")


# ------------------------------------------------- derivative identity

def test_derivative_identity_product_states():
    rng = rnd(60)
    triple = ci.FiniteFactorTriple(2, 3, 2)
    rho1 = lab.random_density(2, rng)
    rep = ci.entropy_derivative_identity(triple, rho1)
    assert rep.mass_residual < mpf("1e-6")
    assert rep.identity_residual < mpf("1e-6")
    assert fabs(rep.z_kms - 3) < mpf("1e-6")
    assert fabs(rep.s_rel) < mpf("1e-10")
    assert fabs(rep.derivative - rep.log_index) < mpf("1e-6")


def test_derivative_identity_product_middle_state():
    rng = rnd(61)
    triple = ci.FiniteFactorTriple(2, 2, 2)
    rho1 = lab.random_density(2, rng)
    rho2 = lab.random_density(2, rng)
    w = lab.kron(rho1, rho2)              # product state, middle not tracial
    rep = ci.entropy_derivative_identity(triple, rho1, state12=w)
    assert rep.identity_residual < mpf("1e-6")


def test_derivative_identity_tracial_exact():
    triple = ci.FiniteFactorTriple(3, 2, 3)
    rho1 = lab.eye(3) / 3
    rep = ci.entropy_derivative_identity(triple, rho1)
    # t log Z is exactly quadratic, so central differences are exact
    assert rep.identity_residual < mpf("1e-24")
    assert fabs(rep.derivative - 2 * log(mpf(2))) < mpf("1e-24")


def test_derivative_identity_trivial_middle():
    rng = rnd(62)
    triple = ci.FiniteFactorTriple(2, 1, 2)
    rho1 = lab.random_density(2, rng)
    rep = ci.entropy_derivative_identity(triple, rho1)
    assert fabs(rep.z_kms - 1) < mpf("1e-24")
    assert fabs(rep.derivative) < mpf("1e-20")
    assert fabs(rep.s_rel) < mpf("1e-24")


def test_derivative_identity_rejects_entangled_state():
    triple = ci.FiniteFactorTriple(2, 2, 2)
    rho1 = mp.diag([mpf("0.7"), mpf("0.3")])
    # entangled vector with the exact leg-1 marginal rho1, mixed with a
    # compatible product state to keep full rank: the result has the right
    # restriction but does not commute with the expectation-extended state,
    # so the partition function leaves the certified exact family
    g = matrix(4, 1)
    g[0] = sqrt(mpf("0.7"))
    g[3] = sqrt(mpf("0.3"))
    pure = g * lab.dag(g)
    delta = mpf("0.1")
    w = (1 - delta) * pure + delta * lab.kron(rho1, lab.eye(2) / 2)
    with pytest.raises(IdentityViolationError):
        ci.entropy_derivative_identity(triple, rho1, state12=w)


def test_derivative_identity_needs_symmetry():
    with pytest.raises(ValueError):
        ci.entropy_derivative_identity(ci.FiniteFactorTriple(2, 2, 3),
                                       lab.eye(2) / 2)


def test_reconstruction_flow_restriction():
    rng = rnd(64)
    triple = ci.FiniteFactorTriple(2, 3, 2)
    rho1 = lab.random_density(2, rng)
    assert lab.reconstruction_flow_residual(triple, rho1) < mpf("1e-16")


def test_vector_state_not_separating():
    v = matrix(4, 1)
    v[0] = 1
    with pytest.raises(NotSeparatingError):
        VectorState.make(v, (2, 2), (0,))
