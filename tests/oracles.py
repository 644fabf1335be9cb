"""Independent oracles used only by the test suite.

The main one computes graded dimensions of irreducible lowest-weight modules
by brute force: build the Shapovalov Gram matrix of the level-n Verma basis
with exact rational arithmetic and take its rank.  This never touches the
theta-style coefficient formula under test; it only uses the defining
bracket relations.

``evaluate_full_sum`` is the character evaluation that sums every stored
coefficient, with the tail bound ``tail_bound_direct`` computed afresh on
each call; the library's ``evaluate`` stops at the last term that can
change a bit, reuses the sector-independent part of the bound, and must
agree with it exactly.

``mat_pow_fresh``, ``power_it_fresh`` and ``cocycle_direct_fresh`` decompose
every density afresh on each call; the lab's shared spectra must reproduce
them bit for bit.  ``index_product_fresh`` is the weight-mass formula that
decomposes the dense flow generators again and traces dense exponentials;
the lab's sums over the flow's spectra must agree with it to rounding.

``gamma_trace_bruteforce_mpf`` is the Fock occupation-box walk in mpf
arithmetic; the library's fixed-point walk must agree with it within both
walks' rounding.  ``fermi_ratio_scan_mpf`` adds every term of the Fermi
ratio in mpf arithmetic; the library's libmp scan, which skips the terms
that cannot change a bit, must reproduce its sums bit for bit.

``partition_numbers_loop`` and ``character_coeffs_loop`` are the per-index
loops of the exact coefficient build; the library's column-sum build must
reproduce their integers exactly.

``max_abs`` is the largest ``abs`` of a matrix entry; ``max_abs(a - b)``
forms the difference matrix, and ``lab.max_abs_diff`` must give its bits
without forming it.

``product_span`` is the exponent spread of a product's nonzero terms,
rebuilt from the raw parts of both lines for every entry; ``cftinv.linalg``
reads it off per-term extents packed once per row and column, and must
agree with it.

``VectorState`` and ``weight_total_mass`` check the lab from another side:
a unit vector in H1 (x) H2, its reduced densities, and the total mass
(e^{-K} xi, xi) of the weight a flow defines on the commutant, against the
cocycle/analytic-continuation oracle ``weight_mass_cocycle_oracle``.
``exp_factor`` forms e^{sK} densely, and
``spatial_cocycle_factorization_residual`` is the residual of
(d phi/d psi0)^{it} = (d phi/d psi)^{it} (D psi:D psi0)_t.
``compare_log_elliptic`` relates two heat-trace fits whose trace ratio has
a known limit.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf, mpc, exp, log, pi, eighe, matrix, sqrt

from cftinv.characters import (CharacterSeries, TraceValue, _theta_terms,
                               required_cutoff)
from cftinv.errors import (InconsistencyError, InsufficientCutoffError,
                           NotSeparatingError)
from cftinv.fock import RatioRow
from cftinv.lab import (FlowGenerator, _cocycle, _complement,
                        _flow_matches_state, _strides, embed, eye, matmul,
                        spatial_derivative, spectrum, trace)
from cftinv.modular_data import mpq
from cftinv.spectral import AsymptoticFit


def partition_numbers_loop(n: int) -> list:
    """p(0..n) by Euler's pentagonal-number recurrence, exact integers."""
    p = [0] * (n + 1)
    p[0] = 1
    for k in range(1, n + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > k:
                break
            sgn = -1 if j % 2 == 0 else 1
            total += sgn * p[k - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= k:
                total += sgn * p[k - g2]
            j += 1
        p[k] = total
    return p


def character_coeffs_loop(model, sector, cutoff: int,
                          partitions=None) -> CharacterSeries:
    """Exact coefficients a_0..a_cutoff of one sector character."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    p = partitions if partitions is not None else partition_numbers_loop(cutoff)
    a = [0] * (cutoff + 1)
    for e, sgn in _theta_terms(model.m, sector.r, sector.s, cutoff):
        if sgn > 0:
            for n in range(e, cutoff + 1):
                a[n] += p[n - e]
        else:
            for n in range(e, cutoff + 1):
                a[n] -= p[n - e]
    assert a[0] == 1, "lowest-weight space must be one dimensional"
    return CharacterSeries(sector=sector, c=model.c, coeffs=tuple(a))


def tail_bound_direct(cutoff, t, h, c, shifted):
    """The certified tail bound of :func:`cftinv.characters._tail_bound`,
    every factor computed on each call."""
    n1 = cutoff + 1
    rate = pi * sqrt(mpf(2) / 3) / sqrt(n1) - 2 * pi * t
    if rate >= 0:
        return None
    r = exp(rate)
    front = exp(-2 * pi * t * (h - (c if shifted else 0)))
    return front * (r ** n1) / (1 - r)


def evaluate_full_sum(series, t, shifted=True, tol=None):
    """chi(it) summed over all of ``series.coeffs``, with the certified error
    of :func:`cftinv.characters.evaluate`."""
    t = mpf(t)
    if t <= 0:
        raise ValueError("t must be positive")
    h = mpq(series.sector.h)
    c24 = mpq(series.c) / 24
    tail = tail_bound_direct(series.cutoff, t, h, c24, shifted)
    q = exp(-2 * pi * t)
    acc = mpf(0)
    qp = mpf(1)
    for a in series.coeffs:
        if a:
            acc += a * qp
        qp *= q
    front = exp(-2 * pi * t * (h - (c24 if shifted else 0)))
    value = front * acc
    if tol is None:
        tol = abs(value) * mpf(10) ** (6 - mp.dps) + mpf(10) ** (-2 * mp.dps)
    if tail is None or tail > tol:
        raise InsufficientCutoffError(
            f"cutoff {series.cutoff} cannot certify tolerance {tol} at t={t}",
            required_cutoff=required_cutoff(t, tol, h, c24, shifted))
    rounding = abs(value) * mpf(2) ** (4 - mp.prec) * (series.cutoff + 2)
    return TraceValue(value=value, error=tail + rounding)


def max_abs(a):
    """The largest ``abs`` of an entry of ``a``."""
    return max(abs(a[i, j]) for i in range(a.rows) for j in range(a.cols))


def product_span(parts_a, parts_b):
    """Spread of the raw exponents of the nonzero products sum_k a_k b_k,
    for two lines of raw (real, imaginary) parts; None when every product
    is zero."""
    lo = hi = None
    for pa, pb in zip(parts_a, parts_b):
        ea = [t[2] for t in pa if t[1]]
        eb = [t[2] for t in pb if t[1]]
        if ea and eb:
            k_lo, k_hi = min(ea) + min(eb), max(ea) + max(eb)
            lo = k_lo if lo is None else min(lo, k_lo)
            hi = k_hi if hi is None else max(hi, k_hi)
    return None if lo is None else hi - lo


def herm_fun_fresh(a, f):
    """f(A) through a fresh eigendecomposition of Hermitian A."""
    e, q = eighe(a)
    d = matrix(len(e), len(e))
    for i in range(len(e)):
        d[i, i] = f(e[i])
    return q * d * q.T.conjugate()


def mat_pow_fresh(a, s):
    """A^s through a fresh eigendecomposition of Hermitian positive A."""
    return herm_fun_fresh(a, lambda lam: exp(s * log(lam)))


def power_it_fresh(der, t):
    """(d phi/d psi)^{it} of a :class:`cftinv.lab.SpatialDerivative`,
    decomposing rho_phi and rho_psi again."""
    a = embed(mat_pow_fresh(der.rho_phi, 1j * mpf(t)), der.legs, der.dims)
    b = embed(mat_pow_fresh(der.rho_psi, -1j * mpf(t)), der.complement, der.dims)
    return a * b


def cocycle_direct_fresh(psi, psi0, t):
    """psi^{it} psi0^{-it}, decomposing psi and psi0 again."""
    t = mpf(t)
    return mat_pow_fresh(psi, 1j * t) * mat_pow_fresh(psi0, -1j * t)


def index_product_fresh(triple, rho1, rho3, flow):
    """(mass1, mass2) of :func:`cftinv.lab.index_product`, decomposing the
    dense generators k_l of the flow's legs again and tracing e^{+-k_l}."""
    d1, d2, d3 = triple.dims
    ks = [None if sp is None else flow.generator_on((l,))
          for l, sp in enumerate(flow.terms)]
    e = exp(flow.const)

    def tr_exp(k, s, dim):
        if k is None:
            return mpf(dim)
        return mp.re(trace(herm_fun_fresh(k, lambda lam: exp(s * lam))))

    k1, k2, k3 = ks
    lam3 = mp.re(trace(matmul(herm_fun_fresh(k3, exp), rho3))) / d3 \
        if k3 is not None else mpf(1)
    mass1 = e * lam3 * tr_exp(k1, 1, d1) * tr_exp(k2, 1, d2)
    lam1 = mp.re(trace(matmul(herm_fun_fresh(k1, lambda x: exp(-x)), rho1))) \
        / d1 if k1 is not None else mpf(1)
    mass2 = (1 / e) * lam1 * tr_exp(k2, -1, d2) * tr_exp(k3, -1, d3)
    return mass1, mass2


def spatial_cocycle_factorization_residual(rho_phi, psi, psi0, dims, legs, t):
    """Residual of (d phi/d psi0)^{it} = (d phi/d psi)^{it} (D psi:D psi0)_t
    with the cocycle embedded in the complement algebra."""
    comp = _complement(dims, legs)
    d0 = spatial_derivative(rho_phi, psi0, dims, legs)
    d1 = d0.with_psi(psi)
    lhs = d0.power_it(t)
    rhs = matmul(d1.power_it(t),
                 embed(_cocycle(d1.spec_psi, d0.spec_psi, t), comp, dims))
    return max_abs(lhs - rhs)


def reduced_density(vec, dims, keep):
    """Partial trace of |vec><vec| onto the chosen legs."""
    keep = tuple(keep)
    rest = [l for l in range(len(dims)) if l not in keep]
    strides = _strides(dims)
    dk = math.prod(dims[l] for l in keep)
    keep_strides = _strides([dims[l] for l in keep])
    n = len(vec)
    rho = matrix(dk, dk)
    comp = []
    for i in range(n):
        tup = tuple((i // strides[l]) % dims[l] for l in range(len(dims)))
        a = sum(tup[keep[k]] * keep_strides[k] for k in range(len(keep)))
        b = tuple(tup[l] for l in rest)
        comp.append((a, b))
    for i in range(n):
        ai, bi = comp[i]
        vi = vec[i]
        if vi == 0:
            continue
        for j in range(n):
            aj, bj = comp[j]
            if bi == bj:
                rho[ai, aj] += vi * mp.conj(vec[j])
    return rho


def random_unit_vector(n, rng):
    v = matrix(n, 1)
    for i in range(n):
        v[i] = mpc(rng.gauss(0, 1), rng.gauss(0, 1))
    nrm = sqrt(sum(abs(v[i]) ** 2 for i in range(n)))
    for i in range(n):
        v[i] /= nrm
    return v


@dataclass(frozen=True)
class VectorState:
    """Unit vector with the reduced density on its designated legs."""

    vector: object         # mp.matrix column on the full space
    dims: tuple
    legs: tuple            # the legs whose algebra the state is read on
    density: object        # reduced density on those legs

    @staticmethod
    def make(vec, dims, legs) -> "VectorState":
        rho = reduced_density(vec, dims, legs)
        # a rank-deficient marginal means the vector is not separating
        spectrum(rho, "reduced density on the designated legs",
                 NotSeparatingError)
        return VectorState(vector=vec, dims=tuple(dims), legs=tuple(legs),
                           density=rho)


def exp_factor(flow: FlowGenerator, s):
    """e^{sK} as one dense matrix on the full space, the product of the
    per-leg factors e^{s K_l} read off the spectra."""
    out = None
    for l, sp in enumerate(flow.terms):
        if sp is not None:
            f = embed(sp.fun(lambda lam: exp(s * lam)), (l,), flow.dims)
            out = f if out is None else matmul(out, f)
    if out is None:
        out = eye(math.prod(flow.dims))
    return exp(s * flow.const) * out


def flow_from_legs(dims, leg_generators, const=mpf(0)) -> FlowGenerator:
    """The flow with the given dense Hermitian generator (or None) per leg,
    each decomposed once."""
    terms = tuple(None if k is None else spectrum(k) for k in leg_generators)
    return FlowGenerator(dims=tuple(dims), terms=terms, const=mpf(const))


def weight_total_mass(flow: FlowGenerator, state: VectorState,
                      tol=mpf("1e-20")):
    """(e^{-K} xi, xi): total mass of the weight associated with the flow on
    the commutant of the designated algebra.

    Requires Ad V(t) restricted to the designated algebra to be the modular
    group of the vector state (checked; violation raises)."""
    _flow_matches_state(flow, state.legs, state.density, sign=1, tol=tol)
    em = exp_factor(flow, mpf(-1))
    v = state.vector
    w = matmul(em, v)
    return mp.re(sum(mp.conj(v[i]) * w[i] for i in range(len(v))))


def weight_mass_cocycle_oracle(flow: FlowGenerator, state: VectorState):
    """Independent mass evaluation: analytic continuation at t = -i of
    V(-t) (d phi/d psi0)^{it} paired in xi, with psi0 the vector state on the
    commutant; the continued product is e^{-K} (d phi/d psi0)."""
    dims = state.dims
    comp = _complement(dims, state.legs)
    rho0 = reduced_density(state.vector, dims, comp)
    d0 = spatial_derivative(state.density, rho0, dims, state.legs)
    m = matmul(exp_factor(flow, mpf(-1)), d0.dense())
    v = state.vector
    w = matmul(m, v)
    return mp.re(sum(mp.conj(v[i]) * w[i] for i in range(len(v))))


@dataclass(frozen=True)
class EllipticComparison:
    n_a: object
    n_b: object
    a0_deviation: object
    log_lambda: object       # a1 - a1' for the n = 2 case
    claimed_log_lambda: object
    deviation: object


def compare_log_elliptic(fit_a: AsymptoticFit, fit_b: AsymptoticFit,
                         ratio_limit, dim_rel_tol=0.05) -> EllipticComparison:
    """Consistency of two log-elliptic fits whose trace ratio tends to
    ``ratio_limit``: equal dimensions, equal a0, and (for dimension 2)
    log(ratio_limit) = a1 - a1'."""
    na, nb = fit_a.n_dim, fit_b.n_dim
    ratio_limit = mpf(ratio_limit)
    if na is not None and nb is not None:
        if abs(na - nb) > dim_rel_tol * max(abs(na), abs(nb)):
            if ratio_limit != 0:
                raise InconsistencyError(
                    f"dimensions {mp.nstr(na, 4)} and {mp.nstr(nb, 4)} differ; "
                    "a nonzero trace-ratio limit is impossible")
    log_lambda = fit_a.a1 - fit_b.a1
    claimed = log(ratio_limit) if ratio_limit > 0 else mpf("nan")
    return EllipticComparison(n_a=na, n_b=nb,
                              a0_deviation=abs(fit_a.a0 - fit_b.a0),
                              log_lambda=log_lambda,
                              claimed_log_lambda=claimed,
                              deviation=abs(log_lambda - claimed))


def gamma_trace_bruteforce_mpf(a, statistics, occupancy_cutoff=40):
    """Sum over the occupation box (cutoff 1 for Fermi) in mpf arithmetic:
    mpf powers per mode and a depth-first walk carrying the partial product,
    one multiply per leaf.  Returns the value only; the tail bound is the
    library's."""
    cut = occupancy_cutoff if statistics == "bose" else 1
    lams = a.eigenvalues
    d = len(lams)
    powers = [[lam ** n for n in range(cut + 1)] for lam in lams]

    def walk(mode, partial):
        if mode == d:
            return partial
        acc = mpf(0)
        for p in powers[mode]:
            acc += walk(mode + 1, partial * p)
        return acc

    return walk(0, mpf(1))


def fermi_ratio_scan_mpf(h, t_grid):
    """Rows of sum log(1 + e^{-t l}), sum e^{-t l} and their ratio, every
    term added in mpf arithmetic; no bound check.  log(1 + u) is u when
    mag(u) < -prec and else the log of 1 + u formed at 2 prec bits."""
    rows = []
    for t in t_grid:
        t = mpf(t)
        num = den = 0
        for lam in h.eigenvalues:
            u = exp(-t * lam)
            if mp.mag(u) < -mp.prec:
                num += u
            else:
                num += log(mp.fadd(1, u, prec=2 * mp.prec))
            den += u
        rows.append(RatioRow(t=t, numerator=num, denominator=den,
                             ratio=num / den))
    return rows


def partitions_of(n, largest=None):
    """Partitions of n as non-increasing tuples."""
    if largest is None:
        largest = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, largest), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return out


def make_vev(h: Fraction, c: Fraction):
    """<h| prod_i L_{word[i]} |h> as an exact rational, via commutation."""

    @lru_cache(maxsize=None)
    def vev(word):
        if not word:
            return Fraction(1)
        if word[-1] > 0:
            return Fraction(0)
        if word[-1] == 0:
            return h * vev(word[:-1])
        if word[0] < 0:
            return Fraction(0)
        if word[0] == 0:
            return h * vev(word[1:])
        # somewhere a positive mode sits directly left of a non-positive one
        i = next(k for k in range(len(word) - 1)
                 if word[k] > 0 and word[k + 1] <= 0)
        a, b = word[i], word[i + 1]
        pre, post = word[:i], word[i + 2:]
        total = vev(pre + (b, a) + post) + (a - b) * vev(pre + (a + b,) + post)
        if a + b == 0:
            total += Fraction(a ** 3 - a, 12) * c * vev(pre + post)
        return total

    return vev


def shapovalov_gram(h: Fraction, c: Fraction, level: int):
    """Gram matrix of the basis L_{-l1} ... L_{-lk} |h> at the given level."""
    basis = partitions_of(level)
    vev = make_vev(Fraction(h), Fraction(c))
    gram = []
    for mu in basis:
        bra = tuple(reversed(mu))            # adjoint word, positive modes
        row = []
        for lam in basis:
            ket = tuple(-x for x in lam)
            row.append(vev(bra + ket))
        gram.append(row)
    return gram


def rational_rank(mat):
    """Rank of a matrix of Fractions by exact Gaussian elimination."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][col]
        for i in range(r + 1, rows):
            if m[i][col]:
                f = m[i][col] / inv
                for j in range(col, cols):
                    m[i][j] -= f * m[r][j]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def irreducible_graded_dims(h: Fraction, c: Fraction, max_level: int):
    """dim of the L0 = h + n eigenspace of the irreducible module, n <= max_level,
    as the rank of the Shapovalov form on the level-n Verma space."""
    return [rational_rank(shapovalov_gram(h, c, n)) if n else 1
            for n in range(max_level + 1)]
