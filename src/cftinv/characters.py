"""Exact q-series of minimal-model characters and their high-precision
evaluation on the imaginary axis.

The level-k multiplicity of L0 - h in the irreducible (r, s) module is the
coefficient of q^k in

    (1/phi(q)) * sum_{j in Z} ( q^{m(m+1)j^2 + (r(m+1)-sm) j}
                              - q^{m(m+1)j^2 + (r(m+1)+sm) j + rs} ),

an alternating sum of quadratic-exponent terms against the Euler product
phi(q) = prod (1-q^n).  Coefficients are exact big integers; a brute-force
Verma oracle in the test suite anchors them at low level.

The build keeps its inner loops out of Python bytecode.  Euler's recurrence
p(k) = sum_g (+-) p(k - g) over the generalised pentagonal numbers g runs in
blocks [K, K + B) with B = isqrt(n) + 1.  An offset g with B <= g <= K reads
p(k - g) with 0 <= k - g < K for every k of the block, values that are
already final, so the contribution of all such offsets to the whole block is
one column sum over the slices p[K - g : K - g + B], the minus-sign slices
summed apart and subtracted.  Only the offsets below B, and the few in
(K, K + B), which apply only from k = g on, stay in the per-k loop.
A character's a_k = sum_+ p(k - e) - sum_- p(k - e) over the theta
exponents e is likewise one column sum over the lazily shifted views
0^e p(0..cutoff-e), so no term builds a list of its own.

Evaluation of Tr e^{-2 pi t (L0 - c/24)} truncates the series at its
nominal cutoff and reports a certified tail bound alongside the value, using
p(k) <= exp(pi sqrt(2k/3)).  The sum itself stops earlier, after the first
K terms, where K is the smallest n whose tail bound past index n - 1 is below
2^-(prec+3).  A character series has a_0 = 1 and 0 <= a_k <= p(k): a_k is
the dimension of an L0-eigenspace, so its nonnegativity is a theorem, not a
property of the stored numbers.  The running sum is therefore >= 1 and every
dropped term lies below half an ulp of it: under round-to-nearest adding it
changes no bit.  The truncated sum equals the sum to the nominal cutoff, and
the reported error, still computed from that cutoff, is unchanged too.  So
a series from :func:`all_character_series` builds on demand only the prefix
a_0..a_{K-1} an evaluation reads, keeping the longest prefix built so far;
the full series to the nominal cutoff is built only when ``coeffs`` is read.

For small t the direct sum converges too slowly, so the S-matrix turns
chi(it) into sum_nu S_{rho nu} chi_nu(i/t), which converges fast: at 50
digits and 1/t >= 20 only a_0 counts.  The residual of that identity over a
t grid is the certification that the S matrix of :mod:`cftinv.modular_data`
is the one acting on characters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, islice, repeat
from math import isqrt
from operator import sub

from mpmath import mp, mpf, exp, pi, sqrt

from .errors import InsufficientCutoffError
from .modular_data import MinimalModel, ModularData, Sector, mpq


def _column_sums(rows, width: int):
    """Iterator over the ``width`` column sums of the equal-length iterables
    ``rows``, zeros when there are none; the sums run in C."""
    return map(sum, zip(repeat(0, width), *rows))


def _pentagonal_offsets(n: int) -> list:
    """(g, sign) for the generalised pentagonal numbers 1 <= g <= n in
    increasing order, with sign (-1)^(j+1) for g = j(3j -+ 1)/2."""
    offsets = []
    j = 1
    while j * (3 * j - 1) // 2 <= n:
        sign = 1 if j % 2 else -1
        offsets.append((j * (3 * j - 1) // 2, sign))
        if j * (3 * j + 1) // 2 <= n:
            offsets.append((j * (3 * j + 1) // 2, sign))
        j += 1
    return offsets


def partition_numbers(n: int) -> list:
    """p(0..n) by Euler's pentagonal-number recurrence, exact integers.

    The recurrence runs in blocks of ``isqrt(n) + 1`` indices; see the module
    docstring for why the far offsets of a block are one column sum.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    offsets = _pentagonal_offsets(n)
    width = isqrt(n) + 1
    p = [1]
    for lo in range(1, n + 1, width):
        hi = min(lo + width, n + 1)
        far = [(g, sgn) for g, sgn in offsets if width <= g <= lo]
        near = [(g, sgn) for g, sgn in offsets
                if g < width or lo < g < hi]
        plus = [p[lo - g:hi - g] for g, sgn in far if sgn > 0]
        minus = [p[lo - g:hi - g] for g, sgn in far if sgn < 0]
        for k, total in zip(range(lo, hi), map(
                sub, _column_sums(plus, hi - lo), _column_sums(minus, hi - lo))):
            for g, sgn in near:
                if g > k:
                    break
                if sgn > 0:
                    total += p[k - g]
                else:
                    total -= p[k - g]
            p.append(total)
    return p


class CharacterSeries:
    """a_k = dim of the L0-eigenspace h+k in one irreducible sector, for
    k = 0..cutoff.

    A series from :func:`all_character_series` holds its model and nominal
    cutoff and builds coefficients only when they are read: ``coeffs``
    builds all of them on first read, ``_prefix(k)`` only a_0..a_{k-1}.
    The series of one call share the list ``partitions``, which holds the
    longest table p(0..n) any of them has needed.  A hand-built
    ``CharacterSeries(sector=, c=, coeffs=)`` holds the given coefficients,
    and its cutoff is ``len(coeffs) - 1``.
    """

    def __init__(self, sector: Sector, c: Fraction, coeffs=None, *,
                 model: MinimalModel = None, cutoff: int = None,
                 partitions: list = None):
        self.sector = sector
        self.c = c
        self._model = model
        self._partitions = [] if partitions is None else partitions
        if coeffs is None:
            self._built = ()            # the longest prefix built so far
            self.cutoff = cutoff
        else:
            self._built = tuple(coeffs)
            self.cutoff = len(self._built) - 1

    def __eq__(self, other):
        if not isinstance(other, CharacterSeries):
            return NotImplemented
        return ((self.sector, self.c, self.coeffs)
                == (other.sector, other.c, other.coeffs))

    def __repr__(self):
        return (f"CharacterSeries(sector={self.sector!r}, c={self.c!r}, "
                f"cutoff={self.cutoff})")

    @property
    def coeffs(self) -> tuple:
        """a_0..a_cutoff, built in full on first read."""
        return self._prefix(self.cutoff + 1)

    def _prefix(self, k: int) -> tuple:
        """a_0..a_{min(k, cutoff + 1) - 1}, building no coefficient past
        them; a longer prefix built earlier is sliced instead."""
        k = min(k, self.cutoff + 1)
        if len(self._built) < k:
            p = self._partitions
            if len(p) < k:
                p[:] = partition_numbers(k - 1)
            self._built = character_coeffs(self._model, self.sector,
                                           k - 1, p).coeffs
        return self._built[:k]

    @cached_property
    def _sums_from_one(self) -> bool:
        """a_0 >= 1 and no negative coefficient: every partial sum is >= 1.

        A series the build makes has a_0 = 1 and a_k >= 0 by theorem, since
        a_k is the dimension of an eigenspace, so only a hand-built series
        is checked, over all its coefficients."""
        if self._model is not None:
            return True
        return self.coeffs[0] >= 1 and min(self.coeffs) >= 0


def _theta_terms(m: int, r: int, s: int, n: int):
    """(exponent, sign) pairs of the alternating numerator up to level n."""
    lam = r * (m + 1) - s * m
    mu = r * (m + 1) + s * m
    terms = []
    kmax = int((n / (m * (m + 1))) ** 0.5) + 2
    for k in range(-kmax, kmax + 1):
        e = m * (m + 1) * k * k + lam * k
        if 0 <= e <= n:
            terms.append((e, 1))
        e = m * (m + 1) * k * k + mu * k + r * s
        if 0 <= e <= n:
            terms.append((e, -1))
    return terms


def character_coeffs(model: MinimalModel, sector: Sector, cutoff: int,
                     partitions=None) -> CharacterSeries:
    """Exact coefficients a_0..a_cutoff of one sector character."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    p = partitions if partitions is not None else partition_numbers(cutoff)
    if len(p) <= cutoff:
        raise ValueError("partitions must hold p(0..cutoff)")
    plus, minus = [], []
    for e, sgn in _theta_terms(model.m, sector.r, sector.s, cutoff):
        shifted = chain(repeat(0, e), islice(p, cutoff + 1 - e))
        (plus if sgn > 0 else minus).append(shifted)
    a = list(map(sub, _column_sums(plus, cutoff + 1),
                 _column_sums(minus, cutoff + 1)))
    assert a[0] == 1, "lowest-weight space must be one dimensional"
    return CharacterSeries(sector=sector, c=model.c, coeffs=tuple(a))


def all_character_series(model: MinimalModel, cutoff: int) -> tuple:
    """Every sector's series to the nominal ``cutoff``, in sector order; no
    coefficient is built until it is read."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    p = []
    return tuple(CharacterSeries(sector=sec, c=model.c, model=model,
                                 cutoff=cutoff, partitions=p)
                 for sec in model.sectors)


# ---------------------------------------------------------------- evaluation

@lru_cache(maxsize=256)
def _geometric_tail(cutoff: int, t, prec: int):
    """(r ** (cutoff + 1), 1 - r) for the ratio r of :func:`_tail_bound`, or
    None when r >= 1.  They depend on neither sector nor shift, so they are
    cached per (cutoff, t, prec) as the S transform evaluates every sector
    at one t."""
    n1 = cutoff + 1
    rate = pi * sqrt(mpf(2) / 3) / sqrt(n1) - 2 * pi * t
    if rate >= 0:
        return None
    r = exp(rate)
    return r ** n1, 1 - r


def _tail_bound(cutoff: int, t, h, c, shifted: bool):
    """Rigorous bound on sum_{k > cutoff} a_k e^{-2 pi t (h + k [- c/24])}.

    Uses p(k) <= e^{pi sqrt(2k/3)} and sqrt(k) <= k/sqrt(N+1) for k >= N+1,
    so the tail is dominated by a geometric series with ratio
    r = exp(pi sqrt(2/3)/sqrt(N+1) - 2 pi t).  Returns an mpf bound, or None
    when the ratio is not < 1 (cutoff too small to certify anything).
    """
    geometric = _geometric_tail(cutoff, t, mp.prec)
    if geometric is None:
        return None
    r_n1, one_minus_r = geometric
    front = exp(-2 * pi * t * (h - (c if shifted else 0)))
    return front * r_n1 / one_minus_r


def required_cutoff(t, tol, h=0, c=None, shifted=True) -> int:
    """Smallest cutoff whose certified tail is below tol for a sector of
    weight h, with c the c/24 shift that :func:`evaluate` uses.  The default
    c = 1/24 (central charge 1) serves every sector of every minimal model,
    whose h >= 0 and c < 1.

    The bound is None (no certificate) up to some cutoff and strictly
    decreasing after it, so a doubling search followed by bisection finds
    the cutoff.  Refuses when none below 10^9 suffices.
    """
    t, h = mpf(t), mpf(h)
    c = mpf(1) / 24 if c is None else mpf(c)

    def enough(n):
        b = _tail_bound(n, t, h, c, shifted)
        return b is not None and b < tol

    lo, hi = -1, 0
    while not enough(hi):
        lo, hi = hi, max(1, 2 * hi)
        if hi >= 10 ** 9:
            raise InsufficientCutoffError(
                f"no practical cutoff certifies tol={tol} at t={t}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if enough(mid):
            hi = mid
        else:
            lo = mid
    return hi


@lru_cache(maxsize=256)
def _terms_that_count(t, prec: int) -> int:
    """Smallest n with _tail_bound(n - 1, t, 0, 0, unshifted) < 2^-(prec+3).

    Past index n - 1 the tail sum_k p(k) q^k is below an eighth of half an
    ulp of any number >= 1 at ``prec`` bits.  Cached because the S transform
    evaluates every sector at the same t.
    """
    return required_cutoff(t, mpf(2) ** -(prec + 3), 0, 0, False) + 1


@dataclass(frozen=True)
class TraceValue:
    """An evaluated trace together with its certified absolute error."""

    value: object
    error: object


def evaluate(series: CharacterSeries, t, shifted: bool = True,
             tol=None) -> TraceValue:
    """chi(it) = sum_k a_k e^{-2 pi t (h + k - c/24)} for t > 0.

    ``shifted=False`` drops the c/24 shift and returns Tr e^{-2 pi t L0}.
    Raises :class:`InsufficientCutoffError` when the certified tail bound at
    the nominal cutoff exceeds ``tol`` (default: 10^(6-dps) of the value
    scale).

    The sum reads only the first ``_terms_that_count(t, mp.prec)``
    coefficients, building no others: with a_0 >= 1 and 0 <= a_k <= p(k)
    each later term is below half an ulp of the running sum and would not
    change it, so value and error are bit for bit those of the sum over
    every coefficient to the cutoff.  A hand-built series with a_0 < 1 or a
    negative coefficient is summed in full.
    """
    t = mpf(t)
    if t <= 0:
        raise ValueError("t must be positive")
    h = mpq(series.sector.h)
    c24 = mpq(series.c) / 24
    tail = _tail_bound(series.cutoff, t, h, c24, shifted)
    q = exp(-2 * pi * t)
    acc = mpf(0)
    qp = mpf(1)
    n = (_terms_that_count(t, mp.prec) if series._sums_from_one
         else series.cutoff + 1)
    for a in series._prefix(n):
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


def evaluate_small_t(md: ModularData, all_series, rho, t,
                     shifted: bool = True) -> TraceValue:
    """chi_rho(it) for 0 < t <= 1 through the S transform:
    chi_rho(it) = sum_nu S_{rho nu} chi_nu(i/t), whose right side converges
    rapidly because 1/t is large.  ``shifted=False`` multiplies by
    e^{-2 pi t c/24} to give Tr e^{-2 pi t L0,rho}."""
    idx = md.model.sector_index(rho)
    return transform_traces(md, all_series, t, shifted, rows=(idx,))[0]


def transform_traces(md: ModularData, all_series, t, shifted: bool = True,
                     rows=None) -> list:
    """chi_rho(it) through the S transform for the sector indices ``rows``,
    in that order, or for every sector when ``rows`` is None.  The dual
    characters chi_nu(i/t) are evaluated once and shared by every row's
    sum; each value and error is the one :func:`evaluate_small_t` returns
    for that sector.  Each row costs n products, so a caller that needs
    one sector asks for that row alone."""
    t = mpf(t)
    if not 0 < t <= 1:
        raise ValueError("the transform route needs 0 < t <= 1")
    duals = [evaluate(series, 1 / t, shifted=True) for series in all_series]
    f = None if shifted else exp(-2 * pi * t * mpq(md.model.c) / 24)
    out = []
    for idx in range(len(duals)) if rows is None else rows:
        acc = mpf(0)
        err = mpf(0)
        for nu, tv in enumerate(duals):
            acc += md.S[idx, nu] * tv.value
            err += abs(md.S[idx, nu]) * tv.error
        if f is not None:
            acc, err = f * acc, f * err
        out.append(TraceValue(value=acc, error=err))
    return out


def s_transform_residual(md: ModularData, all_series, t_grid):
    """max over sectors and grid of |chi_rho(i/t) - sum_nu S_{rho nu} chi_nu(it)|.

    This is the numerical certification that the S matrix built from the
    Kac-table formula is the one acting on the character span.
    """
    if not t_grid:
        raise ValueError("grid must be nonempty")
    worst = mpf(0)
    n = len(all_series)
    for t in t_grid:
        t = mpf(t)
        at_inv = [evaluate(s, 1 / t, shifted=True).value for s in all_series]
        at_t = [evaluate(s, t, shifted=True).value for s in all_series]
        for i in range(n):
            rhs = sum(md.S[i, j] * at_t[j] for j in range(n))
            worst = max(worst, abs(at_inv[i] - rhs))
    return worst


def count_states(series: CharacterSeries, lam) -> int:
    """N(lam) = number of L0 eigenvalues (with multiplicity) <= lam."""
    h = series.sector.h
    lam = Fraction(lam) if not isinstance(lam, float) else lam
    if lam > h + series.cutoff:
        raise InsufficientCutoffError(
            f"counting up to {lam} needs cutoff > {lam - h}",
            required_cutoff=int(lam - h) + 1)
    total = 0
    for k, a in enumerate(series.coeffs):
        if h + k > lam:
            break
        total += a
    return total


def values_csv_rows(series_list, md, t_grid, shifted=False):
    """(sector, t, value, certified_error) rows for CSV emission.  Below
    t = 1 every sector's value comes from one :func:`transform_traces` call
    per t."""
    small = {}
    rows = []
    for i, series in enumerate(series_list):
        for k, t in enumerate(t_grid):
            t = mpf(t)
            if t < 1:
                if k not in small:
                    small[k] = transform_traces(md, series_list, t, shifted)
                tv = small[k][i]
            else:
                tv = evaluate(series, t, shifted=shifted)
            rows.append((series.sector.name, t, tv.value, tv.error))
    return rows


def coeff_dump(series: CharacterSeries) -> str:
    """Newline-delimited decimal strings of the exact coefficients."""
    return "\n".join(str(a) for a in series.coeffs) + "\n"
