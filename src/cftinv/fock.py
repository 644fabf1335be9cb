"""Second-quantization trace identities over explicit one-particle spectra.

For a diagonal contraction a with eigenvalues 0 <= lambda_i < 1 the Bose and
Fermi second quantizations satisfy

    Tr Gamma_+(a) = det(1 - a)^{-1} = prod (1 - lambda_i)^{-1},
    Tr Gamma_-(a) = det(1 + a)      = prod (1 + lambda_i),

equivalently log Tr Gamma_{+-}(a) = -+ Tr log(1 -+ a).  (The log form is
stated here in the orientation that reproduces the determinant identity; a
common alternative writes the Bose sign flipped, which does not.)  The brute
force route sums occupation-number multi-indices directly, which is what the
direct-sum definition 1 (+) a (+) (a (x) a) (+) ... means on the symmetric /
antisymmetric subspaces, and reports a rigorous union-bound tail for the
truncated Bose sum.

The brute force runs on fixed-point Python integers in units of 2^-P,
P = prec + 40 bits (the idiom of mpmath's ``exp_basecase``).  Each power
lambda^n is floor(lambda^n 2^P), formed exactly from the mantissa of lambda;
one depth-first walk over the occupation box (cutoff 1 for Fermi) multiplies
one power per mode into a running product and floors it after each step,
and sums every leaf.  No mode is ever summed out by distributivity, since
that would assume the product identity under test.  The walk never rounds
up, so the result lies below the exact box sum by less than
(2d - 1) leaves 2^-P plus the one rounding down of the total to working
precision; ``BruteForceTrace.rounding`` reports that bound.

The Fermi ratio scan adds x = -t l, u = e^x and the numerator term
log(1 + u) into two sums in raw libmp arithmetic at the working precision
p and rounding, in the order of the spectrum.  The term is computed as
mpmath's ``log1p`` does: u itself when mag(u) < -p, where log(1 + u) and u
agree to half an ulp, and otherwise the log of 1 + u formed at 2p bits,
which ``mpf_log`` evaluates without cancellation near 1.  (Rounding 1 + u
to p bits first would keep only the leading p + mag(u) bits of u, and
none at all once u < 2^-p.)  The scan skips the terms that cannot change a
bit.  Write mag(y) = e + bc for a positive y = m 2^e with bc-bit mantissa,
so 2^(mag-1) <= y < 2^mag and the next p-bit number above y is
y + 2^(mag-p).  Under round-to-nearest, y + v rounds to y whenever
0 <= v < 2^(mag-p-1), half that gap.  Let g = min(mag num, mag den),
K = p + 2 - g and T = ceil(1024 K / 1477), an integer.  If the rounded
exponent x is <= -T, then e^x <= 2^(-T log2 e) <= 2^-K, because
1477/1024 < log2 e; mpmath's exp is within a few ulps, far inside the
factor 2 margin, so the computed u < 2^(1-K) = 2^(g-p-1).  The numerator
term is u, or, when mag(u) >= -p, the log of a 2p-bit 1 + v with
v <= u + 2^-2p <= u (1 + 2^(1-p)), and log(1 + v) <= v is computed within a
few ulps; either way it stays inside the same margin.  Hence den + u rounds
to den and num + term to num: the skipped term changes neither sum.  x is
compared with the integer -T by ``mpf_cmp``, which decides on exponents
before it touches mantissas, so no input overflows or builds a large
integer.  Nothing is skipped while a sum is zero (its mag is undefined) or
under any other rounding mode, and the summation order is kept, as in the
stopping rule of :func:`cftinv.characters.evaluate`.

All operators here are spectra: every formula in scope is spectral, so the
diagonal representation loses nothing.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from mpmath import mp, mpf, log, pi
from mpmath.libmp import (fone, from_int, from_man_exp, fzero, mpf_add,
                          mpf_exp, mpf_le, mpf_log, mpf_mul, mpf_neg,
                          round_ceiling, round_floor, round_nearest)

from . import lanes
from .errors import (EmptySpectrumError, IdentityViolationError,
                     KindMismatchError)


@dataclass(frozen=True)
class OneParticleOperator:
    """A self-adjoint operator given by its eigenvalue list.

    kind "contraction": each eigenvalue in [0, 1), as the determinant
    formulas require.  kind "positive": each eigenvalue > 0, for one-particle
    Hamiltonians h entering e^{-th}.
    """

    eigenvalues: tuple
    kind: str

    def __post_init__(self):
        vals = tuple(mpf(v) for v in self.eigenvalues)
        object.__setattr__(self, "eigenvalues", vals)
        if self.kind == "contraction":
            if any(v < 0 or v >= 1 for v in vals):
                raise KindMismatchError("contraction eigenvalues must lie in [0, 1)")
        elif self.kind == "positive":
            if any(v <= 0 for v in vals):
                raise KindMismatchError("positive-operator eigenvalues must be > 0")
        else:
            raise KindMismatchError(f"unknown kind {self.kind!r}")


def contraction(*eigenvalues) -> OneParticleOperator:
    return OneParticleOperator(tuple(eigenvalues), "contraction")


def positive(*eigenvalues) -> OneParticleOperator:
    return OneParticleOperator(tuple(eigenvalues), "positive")


def gamma_trace(a: OneParticleOperator, statistics: str):
    """Closed-form Fock trace: prod (1-l)^{-1} (bose) or prod (1+l) (fermi)."""
    if a.kind != "contraction":
        raise KindMismatchError("gamma_trace needs a contraction")
    acc = mpf(1)
    if statistics == "bose":
        for lam in a.eigenvalues:
            acc /= (1 - lam)
    elif statistics == "fermi":
        for lam in a.eigenvalues:
            acc *= (1 + lam)
    else:
        raise ValueError(f"statistics must be 'bose' or 'fermi', got {statistics!r}")
    return acc


def log_gamma_trace(a: OneParticleOperator, statistics: str):
    """Spectral log form: -sum log(1-l) (bose), +sum log(1+l) (fermi)."""
    if a.kind != "contraction":
        raise KindMismatchError("log_gamma_trace needs a contraction")
    if statistics == "bose":
        return -sum(log(1 - lam) for lam in a.eigenvalues)
    if statistics == "fermi":
        return sum(log(1 + lam) for lam in a.eigenvalues)
    raise ValueError(f"statistics must be 'bose' or 'fermi', got {statistics!r}")


@dataclass(frozen=True)
class BruteForceTrace:
    value: object
    tail_bound: object    # rigorous bound on the truncation (0 for fermi)
    rounding: object      # rigorous bound on (exact box sum) - value >= 0
    terms: int            # leaves of the occupation box


def _fixed_powers(lam, cut: int, prec: int) -> list:
    """floor(lam^n 2^prec) for n = 0..cut, each from the exact power of the
    mantissa of ``lam``, so each is low by less than 2^-prec."""
    _, man, e, _ = lam._mpf_
    row = [1 << prec]
    power = 1
    for n in range(1, cut + 1):
        power *= man
        shift = n * e + prec
        row.append(power << shift if shift >= 0 else power >> -shift)
    return row


def _box_sum(rows, prec: int) -> int:
    """Sum over the box of the floored leaf products, in units of 2^-prec.

    The running product starts at 1, so the first mode's product is exact
    and each leaf floors d - 1 products."""
    inner, last = rows[:-1], rows[-1]
    depth = len(inner)

    def walk(mode, partial):
        if mode == depth:
            return sum([partial * p >> prec for p in last])
        return sum([walk(mode + 1, partial * p >> prec) for p in inner[mode]])

    return walk(0, 1 << prec)


def gamma_trace_bruteforce(a: OneParticleOperator, statistics: str,
                           occupancy_cutoff: int = 40) -> BruteForceTrace:
    """Direct sum over occupation-number multi-indices.

    Bose: all n_i <= occupancy_cutoff, with the union-bound tail

        sum_{exists i with n_i > N} prod l^{n} <=
        sum_i l_i^{N+1}/(1-l_i) * prod_{j != i} (1-l_j)^{-1},

    which is rigorous without assuming the product identity being tested.
    Fermi: n_i in {0, 1}, an exact finite sum (Pauli truncation); tail 0.

    Rounding: with P = prec + 40, each fixed-point power y = floor(x 2^P)/2^P
    of an exact power x <= 1 has 0 <= x - y < 2^-P.  Along a leaf the running
    product p_k of the first k powers is floored after each multiply; with
    X_k the exact product,

        X_{k+1} - p_{k+1} = (X_k - p_k) x + p_k (x - y) + (p_k y - floor(p_k y)),

    every term >= 0 and x, p_k <= 1, so 0 <= X_k - p_k < (2k - 1) 2^-P by
    induction.  The walk total is therefore low by less than
    (2d - 1) leaves 2^-P.  It is rounded down once to working precision, and
    that remainder is known exactly, so ``rounding`` (rounded up) bounds
    exact - value, which is never negative.
    """
    if occupancy_cutoff < 0:
        raise ValueError(f"occupancy_cutoff must be >= 0, got {occupancy_cutoff}")
    if a.kind != "contraction":
        raise KindMismatchError("gamma_trace_bruteforce needs a contraction")
    if statistics not in ("bose", "fermi"):
        raise ValueError(f"statistics must be 'bose' or 'fermi', got {statistics!r}")
    lams = a.eigenvalues
    d = len(lams)
    if d == 0:
        return BruteForceTrace(value=mpf(1), tail_bound=mpf(0),
                               rounding=mpf(0), terms=1)
    cut = occupancy_cutoff if statistics == "bose" else 1
    prec = mp.prec + 40
    total = _box_sum([_fixed_powers(lam, cut, prec) for lam in lams], prec)
    terms = (cut + 1) ** d
    value = mp.make_mpf(from_man_exp(total, -prec, mp.prec, round_floor))
    _, man, e, _ = value._mpf_           # value >= 1, so e + prec > 0
    slack = (2 * d - 1) * terms + total - (man << (e + prec))
    rounding = mp.make_mpf(from_man_exp(slack, -prec, mp.prec, round_ceiling))
    tail = mpf(0)
    if statistics == "bose":
        for i, lam in enumerate(lams):
            if lam == 0:
                continue
            piece = lam ** (cut + 1) / (1 - lam)
            for j, other in enumerate(lams):
                if j != i:
                    piece /= (1 - other)
            tail += piece
    return BruteForceTrace(value=value, tail_bound=tail, rounding=rounding,
                           terms=terms)


@dataclass(frozen=True)
class RatioRow:
    t: object
    numerator: object      # sum log(1 + e^{-t l})
    denominator: object    # sum e^{-t l}
    ratio: object


def _skip_cut(num, den, prec: int):
    """The raw mpf -T of the skip rule for the current sums, or None while
    either sum is zero: a term whose exponent x = -t l is <= -T changes
    neither ``num`` nor ``den`` under round-to-nearest (module docstring)."""
    if not num[1] or not den[1]:
        return None
    k = prec + 2 - min(num[2] + num[3], den[2] + den[3])
    return from_int(-max(1, -(-1024 * k // 1477)))


def fermi_ratio_scan(h: OneParticleOperator, t_grid, slack=mpf("1e-9")):
    """log Tr e^{-t Gamma_-(h)} / Tr e^{-t h} over a t grid.

    The numerator is sum_i log(1 + e^{-t l_i}), the Fermi second-quantized
    log trace; the pointwise bounds log 2 <= ratio <= 1 follow from
    log(2) u <= log(1 + u) <= u on (0, 1], and any violation beyond ``slack``
    raises :class:`IdentityViolationError`.  An empty spectrum raises
    :class:`EmptySpectrumError` before any grid point is read.

    Each term is x = -t l, u = e^x and the numerator term log(1 + u), taken
    as u when mag(u) < -prec and else as the log of 1 + u formed at
    2 prec bits, so it keeps its relative accuracy at any t.  Terms are
    added in the order of ``h.eigenvalues`` in raw libmp arithmetic at the
    working precision and rounding.  Under round-to-nearest a term with
    x <= -T is skipped, where T = ceil(1024 K / 1477) and
    K = prec + 2 - min(mag num, mag den): then u < 2^-K (1477/1024 < log2 e)
    and the numerator term are below half an ulp of num and den, so the
    term changes no bit (argument in the module docstring).  Under any other
    rounding, or while a sum is zero, every term is added.
    """
    if h.kind != "positive":
        raise KindMismatchError("fermi_ratio_scan needs a positive operator")
    if not h.eigenvalues:
        raise EmptySpectrumError(
            "fermi_ratio_scan needs at least one eigenvalue: the ratio of two "
            "sums over an empty spectrum is 0/0")
    prec, rnd = mp._prec_rounding
    nearest = rnd == round_nearest
    lams = [lam._mpf_ for lam in h.eigenvalues]
    rows = []
    lo, hi = log(mpf(2)) - slack, 1 + slack
    for t in t_grid:
        t = mpf(t)
        if t <= 0:
            raise ValueError("t must be positive")
        neg_t = mpf_neg(t._mpf_, prec, rnd)
        num = den = fzero
        cut = None
        for lam in lams:
            x = mpf_mul(neg_t, lam, prec, rnd)
            if cut and mpf_le(x, cut):
                continue
            u = mpf_exp(x, prec, rnd)
            if u[2] + u[3] < -prec:
                term = u
            else:
                term = mpf_log(mpf_add(u, fone, 2 * prec, rnd), prec, rnd)
            num = mpf_add(num, term, prec, rnd)
            den = mpf_add(den, u, prec, rnd)
            if nearest:
                cut = _skip_cut(num, den, prec)
        num, den = mp.make_mpf(num), mp.make_mpf(den)
        ratio = num / den
        if not lo <= ratio <= hi:
            raise IdentityViolationError(
                f"ratio {mp.nstr(ratio, 12)} leaves [log 2, 1] at t={mp.nstr(t, 8)}",
                deviation=ratio)
        rows.append(RatioRow(t=t, numerator=num, denominator=den, ratio=ratio))
    return rows


def fermi_ratio_scan_lanes(h: OneParticleOperator, t_grid):
    """The rows of :func:`fermi_ratio_scan` over ``t_grid``, bit for bit,
    with the grid points split between two lanes (:mod:`cftinv.lanes`).

    Each point's sums start afresh, so ``fermi_ratio_scan(h, [t])`` gives
    that point's row.  The points go to the lanes longest first, by an
    estimate of the terms the scan cannot skip at t: the eigenvalues with
    t l at most prec log 2, where e^{-t l} is still above 2^-prec.  The
    split depends only on h, the grid and the precision.  A grid of fewer
    than two points runs in the caller.  The first point that raises, in
    grid order, raises its exception, as in one scan."""
    points = list(t_grid)
    if len(points) < 2:
        return fermi_ratio_scan(h, points)
    outcome = lanes.run(
        [lambda rows, t=t: rows.extend(fermi_ratio_scan(h, [t]))
         for t in points],
        _child_points(h, points))
    rows = []
    for i in range(len(points)):
        part, exc = outcome(i)
        if exc is not None:
            raise exc
        rows += part
    return rows


def _child_points(h: OneParticleOperator, points):
    """Indices of the points the child lane scans: longest first, each to
    the lane with less estimated work so far, the child on a tie."""
    lams = sorted(float(lam) for lam in h.eigenvalues)
    reach = mp.prec * math.log(2)

    def cost(t):
        t = float(mpf(t))
        return bisect.bisect_right(lams, reach / t if t > 0 else math.inf)

    costs = [cost(t) for t in points]
    child, child_load, caller_load = set(), 0, 0
    for i in sorted(range(len(points)), key=lambda i: -costs[i]):
        if child_load <= caller_load:
            child.add(i)
            child_load += costs[i]
        else:
            caller_load += costs[i]
    return child


def linear_spectrum_ratio_limit():
    """pi^2/12, the small-t ratio for the linear spectrum h = (1, 2, 3, ...):
    integral of log(1+e^{-x}) over [0, inf) against integral of e^{-x}."""
    return pi * pi / 12
