"""Heat-trace asymptotics: extraction of the dimension and the spectral
invariants a0, a1, a2, plus the counting and ratio checks they certify.

For a modular family the unshifted trace obeys

    log Tr e^{-2 pi t L0,rho} ~ (pi c/12)(1/t) + (1/2) log(d^2/mu) - (pi c/12) t

as t -> 0+, so an ordinary least-squares fit of t * log Tr against
{1, t, t^2} recovers (a0, a1, a2) = (pi c/12, log(d/sqrt(mu)), -pi c/12).
The neglected terms are of order e^{-2 pi h_gap / t} at the top of the grid,
where h_gap is the smallest nonzero weight coupled by the S matrix; the
default grid below keeps that far beneath the fit tolerances for every
model this package builds (for m = 3 the gap is 1/16, so t must stay well
under 0.02 for clean sixth-digit work).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, log, pi, sqrt, matrix, lu_solve

from .errors import NonEllipticDataError, UndefinedDimensionError, WindowError
from .characters import (CharacterSeries, count_states, evaluate,
                         evaluate_small_t, transform_traces)
from .modular_data import ModularData, mpq

#: t values safely inside the asymptotic regime for every model with a
#: weight gap >= 1/16 (certified by the tail analysis in the module docstring).
DEFAULT_FIT_GRID = ("0.004", "0.006", "0.008", "0.01", "0.012")


def clean_fit_grid(md: "ModularData", points=5, eps=mpf("1e-12")):
    """Fit grid adapted to the model: the top point solves
    e^{-2 pi h_gap / t} = eps with h_gap the smallest nonzero weight, so the
    neglected sector terms stay below eps across the whole grid."""
    gaps = [mpq(sec.h) for sec in md.model.sectors if sec.h != 0]
    if not gaps:
        return tuple(DEFAULT_FIT_GRID)
    tmax = 2 * pi * min(gaps) / log(1 / mpf(eps))
    return tuple(tmax * (1 + 2 * k / (points - 1)) / 3 for k in range(points))


@dataclass(frozen=True)
class AsymptoticFit:
    """Extracted invariants of one log-elliptic trace."""

    n_dim: object        # local dimension estimate from the two smallest t
    a0: object
    a1: object
    a2: object
    residual: object     # max |fit - data| over the grid
    grid: tuple


def sector_log_trace(md: ModularData, all_series, rho, shifted=False):
    """t -> log Tr e^{-2 pi t L0,rho} (and its certified-error companion).

    Uses the S-transform route for t < 1/2 and the direct series otherwise.
    Returns (fn, err_fn).  Both share one evaluation per (t, working
    precision), so a fit that asks for value and error at every grid point
    evaluates each point once.
    """
    idx = md.model.sector_index(rho)
    seen = {}

    def _trace(t):
        t = mpf(t)
        key = (t, mp.prec)
        if key not in seen:
            if t < mpf("0.5"):
                seen[key] = evaluate_small_t(md, all_series, idx, t,
                                             shifted=shifted)
            else:
                seen[key] = evaluate(all_series[idx], t, shifted=shifted)
        return seen[key]

    def fn(t):
        return log(_trace(t).value)

    def err_fn(t):
        tv = _trace(t)
        return tv.error / tv.value

    return fn, err_fn


def fit_invariants(trace_fn, grid, err_fn=None, residual_floor=mpf("1e-8"),
                   a0_floor=mpf("1e-10")) -> AsymptoticFit:
    """Least-squares fit of t * trace_fn(t) to a0 + a1 t + a2 t^2.

    ``trace_fn`` must return log Tr e^{-2 pi t H}.  The fit is rejected when
    the residual exceeds ``max(residual_floor, 10 * err)`` with ``err`` the
    certified evaluation error on the grid, or when a0 degenerates to zero
    (the expansion requires a0 != 0).
    """
    ts = [mpf(t) for t in grid]
    if len(ts) < 4:
        raise ValueError("need at least 4 grid points")
    ys = [t * trace_fn(t) for t in ts]
    beta, fitvals = _least_squares(ts, ys, 3)
    residual = max(abs(fitvals[i] - ys[i]) for i in range(len(ts)))
    err = mpf(0)
    if err_fn is not None:
        err = max(abs(mpf(err_fn(t))) for t in ts)
    threshold = max(mpf(residual_floor), 10 * err)
    if residual > threshold:
        raise NonEllipticDataError(
            f"fit residual {mp.nstr(residual, 6)} exceeds {mp.nstr(threshold, 6)}; "
            "data is not in the asymptotic regime")
    if abs(beta[0]) < a0_floor:
        raise NonEllipticDataError("leading invariant a0 vanishes; "
                                   "input trace is degenerate")
    return AsymptoticFit(n_dim=_local_dimension(trace_fn, ts),
                         a0=beta[0], a1=beta[1], a2=beta[2],
                         residual=residual, grid=tuple(ts))


def _least_squares(xs, ys, k):
    """Least-squares coefficients of ys against the first k of the columns
    1, x, x*x, from the normal equations.  Returns (beta, X * beta)."""
    X = matrix([(mpf(1), x, x * x)[:k] for x in xs])
    beta = lu_solve(X.T * X, X.T * matrix(ys))
    return beta, X * beta


def _local_dimension(trace_fn, ts):
    """Slope of log log Tr against log t across the two smallest grid points."""
    t1, t2 = sorted(ts)[:2]
    l1, l2 = trace_fn(t1), trace_fn(t2)
    if l1 <= 0 or l2 <= 0:
        return None
    return -2 * (log(l2) - log(l1)) / (log(t2) - log(t1))


def dimension_estimate(trace_fn, t):
    """-2 log(log Tr)/log t at the given t.

    This converges to the dimension only logarithmically (the offset is
    -2 log a0 / log t), so small t is needed for tight estimates.
    """
    t = mpf(t)
    if not 0 < t <= mpf("0.05"):
        raise ValueError("t must lie in (0, 0.05]")
    lt = trace_fn(t)
    if lt <= 1:
        raise UndefinedDimensionError(
            f"log Tr = {mp.nstr(lt, 6)} <= 1 at t={mp.nstr(t, 6)}")
    return -2 * log(lt) / log(t)


def kw_ratio(md: ModularData, all_series, rho, sigma, t):
    """Ratio Tr e^{-2 pi t L0,rho} / Tr e^{-2 pi t L0,sigma} of unshifted
    traces; converges to d(rho)/d(sigma) as t -> 0+."""
    i = md.model.sector_index(rho)
    j = md.model.sector_index(sigma)
    num, den = transform_traces(md, all_series, t, shifted=False, rows=(i, j))
    return num.value / den.value


def index_density_derivative(log_trace_t, t, step=None, richardson=True):
    """d/dt [ t log Tr e^{-t L0,rho} ] by central differences.

    ``log_trace_t`` takes the bare (no 2 pi) inverse temperature.  The limit
    t -> 0+ of this derivative is log d(rho) - (1/2) log mu.  One level of
    Richardson extrapolation sharpens the O(step^2) error.
    """
    t = mpf(t)
    h = mpf(step) if step is not None else t / 10

    def g(x):
        return x * log_trace_t(x)

    def central(hh):
        return (g(t + hh) - g(t - hh)) / (2 * hh)

    d1 = central(h)
    if not richardson:
        return d1
    d2 = central(h / 2)
    return (4 * d2 - d1) / 3


def sector_log_trace_bare(md: ModularData, all_series, rho):
    """t -> log Tr e^{-t L0,rho} (no 2 pi), via the transform route."""
    idx = md.model.sector_index(rho)
    two_pi = 2 * pi

    def fn(t):
        return log(evaluate_small_t(md, all_series, idx, mpf(t) / two_pi,
                                     shifted=False).value)
    return fn


# ------------------------------------------------------------ state counting

@dataclass(frozen=True)
class CardyReport:
    slope: object
    intercept: object
    target: object       # 2 pi sqrt(c/6)
    rel_deviation: object
    subexponential: bool
    window: tuple
    samples: int


def cardy_count_check(series: CharacterSeries, lam_lo, lam_hi,
                      samples=60) -> CardyReport:
    """Least-squares slope of log N(lambda) against sqrt(lambda) over the
    window, compared with 2 pi sqrt(c/6).

    The integrity check fits log N against log(lambda) as well; when the
    logarithmic model explains the data better, the growth is flagged as
    sub-exponential (e.g. a_k = O(1) gives N ~ lambda) and the slope value
    is meaningless.
    """
    if lam_hi < 4 * lam_lo:
        raise WindowError("window too small: need lam_hi >= 4 * lam_lo")
    if lam_hi > series.sector.h + series.cutoff:
        raise WindowError(f"cutoff {series.cutoff} does not cover lam_hi={lam_hi}")
    lams = [int(round(lam_lo + i * (lam_hi - lam_lo) / (samples - 1)))
            for i in range(samples)]
    lams = sorted(set(lams))
    counts = [count_states(series, l) for l in lams]
    xs = [sqrt(mpf(l)) for l in lams]
    ys = [log(mpf(cnt)) for cnt in counts]

    def ls2(us):
        beta, fit = _least_squares(us, ys, 2)
        return beta, sum((fit[i] - ys[i]) ** 2 for i in range(len(ys)))

    beta_sqrt, sse_sqrt = ls2(xs)
    beta_log, sse_log = ls2([log(mpf(l)) for l in lams])
    sub = bool(sse_log < sse_sqrt)
    target = 2 * pi * sqrt(mpq(series.c) / 6) if series.c > 0 else mpf(0)
    rel = (beta_sqrt[1] - target) / target if target != 0 else mpf("inf")
    return CardyReport(slope=beta_sqrt[1], intercept=beta_sqrt[0], target=target,
                       rel_deviation=rel, subexponential=sub,
                       window=(lam_lo, lam_hi), samples=len(lams))


# ----------------------------------------------------------- classical Weyl

@dataclass(frozen=True)
class WeylReport:
    manifold: str
    n: int
    volume: float        # fitted a0 of (4 pi t)^{n/2} Tr e^{-t Laplacian}
    a1: float
    analytic_volume: float
    traces: tuple        # (t, Tr) samples


def _circle_trace(length: float, t: float) -> float:
    """Tr e^{-t Laplacian} on a circle: eigenvalues (2 pi k/length)^2 with
    multiplicity 2 for k >= 1, plus the zero mode."""
    w = (2.0 * math.pi / length) ** 2
    kmax = int(math.ceil(math.sqrt(80.0 / (t * w)))) + 1
    return 1.0 + 2.0 * math.fsum(math.exp(-t * w * k * k)
                                 for k in range(1, kmax + 1))


def _torus_trace(length: float, t: float) -> float:
    """Square torus: eigenvalues (2 pi/length)^2 (k1^2 + k2^2), k in Z^2.
    The lattice sum factorizes, so the trace is the circle's squared."""
    return _circle_trace(length, t) ** 2


def weyl_heat_demo(manifold, t_grid) -> WeylReport:
    """Extract the volume from the flat heat trace.

    ``manifold`` is ("circle", L) or ("torus", L).  Fits
    (4 pi t)^{n/2} Tr e^{-t Laplacian} against {1, t, t^2}; the constant term
    is the volume and the linear term vanishes for flat metrics.
    """
    kind, length = manifold
    if kind == "circle":
        n, tracer, vol = 1, _circle_trace, length
    elif kind == "torus":
        n, tracer, vol = 2, _torus_trace, length * length
    else:
        raise ValueError(f"unknown manifold {kind!r}")
    ts = [float(t) for t in t_grid]
    traces = [tracer(length, t) for t in ts]
    ys = [(4.0 * math.pi * t) ** (n / 2.0) * tr for t, tr in zip(ts, traces)]
    # From 40 digits up the float results no longer depend on the precision.
    with mp.workdps(40):
        beta, _ = _least_squares([mpf(t) for t in ts], [mpf(y) for y in ys], 3)
    return WeylReport(manifold=kind, n=n, volume=float(beta[0]), a1=float(beta[1]),
                      analytic_volume=float(vol),
                      traces=tuple(zip(ts, traces)))


# -------------------------------------------------- two-dimensional combine

@dataclass(frozen=True)
class TwoDimSpec:
    """A two-chiral-component theory specified by its coupling matrix Z."""

    Z: tuple                       # nonnegative-integer matrix, Z[0][0] = 1
    left: tuple                    # (ModularData, series tuple)
    right: tuple
    index: object                  # [A : A0] = sum Z_ij d_i+ d_j-
    mu2d: object                   # mu_plus mu_minus / index^2
    c_avg: Fraction


def two_dim_spec(Z, left_md, left_series, right_md, right_series) -> TwoDimSpec:
    Z = tuple(tuple(int(z) for z in row) for row in Z)
    if Z[0][0] != 1:
        raise ValueError("the vacuum coupling Z[0][0] must be 1")
    if any(z < 0 for row in Z for z in row):
        raise ValueError("Z entries must be nonnegative integers")
    dims_l, dims_r = left_md.dims, right_md.dims
    index = mpf(0)
    for i, row in enumerate(Z):
        for j, z in enumerate(row):
            if z:
                index += z * dims_l[i] * dims_r[j]
    if index < 1:
        raise ValueError("[A : A0] must be >= 1")
    mu2d = left_md.mu * right_md.mu / (index * index)
    c_avg = (left_md.model.c + right_md.model.c) / 2
    return TwoDimSpec(Z=Z, left=(left_md, left_series),
                      right=(right_md, right_series),
                      index=index, mu2d=mu2d, c_avg=c_avg)


def two_dim_log_trace(spec: TwoDimSpec):
    """t -> log Tr e^{-2 pi t H} with e^{-tH} the Z-coupled direct sum of
    chiral tensor products.  Summation order is fixed (row-major in Z)."""
    md_l, ser_l = spec.left
    md_r, ser_r = spec.right

    def fn(t):
        t = mpf(t)
        tr_l = [tv.value for tv in transform_traces(md_l, ser_l, t, shifted=False)]
        tr_r = [tv.value for tv in transform_traces(md_r, ser_r, t, shifted=False)]
        acc = mpf(0)
        for i, row in enumerate(spec.Z):
            for j, z in enumerate(row):
                if z:
                    acc += z * tr_l[i] * tr_r[j]
        return log(acc)

    return fn


def combine_2d(spec: TwoDimSpec, grid=DEFAULT_FIT_GRID):
    """Fit of the two-dimensional trace; returns (fit, targets) with
    targets a0 = 2 pi c/12, a1 = -(1/2) log mu2d, a2 = -a0."""
    fit = fit_invariants(two_dim_log_trace(spec), grid)
    a0_t = 2 * pi * mpq(spec.c_avg) / 12
    targets = {"a0": a0_t, "a1": -log(spec.mu2d) / 2, "a2": -a0_t}
    return fit, targets


def trace_csv_rows(trace_fn, grid):
    """(t, t * log Tr) pairs for external plotting of the fitted data."""
    rows = []
    for t in grid:
        t = mpf(t)
        rows.append((t, t * trace_fn(t)))
    return rows


def fit_report(fit: AsymptoticFit, targets: dict, label: str) -> dict:
    """JSON-ready fit report with targets and absolute deviations."""
    got = {"a0": fit.a0, "a1": fit.a1, "a2": fit.a2}
    return {
        "sector": label,
        "a0": fit.a0, "a1": fit.a1, "a2": fit.a2,
        "n_dim": fit.n_dim,
        "targets": dict(targets),
        "abs_dev": {k: abs(got[k] - v) for k, v in targets.items()},
        "residual": fit.residual,
        "grid": list(fit.grid),
    }
