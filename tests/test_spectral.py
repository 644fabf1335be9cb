import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf, fabs, log, pi, sqrt, exp

import cftinv as ci
from cftinv.errors import (InconsistencyError, NonEllipticDataError,
                           UndefinedDimensionError, WindowError)
from cftinv.modular_data import mpq
from oracles import compare_log_elliptic


@pytest.fixture(scope="module")
def fit3(md3_mod, series3_small_mod):
    fits = {}
    for idx in range(3):
        fn, err = ci.sector_log_trace(md3_mod, series3_small_mod, idx)
        fits[idx] = ci.fit_invariants(fn, ci.DEFAULT_FIT_GRID, err_fn=err)
    return fits


@pytest.fixture(scope="module")
def md3_mod():
    with mp.workdps(50):
        m = ci.build_minimal_model(3)
        return ci.modular_matrices(m)


@pytest.fixture(scope="module")
def series3_small_mod(md3_mod):
    with mp.workdps(50):
        return ci.all_character_series(md3_mod.model, 120)


def test_vacuum_fit_targets(fit3):
    fit = fit3[0]
    assert fabs(fit.a0 - pi / 24) < mpf("1e-6")
    assert fabs(fit.a1 + log(mpf(2))) < mpf("1e-4")
    assert fabs(fit.a2 + pi / 24) < mpf("1e-2")
    assert fabs(fit.n_dim - 2) < mpf("0.2")


def test_sigma_fit_a1(fit3, md3_mod):
    idx = md3_mod.model.sector_index("1/16")
    fit = fit3[idx]
    target = log(mpf(2)) / 2 - log(mpf(2))        # (1/2) log(d^2/mu), d^2 = 2
    assert fabs(fit.a1 - target) < mpf("1e-4")
    assert fabs(fit.a1 + mpf("0.34657359")) < mpf("1e-6")


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_fit_battery_all_sectors(m):
    """(a0, a1, a2) against (pi c/12, log(d/sqrt(mu)), -pi c/12), every sector.

    The grid shrinks with the model's weight gap (1/16 for m = 3 down to
    1/56 for m = 6) so the dropped transform terms stay below the stated
    tolerances."""
    model = ci.build_minimal_model(m)
    md = ci.modular_matrices(model)
    series = ci.all_character_series(model, 120)
    grid = ci.spectral.clean_fit_grid(md)
    c = mpq(model.c)
    for idx, sec in enumerate(model.sectors):
        fn, err = ci.sector_log_trace(md, series, idx)
        fit = ci.fit_invariants(fn, grid, err_fn=err)
        assert fabs(fit.a0 - pi * c / 12) < mpf("1e-6")
        assert fabs(fit.a1 - log(md.dims[idx] / sqrt(md.mu))) < mpf("1e-4")
        assert fabs(fit.a2 + pi * c / 12) < mpf("1e-2")
        assert fabs(fit.a2 + fit.a0) < mpf("1e-2")   # modular symmetry


def test_fit_rejects_flat_data():
    with pytest.raises(NonEllipticDataError):
        ci.fit_invariants(lambda t: mpf(0), ci.DEFAULT_FIT_GRID)


def test_clean_fit_grid_solves_gap_equation(md3_mod):
    grid = ci.clean_fit_grid(md3_mod, eps=mpf("1e-12"))
    gap = mpf(1) / 16
    assert fabs(exp(-2 * pi * gap / grid[-1]) - mpf("1e-12")) < mpf("1e-13")
    assert grid[0] < grid[-1]
    m6 = ci.modular_matrices(ci.build_minimal_model(6))
    # smaller weight gap forces a smaller grid
    assert ci.clean_fit_grid(m6)[-1] < grid[-1]


def test_sector_log_trace_error_channel(md3_mod, series3_small_mod):
    fn, err = ci.sector_log_trace(md3_mod, series3_small_mod, 0)
    for t in ("0.01", "0.4", "0.7"):
        e = err(t)
        assert 0 < e < mpf("1e-30")


def test_sector_log_trace_evaluates_each_point_once(md3_mod, series3_small_mod,
                                                    monkeypatch):
    """fn, err_fn and the dimension estimate of a fit share one evaluation
    per grid point: sectors x distinct t character evaluations in all."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return ci.evaluate(*args, **kwargs)

    monkeypatch.setattr(ci.characters, "evaluate", counted)
    monkeypatch.setattr(ci.spectral, "evaluate", counted)
    fn, err = ci.sector_log_trace(md3_mod, series3_small_mod, 0)
    ci.fit_invariants(fn, ci.DEFAULT_FIT_GRID, err_fn=err)
    ci.spectral.trace_csv_rows(fn, ci.DEFAULT_FIT_GRID)
    assert len(calls) == 3 * len(ci.DEFAULT_FIT_GRID)
    calls.clear()
    ci.fit_invariants(fn, ["0.6", "0.7", "0.8", "0.9"], err_fn=err,
                      residual_floor=mpf(1))
    assert len(calls) == 4                       # direct route, one sector


def test_fit_rejects_out_of_regime(md3_mod, series3_small_mod):
    fn, err = ci.sector_log_trace(md3_mod, series3_small_mod, 0)
    with pytest.raises(NonEllipticDataError):
        ci.fit_invariants(fn, ["0.5", "0.65", "0.8", "1.0"], err_fn=err)


def test_fit_needs_four_points(md3_mod, series3_small_mod):
    fn, _ = ci.sector_log_trace(md3_mod, series3_small_mod, 0)
    with pytest.raises(ValueError):
        ci.fit_invariants(fn, ["0.01", "0.02", "0.03"])


def test_dimension_estimate_synthetic():
    # exact by construction when the prefactor is 1
    assert fabs(ci.dimension_estimate(lambda t: 1 / (t * t), "0.01") - 4) < mpf("1e-30")
    assert fabs(ci.dimension_estimate(lambda t: 1 / sqrt(t), "0.01") - 1) < mpf("1e-30")


def test_dimension_estimate_vacuum(md3_mod, series3_small_mod):
    fn, _ = ci.sector_log_trace(md3_mod, series3_small_mod, 0)
    # the estimator converges like -2 log(a0)/log(t): slow; document both ends
    n_coarse = ci.dimension_estimate(fn, "0.001")
    assert fabs(n_coarse - mpf("1.41")) < mpf("0.01")   # far from 2 at t = 1e-3
    n_fine = ci.dimension_estimate(fn, mpf("1e-20"))
    assert fabs(n_fine - 2) < mpf("0.1")                # within 5% of 2
    seq = [ci.dimension_estimate(fn, mpf(10) ** (-k)) for k in (4, 8, 12, 16, 20)]
    assert all(seq[i] < seq[i + 1] for i in range(len(seq) - 1))


def test_dimension_estimate_undefined():
    with pytest.raises(UndefinedDimensionError):
        ci.dimension_estimate(lambda t: mpf("0.5"), "0.01")


def test_kw_ratio_ising(md3_mod, series3_small_mod):
    idx_sigma = md3_mod.model.sector_index("1/16")
    idx_eps = md3_mod.model.sector_index("1/2")
    r = ci.kw_ratio(md3_mod, series3_small_mod, idx_sigma, 0, "0.01")
    assert fabs(r - sqrt(mpf(2))) < mpf("1e-6")
    assert fabs(r - mpf("1.4142136")) < mpf("1e-6")
    r = ci.kw_ratio(md3_mod, series3_small_mod, idx_eps, 0, "0.01")
    assert fabs(r - 1) < mpf("1e-6")
    r = ci.kw_ratio(md3_mod, series3_small_mod, idx_sigma, idx_sigma, "0.01")
    assert r == 1


def test_index_density_derivative(md3_mod, series3_small_mod):
    fn = ci.sector_log_trace_bare(md3_mod, series3_small_mod, 0)
    d = ci.index_density_derivative(fn, "0.02")
    assert fabs(d + log(mpf(2))) < mpf("1e-3")          # log d - log sqrt(mu)
    idx = md3_mod.model.sector_index("1/16")
    fn = ci.sector_log_trace_bare(md3_mod, series3_small_mod, idx)
    d = ci.index_density_derivative(fn, "0.02")
    assert fabs(d + log(mpf(2)) / 2) < mpf("1e-3")
    assert fabs(d + mpf("0.3466")) < mpf("1e-3")


def test_index_density_derivative_trivial():
    # one sector, d = 1, mu = 1: Tr e^{-t L0} = 1, so t log Tr vanishes
    d = ci.index_density_derivative(lambda t: mpf(0), "0.02")
    assert fabs(d) < mpf("1e-6")


def test_compare_log_elliptic(fit3, md3_mod):
    idx = md3_mod.model.sector_index("1/16")
    rep = compare_log_elliptic(fit3[idx], fit3[0], sqrt(mpf(2)))
    assert rep.deviation < mpf("1e-3")                  # log lambda = a1 - a1'
    assert rep.a0_deviation < mpf("1e-6")
    same = compare_log_elliptic(fit3[0], fit3[0], 1)
    assert same.deviation < mpf("1e-30")


def test_compare_log_elliptic_dimension_mismatch():
    fit2 = ci.AsymptoticFit(n_dim=mpf(2), a0=mpf(1), a1=mpf(0), a2=mpf(0),
                            residual=mpf(0), grid=())
    fit4 = ci.AsymptoticFit(n_dim=mpf(4), a0=mpf(1), a1=mpf(0), a2=mpf(0),
                            residual=mpf(0), grid=())
    with pytest.raises(InconsistencyError):
        compare_log_elliptic(fit2, fit4, 1)
    # a zero ratio limit carries no constraint
    compare_log_elliptic(fit2, fit4, 0)


# ------------------------------------------------------------- counting

@pytest.fixture(scope="module")
def vacuum_series_5100():
    with mp.workdps(50):
        model = ci.build_minimal_model(3)
        return ci.character_coeffs(model, model.sectors[0], 5100)


def test_cardy_slope(vacuum_series_5100):
    rep = ci.cardy_count_check(vacuum_series_5100, 1000, 5000)
    assert not rep.subexponential
    assert fabs(rep.rel_deviation) < mpf("0.05")
    assert fabs(rep.target - 2 * pi * sqrt(mpf(1) / 12)) < mpf("1e-40")


def test_cardy_window_stability(vacuum_series_5100):
    a = ci.cardy_count_check(vacuum_series_5100, 500, 2500)
    b = ci.cardy_count_check(vacuum_series_5100, 1000, 5000)
    assert fabs(b.slope - a.slope) / b.slope < mpf("0.02")


def test_cardy_subexponential_control():
    sec = ci.Sector(r=0, s=0, h=Fraction(0), d=mpf(1))
    flat = ci.CharacterSeries(sector=sec, c=Fraction(0), coeffs=(1,) * 5001)
    rep = ci.cardy_count_check(flat, 1000, 5000)
    assert rep.subexponential


def test_cardy_window_too_small(vacuum_series_5100):
    with pytest.raises(WindowError):
        ci.cardy_count_check(vacuum_series_5100, 2000, 5000)
    with pytest.raises(WindowError):
        ci.cardy_count_check(vacuum_series_5100, 2000, 9000)


# ------------------------------------------------------------------ Weyl

def test_weyl_circle_trace_value():
    from cftinv.spectral import _circle_trace
    tr = _circle_trace(2 * math.pi, 0.01)
    assert abs(tr - math.sqrt(math.pi / 0.01)) < 0.01


def test_weyl_circle_volume():
    grid = [0.002 + 0.002 * k for k in range(6)]
    rep = ci.weyl_heat_demo(("circle", 2 * math.pi), grid)
    assert abs(rep.volume - 2 * math.pi) < 1e-3
    assert abs(rep.volume - rep.analytic_volume) / rep.analytic_volume < 1e-3
    assert abs(rep.a1) < 1e-2


def test_weyl_torus_volume():
    grid = [0.002 + 0.002 * k for k in range(6)]
    rep = ci.weyl_heat_demo(("torus", 2 * math.pi), grid)
    assert abs(rep.volume - 4 * math.pi ** 2) < 1e-2
    assert abs(rep.volume - rep.analytic_volume) / rep.analytic_volume < 1e-3


def test_weyl_torus_is_circle_squared():
    from cftinv.spectral import _circle_trace, _torus_trace
    for t in (0.01, 0.05):
        assert abs(_torus_trace(5.0, t) - _circle_trace(5.0, t) ** 2) < 1e-9


# ---------------------------------------------------------------- 2d build

def test_two_dim_diagonal(md3_mod, series3_small_mod):
    z = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    spec = ci.two_dim_spec(z, md3_mod, series3_small_mod, md3_mod,
                           series3_small_mod)
    assert fabs(spec.index - md3_mod.mu) < mpf("1e-30")   # sum d_i^2
    assert fabs(spec.mu2d - 1) < mpf("1e-30")
    fit, targets = ci.combine_2d(spec)
    assert fabs(fit.a0 - pi / 12) < mpf("1e-6")
    assert fabs(fit.a1) < mpf("1e-3")
    assert fabs(fit.a2 + fit.a0) < mpf("1e-2")
    # the two-dimensional leading term is the sum of the chiral ones
    fn, err = ci.sector_log_trace(md3_mod, series3_small_mod, 0)
    chiral = ci.fit_invariants(fn, ci.DEFAULT_FIT_GRID, err_fn=err)
    assert fabs(fit.a0 - 2 * chiral.a0) < mpf("1e-6")


def test_two_dim_vacuum_block_only(md3_mod, series3_small_mod):
    z = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    spec = ci.two_dim_spec(z, md3_mod, series3_small_mod, md3_mod,
                           series3_small_mod)
    assert fabs(spec.index - 1) < mpf("1e-30")
    assert fabs(spec.mu2d - 16) < mpf("1e-30")
    fit, targets = ci.combine_2d(spec)
    assert fabs(fit.a1 + log(mpf(16)) / 2) < mpf("1e-3")
    assert fabs(fit.a2 + fit.a0) < mpf("1e-2")


def test_two_dim_spec_validation(md3_mod, series3_small_mod):
    with pytest.raises(ValueError):
        ci.two_dim_spec([[0, 0, 0]] * 3, md3_mod, series3_small_mod,
                        md3_mod, series3_small_mod)
    with pytest.raises(ValueError):
        ci.two_dim_spec([[1, -1, 0], [0, 0, 0], [0, 0, 0]], md3_mod,
                        series3_small_mod, md3_mod, series3_small_mod)


# ------------------------------------------------------- cross-module ties

def test_euler_characteristic_increment(fit3, md3_mod):
    """a1(sigma) - a1(vacuum) = log d(sigma)."""
    idx = md3_mod.model.sector_index("1/16")
    jump = fit3[idx].a1 - fit3[0].a1
    assert fabs(jump - log(md3_mod.dims[idx])) < mpf("1e-3")


def test_a0_equals_mean_free_energy(fit3):
    fe = ci.free_energy(Fraction(1, 2), 5)
    assert fabs(fit3[0].a0 - fe.f_mean) < mpf("1e-6")


def test_fit_report_shape(fit3):
    rep = ci.fit_report(fit3[0], {"a0": pi / 24, "a1": -log(mpf(2)),
                                  "a2": -pi / 24}, "vacuum")
    assert rep["sector"] == "vacuum"
    assert set(rep["targets"]) == {"a0", "a1", "a2"}
    assert all(rep["abs_dev"][k] >= 0 for k in rep["abs_dev"])
    assert len(rep["grid"]) == 5


def test_transform_users_evaluate_each_dual_once(md3_mod, series3_small_mod,
                                                 md4, series4_small,
                                                 monkeypatch):
    """kw_ratio evaluates the n dual characters once (was 2n) and the
    two-dimensional trace n_l + n_r of them per t (was n_l^2 + n_r^2), with
    values bit-equal to evaluating each sector's transform on its own."""
    t = mpf("0.01")

    def one(md, series, i):
        return ci.evaluate_small_t(md, series, i, t, shifted=False).value

    want_ratio = one(md3_mod, series3_small_mod, 1) / one(md3_mod, series3_small_mod, 0)
    z = [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 2, 0, 0, 1]]
    spec = ci.two_dim_spec(z, md3_mod, series3_small_mod, md4, series4_small)
    acc = mpf(0)
    for i, row in enumerate(z):
        for j, k in enumerate(row):
            if k:
                acc += k * one(md3_mod, series3_small_mod, i) * one(md4, series4_small, j)
    calls = [0]
    real = ci.characters.evaluate

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(ci.characters, "evaluate", counted)
    assert ci.kw_ratio(md3_mod, series3_small_mod, 1, 0, t) == want_ratio
    assert calls[0] == 3
    calls[0] = 0
    assert ci.spectral.two_dim_log_trace(spec)(t) == log(acc)
    assert calls[0] == 3 + 6
