"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
per sub-check (run with -s to see them).

Criterion 1 is asserted exactly as stated and its vacuum-sector bounds are
expected to fail: on the grid {0.01..0.05} the m = 3 vacuum trace carries a
neglected transform term of size e^{-2 pi (1/16)/t} (about 3.9e-4 at
t = 0.05, from the weight-1/16 sector the S matrix couples to the vacuum),
which shifts the fitted (a0, a1, a2) by about (1.5e-5, 1.6e-3, 3.7e-2),
one to two orders above the stated bounds.  The same fit on the library's
default grid (top point 0.012, where that term is below 1e-12) reproduces
the targets to 1e-14/1e-13/1e-11 and is printed here as a diagnostic.
The sigma-sector bound and the runtime bound of criterion 1 both hold.
"""

import random
import time
from fractions import Fraction

from mpmath import mp, mpf, fabs, log, pi, sqrt

import cftinv as ci
from cftinv import lab
from cftinv.cli import main
from oracles import max_abs, spatial_cocycle_factorization_residual


class Checks:
    def __init__(self, label):
        self.label = label
        self.rows = []

    def add(self, name, ok, detail=""):
        self.rows.append((name, bool(ok), detail))
        print(f"{'PASS' if ok else 'FAIL'} [{self.label}] {name} {detail}")

    def finish(self):
        bad = [f"{n}: {d}" for n, ok, d in self.rows if not ok]
        assert not bad, f"{self.label}: {len(bad)} sub-check(s) failed: " \
                        + "; ".join(bad)


def _fit_sector(md, series, idx, grid):
    fn, err = ci.sector_log_trace(md, series, idx)
    return ci.fit_invariants(fn, grid, err_fn=err,
                             residual_floor=mpf("1e-3"))


def test_criterion_01_asymptotic_fit_reproduction():
    t0 = time.monotonic()
    ch = Checks("criterion 1")
    model = ci.build_minimal_model(3)
    md = ci.modular_matrices(model)
    series = ci.all_character_series(model, 200)
    grid = ("0.01", "0.02", "0.03", "0.04", "0.05")
    fit = _fit_sector(md, series, 0, grid)
    d0 = fabs(fit.a0 - pi / 24)
    d1 = fabs(fit.a1 + log(mpf(2)))
    d2 = fabs(fit.a2 + pi / 24)
    ch.add("vacuum |a0 - pi/24| <= 1e-6", d0 <= mpf("1e-6"),
           f"measured {mp.nstr(d0, 3)}")
    ch.add("vacuum |a1 + log 2| <= 1e-4", d1 <= mpf("1e-4"),
           f"measured {mp.nstr(d1, 3)}")
    ch.add("vacuum |a2 + pi/24| <= 1e-2", d2 <= mpf("1e-2"),
           f"measured {mp.nstr(d2, 3)}")
    idx_sigma = model.sector_index("1/16")
    fs = _fit_sector(md, series, idx_sigma, grid)
    ds = fabs(fs.a1 + log(mpf(2)) / 2)
    ch.add("sigma |a1 + (1/2) log 2| <= 1e-4", ds <= mpf("1e-4"),
           f"measured {mp.nstr(ds, 3)}")
    # diagnostic: the same pipeline on the default (tail-clean) grid
    fit_clean = _fit_sector(md, series, 0, ci.DEFAULT_FIT_GRID)
    print(f"INFO [criterion 1] default-grid deviations: "
          f"a0 {mp.nstr(fabs(fit_clean.a0 - pi / 24), 3)}, "
          f"a1 {mp.nstr(fabs(fit_clean.a1 + log(mpf(2))), 3)}, "
          f"a2 {mp.nstr(fabs(fit_clean.a2 + pi / 24), 3)}")
    elapsed = time.monotonic() - t0
    ch.add("runtime < 10 s", elapsed < 10, f"{elapsed:.2f} s")
    ch.finish()


def test_criterion_02_transform_certification():
    t0 = time.monotonic()
    ch = Checks("criterion 2")
    grid = ["0.3", "0.45", "0.7", "1", "1.5", "2.2", "3"]
    for m in (3, 4, 5):
        model = ci.build_minimal_model(m)
        md = ci.modular_matrices(model)
        series = ci.all_character_series(model, 2000)
        res = ci.s_transform_residual(md, series, grid)
        ch.add(f"m={m} transform residual <= 1e-20", res <= mpf("1e-20"),
               f"measured {mp.nstr(res, 3)}")
    elapsed = time.monotonic() - t0
    ch.add("runtime < 60 s", elapsed < 60, f"{elapsed:.2f} s")
    ch.finish()


def test_criterion_03_dimension_ratio_limits():
    ch = Checks("criterion 3")
    for m in (3, 4):
        model = ci.build_minimal_model(m)
        md = ci.modular_matrices(model)
        series = ci.all_character_series(model, 120)
        worst = mpf(0)
        n = len(series)
        for i in range(n):
            for j in range(n):
                r = ci.kw_ratio(md, series, i, j, "0.01")
                worst = max(worst, fabs(r - md.dims[i] / md.dims[j]))
        ch.add(f"m={m} all sector pairs ratio at t=0.01 <= 1e-6",
               worst <= mpf("1e-6"), f"worst {mp.nstr(worst, 3)}")
    ch.finish()


def test_criterion_04_counting_slope():
    t0 = time.monotonic()
    ch = Checks("criterion 4")
    model = ci.build_minimal_model(3)
    series = ci.character_coeffs(model, model.sectors[0], 5100)
    rep = ci.cardy_count_check(series, 1000, 5000)
    ch.add("slope within 5% of 2 pi sqrt(c/6)",
           fabs(rep.rel_deviation) <= mpf("0.05"),
           f"slope {mp.nstr(rep.slope, 8)} target {mp.nstr(rep.target, 8)} "
           f"rel {mp.nstr(rep.rel_deviation, 3)}")
    ch.add("counting is exact big-integer arithmetic",
           isinstance(ci.count_states(series, 5000), int)
           and not rep.subexponential, "")
    elapsed = time.monotonic() - t0
    ch.add("runtime < 30 s", elapsed < 30, f"{elapsed:.2f} s")
    ch.finish()


def test_criterion_05_algebra_embedding_exact():
    ch = Checks("criterion 5")
    for n in range(1, 7):
        rep = ci.verify_embedding(n, 50)
        ch.add(f"cover embedding n={n} exact over |i|,|j| <= 50",
               rep.pairs_checked == 101 * 101 and rep.sl2_checked, "")
    bad = 0
    for i in range(-10, 11):
        for j in range(-10, 11):
            for k in range(-10, 11):
                if ci.jacobi_residual(ci.L(i), ci.L(j), ci.L(k)) \
                        != ci.virasoro.ZERO:
                    bad += 1
    ch.add("Jacobi identity exact on [-10, 10]^3", bad == 0,
           f"{21 ** 3} triples")
    ch.finish()


def test_criterion_06_mean_free_energy():
    ch = Checks("criterion 6")
    for c in (Fraction(1, 2), Fraction(7, 10), Fraction(4, 5), Fraction(6, 7)):
        fe = ci.free_energy(c, 9)
        ch.add(f"F_mean = 2 pi c/24 exactly (c={c})",
               fe.f_mean_over_2pi == c / 24, "exact rational")
    for m in (3, 4):
        model = ci.build_minimal_model(m)
        md = ci.modular_matrices(model)
        series = ci.all_character_series(model, 120)
        fit = _fit_sector(md, series, 0, ci.DEFAULT_FIT_GRID)
        fe = ci.free_energy(model.c, 2)
        dev = fabs(fit.a0 - fe.f_mean)
        ch.add(f"m={m} fitted a0 = F_mean within 1e-6", dev <= mpf("1e-6"),
               f"measured {mp.nstr(dev, 3)}")
    ch.finish()


def test_criterion_07_two_component_expansion():
    ch = Checks("criterion 7")
    model = ci.build_minimal_model(3)
    md = ci.modular_matrices(model)
    series = ci.all_character_series(model, 120)
    z = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    spec = ci.two_dim_spec(z, md, series, md, series)
    ch.add("diagonal coupling has total index mu and mu2d = 1",
           fabs(spec.mu2d - 1) < mpf("1e-30"), "")
    fit, targets = ci.combine_2d(spec)
    d0 = fabs(fit.a0 - pi / 12)
    d1 = fabs(fit.a1)
    d2 = fabs(fit.a2 + fit.a0)
    ch.add("a0 = pi/12 within 1e-6", d0 <= mpf("1e-6"), f"measured {mp.nstr(d0, 3)}")
    ch.add("a1 = 0 within 1e-3", d1 <= mpf("1e-3"), f"measured {mp.nstr(d1, 3)}")
    ch.add("a2 = -a0 within 1e-2", d2 <= mpf("1e-2"), f"measured {mp.nstr(d2, 3)}")
    ch.finish()


def test_criterion_08_fock_identities():
    ch = Checks("criterion 8")
    with mp.workdps(30):
        rng = random.Random(88)
        cutoffs = {1: 200, 2: 80, 3: 30, 4: 16, 5: 11, 6: 8}
        worst_excess = mpf("-inf")
        for _ in range(100):
            d = rng.randint(1, 6)
            a = ci.contraction(*[rng.uniform(0.05, 0.8) for _ in range(d)])
            for stats in ("bose", "fermi"):
                closed = ci.gamma_trace(a, stats)
                bf = ci.gamma_trace_bruteforce(a, stats, cutoffs[d])
                worst_excess = max(worst_excess,
                                   fabs(closed - bf.value) - bf.tail_bound)
        ch.add("100 random spectra within reported tail bound, both statistics",
               worst_excess <= mpf("1e-25"),
               f"worst excess {mp.nstr(worst_excess, 3)}")
        violations = 0
        grid = ["2", "1", "0.5", "0.1", "0.02"]
        for _ in range(20):
            d = rng.randint(1, 30)
            h = ci.positive(*[rng.uniform(0.05, 20) for _ in range(d)])
            try:
                ci.fermi_ratio_scan(h, grid)
            except ci.errors.IdentityViolationError:
                violations += 1
        ch.add("two-sided bound [log 2, 1] holds at every scanned t",
               violations == 0, f"{20 * len(grid)} points")
        h = ci.positive(*range(1, 5001))
        ratio = ci.fermi_ratio_scan(h, ["0.01"])[0].ratio
        dev = fabs(ratio - pi * pi / 12)
        ch.add("linear spectrum ratio at t=0.01 within 0.01 of pi^2/12",
               dev <= mpf("0.01"), f"measured {mp.nstr(dev, 4)}")
    ch.finish()


def test_criterion_09_matrix_lab_battery():
    t0 = time.monotonic()
    ch = Checks("criterion 9")
    with mp.workdps(30):
        rng = random.Random(909)
        worst = mpf(0)
        cases = 0
        for d1 in range(1, 5):
            for d2 in range(1, 5):
                for d3 in range(1, 5):
                    triple = ci.FiniteFactorTriple(d1, d2, d3)
                    for _ in range(20):
                        r1 = lab.random_density(d1, rng)
                        r3 = lab.random_density(d3, rng)
                        flow = ci.canonical_flow(triple, r1, r3)
                        out = ci.index_product(triple, r1, r3, flow)
                        worst = max(worst, out.deviation)
                        cases += 1
        ch.add("index product = d2^2 within 1e-8, all leg dims <= 4, 20 seeds",
               worst <= mpf("1e-8"), f"{cases} cases, worst {mp.nstr(worst, 3)}")
        worst = mpf(0)
        for d1 in range(1, 5):
            for d2 in range(1, 5):
                triple = ci.FiniteFactorTriple(d1, d2, d1)
                for _ in range(5):
                    rho = lab.random_density(d1, rng)
                    out = ci.index_product(triple, rho, rho,
                                           ci.canonical_flow(triple, rho, rho))
                    worst = max(worst, fabs(out.mass1 - d2),
                                fabs(out.mass2 - d2))
        ch.add("symmetric split masses = d2 within 1e-8",
               worst <= mpf("1e-8"), f"worst {mp.nstr(worst, 3)}")
        worst = mpf(0)
        for _ in range(100):
            n = rng.randint(2, 6)
            r1 = lab.random_density(n, rng)
            r2 = lab.random_density(n, rng)
            worst = max(worst, fabs(ci.araki_relative_entropy(r1, r2)
                                    - ci.relative_entropy_oracle(r1, r2)))
        ch.add("relative entropy matches density-matrix oracle to 1e-12",
               worst <= mpf("1e-12"), f"100 pairs, worst {mp.nstr(worst, 3)}")
        worst = mpf(0)
        for _ in range(5):
            n = rng.randint(2, 4)
            psi = lab.random_density(n, rng)
            psi0 = lab.random_density(n, rng)
            rho_phi = lab.random_density(2, rng)
            res = ci.connes_cocycle(psi, psi0, mpf("0.7"))
            worst = max(worst,
                        max_abs(res.u - lab.cocycle_direct(psi, psi0,
                                                           mpf("0.7"))),
                        spatial_cocycle_factorization_residual(
                            rho_phi, psi, psi0, (2, n), (0,), mpf("0.6")),
                        lab.cocycle_identity_residual(psi, psi0, mpf("0.4"),
                                                      mpf("0.3")))
        ch.add("cocycle identities to 1e-16", worst <= mpf("1e-16"),
               f"worst {mp.nstr(worst, 3)}")
        worst = mpf(0)
        for dims in ((2, 3, 2), (2, 2, 2), (3, 2, 3), (2, 4, 2)):
            triple = ci.FiniteFactorTriple(*dims)
            rep = ci.entropy_derivative_identity(triple,
                                                 lab.random_density(dims[0], rng))
            worst = max(worst, rep.mass_residual, rep.identity_residual)
        ch.add("derivative identity at the KMS point to 1e-6",
               worst <= mpf("1e-6"), f"worst {mp.nstr(worst, 3)}")
    elapsed = time.monotonic() - t0
    ch.add("runtime < 120 s", elapsed < 120, f"{elapsed:.2f} s")
    ch.finish()


def test_criterion_10_entropy_bridge():
    ch = Checks("criterion 10")
    rep = ci.verify_alpha_quarter(1, mpf("1e-6"))
    ch.add("alpha extraction = 0.25 within 1e-8",
           fabs(rep.alpha - mpf("0.25")) <= mpf("1e-8"),
           f"measured {mp.nstr(fabs(rep.alpha - mpf('0.25')), 3)}")
    p = ci.BlackHoleParams.schwarzschild(2)
    hs = ci.hawking_and_bekenstein(p)
    ok = fabs(hs.entropy - p.area / 4) <= mpf("1e-12") \
        and fabs(hs.c - 3 * p.area / (2 * pi)) <= mpf("1e-12")
    p2 = ci.BlackHoleParams.from_central_charge(hs.c)
    ok = ok and fabs(p2.area - p.area) <= mpf("1e-12")
    ch.add("S = A/4 and c = 3A/(2 pi) round-trip to 1e-12", ok, "")
    mu = mpf(4)
    out = ci.mu_free_energy(mu, 1, 3)
    ch.add("F_mean_mu = -(1/(4 pi)) log mu exact",
           fabs(out.f_mean_mu + log(mu) / (4 * pi)) <= mpf("1e-40"), "")
    a = ci.incremental_free_energy(sqrt(mpf(2)), 1, 1).dF
    b = ci.incremental_free_energy(2, sqrt(mpf(2)), 1).dF
    c = ci.incremental_free_energy(2, 1, 1).dF
    ch.add("dF additivity exact", a + b == c, "bitwise")
    ch.finish()


def test_criterion_11_deterministic_reports(tmp_path, capsys):
    ch = Checks("criterion 11")
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    codes = []
    for p in paths:
        codes.append(main(["verify", "--all", "--seed", "42", "-o", str(p)]))
    capsys.readouterr()
    ch.add("verify --all --seed 42 exits 0 twice", codes == [0, 0], "")
    ch.add("reports byte-identical",
           paths[0].read_bytes() == paths[1].read_bytes(),
           f"{len(paths[0].read_bytes())} bytes")
    ch.finish()
