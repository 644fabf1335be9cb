import itertools
import json
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf, fabs, log, exp, pi

import cftinv as ci
from cftinv import fock
from cftinv.cli import main
from cftinv.errors import (EmptySpectrumError, IdentityViolationError,
                           KindMismatchError, ToolkitError)
from cftinv.fock import RatioRow
from oracles import fermi_ratio_scan_mpf, gamma_trace_bruteforce_mpf


def test_gamma_trace_closed_forms():
    assert fabs(ci.gamma_trace(ci.contraction("0.5"), "bose") - 2) < mpf("1e-45")
    v = ci.gamma_trace(ci.contraction("0.5", "0.25"), "bose")
    assert fabs(v - mpf(8) / 3) < mpf("1e-45")
    v = ci.gamma_trace(ci.contraction("0.5", mpf(1) / 3), "fermi")
    assert fabs(v - 2) < mpf("1e-45")


def test_kind_validation():
    with pytest.raises(KindMismatchError):
        ci.contraction(1.0)               # 1 is excluded
    with pytest.raises(KindMismatchError):
        ci.contraction(-0.1)
    with pytest.raises(KindMismatchError):
        ci.positive(0)
    with pytest.raises(KindMismatchError):
        ci.gamma_trace(ci.positive(1, 2), "bose")
    with pytest.raises(ValueError):
        ci.gamma_trace(ci.contraction("0.5"), "maxwell")


def test_bruteforce_fermi_exact():
    bf = ci.gamma_trace_bruteforce(ci.contraction("0.5", mpf(1) / 3), "fermi")
    assert bf.terms == 4                  # 1 + 1/2 + 1/3 + 1/6
    assert fabs(bf.value - 2) < mpf("1e-45")
    assert bf.tail_bound == 0


def test_bruteforce_bose_single_mode():
    bf = ci.gamma_trace_bruteforce(ci.contraction("0.5"), "bose", 60)
    assert fabs(bf.value - 2) < mpf("1e-17")
    assert bf.tail_bound < mpf("1e-17")


def test_bruteforce_empty_spectrum():
    for stats in ("bose", "fermi"):
        bf = ci.gamma_trace_bruteforce(ci.contraction(), stats)
        assert bf.value == 1 and bf.tail_bound == 0


def _exact(x):
    return Fraction(int(x.man)) * Fraction(2) ** int(x.exp)


def _exact_box_sum(a, statistics, cut):
    """The occupation-box sum in exact rationals of the binary eigenvalues."""
    cut = cut if statistics == "bose" else 1
    lams = [_exact(lam) for lam in a.eigenvalues]
    total = Fraction(0)
    for occ in itertools.product(range(cut + 1), repeat=len(lams)):
        term = Fraction(1)
        for lam, n in zip(lams, occ):
            term *= lam ** n
        total += term
    return total


# (eigenvalues, bose cutoff); the zero eigenvalue's powers are [1, 0, 0, ...]
SMALL_CASES = [(("0.5",), 30), (("0.37", "0.8"), 12), (("0.05", "0.61", "0.33"), 6),
               ((0, "0.5", "0.3"), 8), (("0.2", "0.7", "0.45", "0.79"), 4)]


@pytest.mark.parametrize("dps", [30, 50])
@pytest.mark.parametrize("statistics", ["bose", "fermi"])
def test_bruteforce_below_exact_box_sum(dps, statistics):
    """0 <= exact - value <= rounding against the exact rational box sum."""
    with mp.workdps(dps):
        for lams, cut in SMALL_CASES:
            a = ci.contraction(*lams)
            bf = ci.gamma_trace_bruteforce(a, statistics, cut)
            gap = _exact_box_sum(a, statistics, cut) - _exact(bf.value)
            assert 0 <= gap <= _exact(bf.rounding)
            assert bf.rounding < mpf(2) ** (10 - mp.prec)


@pytest.mark.parametrize("dps", [30, 50])
@pytest.mark.parametrize("statistics", ["bose", "fermi"])
def test_bruteforce_matches_mpf_walk(dps, statistics):
    """The fixed-point walk against the mpf walk run 64 bits finer, whose
    own rounding is at most (2 leaves + 2d + 1) 2^-prec of its value."""
    rng = random.Random(dps)
    cutoffs = {1: 120, 2: 40, 3: 14, 4: 8}
    with mp.workdps(dps):
        for d in (1, 2, 3, 4, 4):
            lams = [mpf(rng.uniform(0.05, 0.8)) for _ in range(d)]
            if d == 4:
                lams[rng.randrange(d)] = mpf(0)
            a = ci.contraction(*lams)
            bf = ci.gamma_trace_bruteforce(a, statistics, cutoffs[d])
            with mp.workprec(mp.prec + 64):
                ref = gamma_trace_bruteforce_mpf(a, statistics, cutoffs[d])
                ref_err = (2 * bf.terms + 2 * d + 1) * ref * mpf(2) ** -mp.prec
                gap = ref - bf.value
            assert -ref_err <= gap <= bf.rounding + ref_err


def test_fixed_point_powers_and_walk_are_floored():
    """Each power is floor(lam^n 2^P); the walk total lies below the exact
    box sum by less than (2d - 1) units per leaf."""
    prec = mp.prec + 40
    assert fock._fixed_powers(mpf(0), 4, prec) == [1 << prec, 0, 0, 0, 0]
    for lams, cut in SMALL_CASES:
        a = ci.contraction(*lams)
        rows = [fock._fixed_powers(lam, cut, prec) for lam in a.eigenvalues]
        for lam, row in zip(a.eigenvalues, rows):
            assert row == [_exact(lam) ** n * 2 ** prec // 1
                           for n in range(cut + 1)]
        gap = _exact_box_sum(a, "bose", cut) * 2 ** prec - fock._box_sum(rows, prec)
        assert 0 <= gap < (2 * len(rows) - 1) * (cut + 1) ** len(rows)


def test_bruteforce_zero_eigenvalue():
    with_zero = ci.gamma_trace_bruteforce(ci.contraction(0, "0.5"), "bose", 60)
    alone = ci.gamma_trace_bruteforce(ci.contraction("0.5"), "bose", 60)
    assert with_zero.value == alone.value and with_zero.tail_bound == alone.tail_bound
    assert with_zero.terms == 61 ** 2
    fermi = ci.gamma_trace_bruteforce(ci.contraction(0, 0), "fermi")
    assert fermi.value == 1 and fermi.terms == 4


def test_bruteforce_leaf_count():
    a = ci.contraction("0.1", "0.2", "0.3")
    for cut in (0, 1, 5):
        assert ci.gamma_trace_bruteforce(a, "bose", cut).terms == (cut + 1) ** 3
    assert ci.gamma_trace_bruteforce(a, "fermi", 9).terms == 2 ** 3


def test_bruteforce_negative_cutoff_refused():
    a = ci.contraction("0.5", "0.25")
    for stats in ("bose", "fermi"):
        with pytest.raises(ValueError, match="occupancy_cutoff"):
            ci.gamma_trace_bruteforce(a, stats, -1)


def test_log_form_identity():
    rng = random.Random(11)
    for _ in range(25):
        d = rng.randint(1, 6)
        a = ci.contraction(*[rng.uniform(0, 0.9) for _ in range(d)])
        for stats in ("bose", "fermi"):
            assert fabs(log(ci.gamma_trace(a, stats))
                        - ci.log_gamma_trace(a, stats)) < mpf("1e-42")


def test_det_identity_battery():
    """Closed form vs occupation-number enumeration; the full 100-spectrum
    battery runs in the acceptance suite, a third of it here."""
    rng = random.Random(202)
    cutoffs = {1: 200, 2: 80, 3: 30, 4: 16, 5: 11, 6: 8}
    with mp.workdps(30):
        for _ in range(30):
            d = rng.randint(1, 6)
            a = ci.contraction(*[rng.uniform(0.05, 0.8) for _ in range(d)])
            for stats in ("bose", "fermi"):
                closed = ci.gamma_trace(a, stats)
                bf = ci.gamma_trace_bruteforce(a, stats, cutoffs[d])
                assert fabs(closed - bf.value) <= bf.tail_bound + mpf("1e-25")


def test_monotonicity_in_each_eigenvalue():
    rng = random.Random(7)
    for _ in range(10):
        lams = [rng.uniform(0.1, 0.7) for _ in range(4)]
        base_b = ci.gamma_trace(ci.contraction(*lams), "bose")
        base_f = ci.gamma_trace(ci.contraction(*lams), "fermi")
        for i in range(4):
            bigger = list(lams)
            bigger[i] += 0.05
            assert ci.gamma_trace(ci.contraction(*bigger), "bose") > base_b
            assert ci.gamma_trace(ci.contraction(*bigger), "fermi") > base_f


def test_ratio_scan_linear_spectrum():
    h = ci.positive(*range(1, 5001))
    rows = ci.fermi_ratio_scan(h, ["1", "0.5", "0.1", "0.01"])
    target = ci.linear_spectrum_ratio_limit()
    assert fabs(target - pi * pi / 12) < mpf("1e-45")
    assert fabs(rows[-1].ratio - target) < mpf("0.01")
    for r in rows:
        assert log(mpf(2)) - mpf("1e-9") <= r.ratio <= 1 + mpf("1e-9")


def test_ratio_bounds_random_spectra():
    rng = random.Random(99)
    for _ in range(20):
        d = rng.randint(1, 40)
        h = ci.positive(*[rng.uniform(0.01, 50) for _ in range(d)])
        ci.fermi_ratio_scan(h, ["2", "1", "0.3", "0.05"])  # raises on violation


def test_ratio_single_mode_large_t():
    h = ci.positive(1)
    rows = ci.fermi_ratio_scan(h, ["40"])
    assert fabs(rows[0].ratio - 1) < mpf("1e-9")


def test_ratio_violation_detection():
    # shrink the allowed band until the true ratio falls outside: the scan
    # must flag it rather than return silently
    h = ci.positive(1, 2, 3)
    with pytest.raises(IdentityViolationError):
        ci.fermi_ratio_scan(h, ["40"], slack=mpf("-1e-3"))


def test_ratio_scan_refuses_empty_spectrum():
    def grid():
        raise AssertionError("grid read before the empty spectrum was refused")
        yield

    with pytest.raises(EmptySpectrumError, match="eigenvalue") as info:
        ci.fermi_ratio_scan(ci.positive(), grid())
    assert isinstance(info.value, ToolkitError)
    # an empty contraction stays valid: every Fock trace over it is 1
    empty = ci.contraction()
    for statistics in ("bose", "fermi"):
        assert ci.gamma_trace(empty, statistics) == 1
        assert ci.gamma_trace_bruteforce(empty, statistics).value == 1


def test_ratio_rows_shape():
    h = ci.positive(1, 2)
    rows = ci.fermi_ratio_scan(h, ["1"])
    assert isinstance(rows[0], RatioRow)
    assert fabs(rows[0].numerator
                - (log(1 + exp(mpf(-1))) + log(1 + exp(mpf(-2))))) < mpf("1e-45")
    assert fabs(rows[0].denominator - (exp(mpf(-1)) + exp(mpf(-2)))) < mpf("1e-45")


def _bits(rows):
    return [(r.t._mpf_, r.numerator._mpf_, r.denominator._mpf_, r.ratio._mpf_)
            for r in rows]


def _count_exps(monkeypatch):
    """Record each exp the library scan takes; a skipped term takes none."""
    calls = []
    real = fock.mpf_exp

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(fock, "mpf_exp", counted)
    return calls


RATIO_GRID = ["0.05", "0.3", "1"]


@pytest.mark.parametrize("dps", [30, 50, 100])
@pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
def test_ratio_scan_matches_mpf_oracle(dps, order, monkeypatch):
    with mp.workdps(dps):
        lams = sorted(list(range(1, 601)) + [7, 7, 7, 450, 450, 450])
        if order == "reversed":
            lams.reverse()
        elif order == "shuffled":
            random.Random(dps).shuffle(lams)
        h = ci.positive(*lams)
        exps = _count_exps(monkeypatch)
        rows = ci.fermi_ratio_scan(h, RATIO_GRID)
        assert _bits(rows) == _bits(fermi_ratio_scan_mpf(h, RATIO_GRID))
        if order != "reversed":       # reversed, every term outgrows the sums
            assert len(exps) < len(lams) * len(RATIO_GRID)


@pytest.mark.parametrize("dps", [30, 50, 100])
def test_ratio_scan_bits_at_the_skip_boundaries(dps, monkeypatch):
    """After the first term (l = 1 at t = 1) num and den lie in [1/4, 1/2),
    so half an ulp of den is 2^-(prec+2).  Probes put u = e^-l just either
    side of that, and l just either side of the skip threshold T, in an
    order where each probe follows a sum it could or could not change."""
    with mp.workdps(dps):
        edge = (mp.prec + 2) * log(mpf(2))
        u1 = exp(mpf(-1))
        cut = -mp.make_mpf(fock._skip_cut(log(1 + u1)._mpf_, u1._mpf_, mp.prec))
        eps = mpf(2) ** (10 - mp.prec)
        probes = [centre + d for centre in (edge, cut)
                  for d in (-1, -eps, 0, eps, 1)]
        lams = [1] + probes + probes[::-1] + [mpf(2) ** 2000, mpf(2) ** -1000]
        h = ci.positive(*lams)
        exps = _count_exps(monkeypatch)
        rows = ci.fermi_ratio_scan(h, ["1"])
        assert _bits(rows) == _bits(fermi_ratio_scan_mpf(h, ["1"]))
        # skipped: cut, cut + eps and cut + 1 twice each, and 2^2000
        assert len(exps) == len(lams) - 7
        # u just above half an ulp of den changes den, just below does not
        above = ci.positive(1, edge - eps)
        below = ci.positive(1, edge + eps)
        assert ci.fermi_ratio_scan(above, ["1"])[0].denominator != u1
        assert ci.fermi_ratio_scan(below, ["1"])[0].denominator == u1


@pytest.mark.parametrize("rounding", ["f", "c"])
def test_ratio_scan_skips_nothing_off_nearest(rounding, monkeypatch):
    h = ci.positive(*range(1, 301))
    exps = _count_exps(monkeypatch)
    saved = mp._prec_rounding[1]
    mp._prec_rounding[1] = rounding
    try:
        rows = ci.fermi_ratio_scan(h, ["0.3", "1"])
        oracle = fermi_ratio_scan_mpf(h, ["0.3", "1"])
    finally:
        mp._prec_rounding[1] = saved
    assert _bits(rows) == _bits(oracle)
    assert len(exps) == 2 * 300


@pytest.mark.parametrize("dps", [30, 50])
@pytest.mark.parametrize("size", [1, 5000])
def test_ratio_scan_large_t(dps, size):
    """Once e^{-t l} nears 2^-prec, log(1 + u) must keep its relative
    accuracy: at t = 120 and 50 digits, 1 + u rounded to working precision
    is 1 and the ratio used to read 0."""
    grid = ["100", "120", "300"]
    with mp.workdps(dps):
        h = ci.positive(*range(1, size + 1))
        rows = ci.fermi_ratio_scan(h, grid)
        assert _bits(rows) == _bits(fermi_ratio_scan_mpf(h, grid))
        for r in rows:
            assert fabs(r.ratio - 1) < mpf("1e-9")


def test_fock_command_large_t(capsys):
    assert main(["fock", "--grid", "100:200:2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["t"] for r in rows] == ["100.0", "200.0"]
    for r in rows:
        assert log(mpf(2)) <= mpf(r["ratio"]) <= 1
