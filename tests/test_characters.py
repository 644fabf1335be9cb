from fractions import Fraction

import pytest
from mpmath import mp, mpf, fabs, log, pi

import cftinv as ci
from cftinv import characters
from cftinv.errors import InsufficientCutoffError
from cftinv.modular_data import mpq
from oracles import (character_coeffs_loop, evaluate_full_sum,
                     irreducible_graded_dims, partition_numbers_loop,
                     tail_bound_direct)


def test_partition_numbers():
    p = ci.partition_numbers(10)
    assert p == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partition_numbers_match_loop():
    """The blocked column-sum recurrence gives the loop's integers for every
    n up to 600 (blocks with no far offset, partly full last blocks) and at
    n = 5000."""
    want = partition_numbers_loop(600)
    for n in range(601):
        assert ci.partition_numbers(n) == want[:n + 1], n
    assert ci.partition_numbers(5000) == partition_numbers_loop(5000)


def test_partition_numbers_negative_n():
    with pytest.raises(ValueError, match="n must be >= 0"):
        ci.partition_numbers(-1)


@pytest.mark.parametrize("m", range(3, 9))
def test_character_coeffs_match_loop(m):
    model = ci.build_minimal_model(m)
    p = partition_numbers_loop(2000)
    for sec in model.sectors:
        for cutoff in (0, 1, 2, 5, 7, 100, 2000):
            got = ci.character_coeffs(model, sec, cutoff)
            assert got == character_coeffs_loop(model, sec, cutoff, p), \
                (m, sec.r, sec.s, cutoff)


def test_character_coeffs_partitions_argument(model4):
    """A partitions= list longer than cutoff + 1 gives the same series; one
    too short is refused."""
    p = ci.partition_numbers(300)
    for sec in model4.sectors:
        want = character_coeffs_loop(model4, sec, 120)
        assert ci.character_coeffs(model4, sec, 120, p) == want
        assert ci.character_coeffs(model4, sec, 120) == want
    with pytest.raises(ValueError, match="p\\(0..cutoff\\)"):
        ci.character_coeffs(model4, model4.sectors[0], 120, p[:120])


def test_ising_vacuum_low_levels(model3):
    s = ci.character_coeffs(model3, model3.sectors[0], 6)
    assert s.coeffs == (1, 0, 1, 1, 2, 2, 3)


def test_level_zero_only(model3, model4):
    for model in (model3, model4):
        for sec in model.sectors:
            s = ci.character_coeffs(model, sec, 0)
            assert s.coeffs == (1,)


def test_ising_sigma_level1(model3):
    sec = model3.sectors[model3.sector_index("1/16")]
    s = ci.character_coeffs(model3, sec, 4)
    assert s.coeffs[1] == 1


@pytest.mark.parametrize("m", [3, 4])
def test_brute_force_verma_oracle(m, model3, model4):
    """Graded dimensions from the exact Shapovalov rank, levels 0..8."""
    model = {3: model3, 4: model4}[m]
    for sec in model.sectors:
        series = ci.character_coeffs(model, sec, 8)
        oracle = irreducible_graded_dims(sec.h, model.c, 8)
        assert list(series.coeffs) == oracle, (m, sec.r, sec.s)


@pytest.mark.parametrize("m", range(3, 9))
def test_coefficients_wellformed(m):
    model = ci.build_minimal_model(m)
    for s in ci.all_character_series(model, 2000):
        assert s.coeffs[0] == 1
        assert min(s.coeffs) >= 0
    # vacuum module has no level-1 state
    vac = ci.character_coeffs(model, model.sectors[0], 1)
    assert vac.coeffs[1] == 0


def test_coefficients_partition_bound(model3):
    p = ci.partition_numbers(10000)
    for sec in model3.sectors:
        s = ci.character_coeffs(model3, sec, 10000, p)
        assert all(0 <= a <= p[k] for k, a in enumerate(s.coeffs))
    model8 = ci.build_minimal_model(8)
    for sec in model8.sectors[:2]:
        s = ci.character_coeffs(model8, sec, 10000, p)
        assert all(0 <= a <= p[k] for k, a in enumerate(s.coeffs))


def test_evaluate_single_term():
    sec = ci.Sector(r=0, s=0, h=Fraction(0), d=mpf(1))
    s = ci.CharacterSeries(sector=sec, c=Fraction(0), coeffs=(1,))
    # the tail bound treats coefficients past the cutoff as unknown, so the
    # certified error of a one-term series is conservative; the value is exact
    tv = ci.evaluate(s, 1, tol=mpf("0.1"))
    assert fabs(tv.value - 1) < mpf("1e-45")
    assert tv.error < mpf("0.1")


@pytest.mark.parametrize("m", [3, 4, 5])
def test_evaluate_bit_identical_to_full_sum(m):
    """Stopping at the last term that can change a bit gives the value and
    the certified error of the sum over every stored coefficient, exactly."""
    model = ci.build_minimal_model(m)
    series = ci.all_character_series(model, 400)
    for dps in (30, 50, 100):
        with mp.workdps(dps):
            for t in ("0.3", "0.5", "1", "2", "20", "250"):
                for shifted in (True, False):
                    for s in series:
                        got = ci.evaluate(s, t, shifted=shifted)
                        want = evaluate_full_sum(s, t, shifted=shifted)
                        assert got.value == want.value, (m, dps, t, shifted)
                        assert got.error == want.error, (m, dps, t, shifted)


@pytest.mark.parametrize("coeffs", [
    (0,) * 30 + (1,),                # a_0 = 0: only a term past K is nonzero
    (1, -1) + (0,) * 28 + (1,),      # a negative coefficient
])
def test_evaluate_hand_built_series_sums_in_full(coeffs, monkeypatch):
    def no_stopping_rule(t, prec):
        raise AssertionError("stopping rule applied to a hand-built series")

    monkeypatch.setattr(characters, "_terms_that_count", no_stopping_rule)
    sec = ci.Sector(r=0, s=0, h=Fraction(0), d=mpf(1))
    s = ci.CharacterSeries(sector=sec, c=Fraction(0), coeffs=coeffs)
    got = ci.evaluate(s, 2, tol=mpf(1))
    want = evaluate_full_sum(s, 2, tol=mpf(1))
    assert got.value == want.value and got.error == want.error
    assert got.value > 0


def test_self_dual_point(md3, series3):
    """tau = i is fixed by tau -> -1/tau."""
    direct = ci.evaluate(series3[0], 1).value
    transformed = sum(md3.S[0, j] * ci.evaluate(series3[j], 1).value
                      for j in range(3))
    assert fabs(direct - transformed) < mpf("1e-40")
    small = ci.evaluate_small_t(md3, series3, 0, 1).value
    assert fabs(direct - small) < mpf("1e-40")


def test_cutoff_self_consistency(model3):
    s200 = ci.character_coeffs(model3, model3.sectors[0], 200)
    s400 = ci.character_coeffs(model3, model3.sectors[0], 400)
    v200 = ci.evaluate(s200, 2)
    v400 = ci.evaluate(s400, 2)
    assert fabs(v200.value - v400.value) < mpf("1e-40")
    assert fabs(v200.value - v400.value) <= v200.error + v400.error


def test_tail_bound_is_honest(model3, series3):
    """The certified bound dominates the actual truncation error."""
    for t in ("0.4", "0.7", "1.5"):
        for sec_idx in range(3):
            short = ci.CharacterSeries(sector=series3[sec_idx].sector,
                                       c=series3[sec_idx].c,
                                       coeffs=series3[sec_idx].coeffs[:61])
            lo = ci.evaluate(short, t, tol=mpf(1))
            hi = ci.evaluate(series3[sec_idx], t)
            assert fabs(lo.value - hi.value) <= lo.error


def test_insufficient_cutoff_error(model3):
    s = ci.character_coeffs(model3, model3.sectors[0], 30)
    with pytest.raises(InsufficientCutoffError) as exc:
        ci.evaluate(s, "0.05")
    assert exc.value.required_cutoff > 30


def test_required_cutoff_is_sufficient(model3):
    tol = mpf("1e-30")
    need = ci.required_cutoff("0.05", tol)
    s = ci.character_coeffs(model3, model3.sectors[0], need)
    tv = ci.evaluate(s, "0.05", tol=tol)
    assert tv.error < tol + tv.value * mpf("1e-40")


@pytest.mark.parametrize("t, tol, h, c, shifted", [
    ("0.05", "1e-30", 0, 0, True),
    ("0.3", "1e-50", "1/16", "1/48", True),
    ("0.3", "1e-50", "1/16", None, True),  # the default c = 1/24
    ("2", "1e-40", 0, 0, False),
    ("250", "1e-60", 0, 0, False),       # a_0 alone: cutoff 0
])
def test_required_cutoff_is_minimal(t, tol, h, c, shifted):
    """The returned cutoff certifies tol and the one below it does not."""
    t, tol, h = mpf(t), mpf(tol), mpq(Fraction(h))
    if c is None:
        need, c = ci.required_cutoff(t, tol, h), mpf(1) / 24
    else:
        c = mpq(Fraction(c))
        need = ci.required_cutoff(t, tol, h, c, shifted)
    b = characters._tail_bound(need, t, h, c, shifted)
    assert b is not None and b < tol
    if need > 0:
        below = characters._tail_bound(need - 1, t, h, c, shifted)
        assert below is None or below >= tol


def test_tail_bound_matches_direct_formula():
    """The cached sector-independent factors give the bound computed afresh,
    bit for bit, on first and repeated calls and at every precision."""
    for dps in (30, 50, 100):
        with mp.workdps(dps):
            for _ in range(2):
                for cutoff in (0, 1, 30, 2000):
                    for t in ("0.01", "0.05", "0.3", "2", "250"):
                        for h, c in ((0, 0), ("1/16", "1/48"), ("3/2", "7/240")):
                            h, c = mpq(Fraction(h)), mpq(Fraction(c))
                            for shifted in (True, False):
                                args = (cutoff, mpf(t), h, c, shifted)
                                assert characters._tail_bound(*args) == \
                                    tail_bound_direct(*args), (dps, args)


def test_small_t_matches_direct(md3, series3):
    for idx in range(3):
        a = ci.evaluate(series3[idx], "0.5").value
        b = ci.evaluate_small_t(md3, series3, idx, "0.5").value
        assert fabs(a - b) < mpf("1e-30")


def test_dual_path_within_certified_error(md3, series3):
    """Both evaluation routes agree within their combined certified errors
    across t in [0.3, 3] (the transform written in whichever direction makes
    the argument large)."""
    for t in ("0.3", "0.45", "0.7", "1"):
        for idx in range(3):
            a = ci.evaluate(series3[idx], t)
            b = ci.evaluate_small_t(md3, series3, idx, t)
            assert fabs(a.value - b.value) <= a.error + b.error
    for t in ("1.5", "2", "3"):
        t = mpf(t)
        for idx in range(3):
            a = ci.evaluate(series3[idx], t)
            parts = [ci.evaluate(series3[j], 1 / t) for j in range(3)]
            val = sum(md3.S[idx, j] * parts[j].value for j in range(3))
            err = sum(abs(md3.S[idx, j]) * parts[j].error for j in range(3))
            assert fabs(a.value - val) <= a.error + err


def test_small_t_asymptotic_closed_form(md3, series3_small):
    """log Tr e^{-2 pi t L0} at t = 0.01 against the leading closed form
    (pi/24)/t - log 2 - (pi/24) t for the m = 3 vacuum."""
    t = mpf("0.01")
    tv = ci.evaluate_small_t(md3, series3_small, 0, t, shifted=False)
    closed = (pi / 24) / t - log(mpf(2)) - (pi / 24) * t
    assert fabs(log(tv.value) - closed) < mpf("1e-10")


@pytest.mark.parametrize("m, bound", [(3, "1e-25"), (4, "1e-20")])
def test_s_transform_residual(m, bound, md3, md4, series3, series4):
    md = {3: md3, 4: md4}[m]
    series = {3: series3, 4: series4}[m]
    grid = ["0.3", "0.45", "0.7", "1", "1.6", "2.2", "3"]
    res = ci.s_transform_residual(md, series, grid)
    assert res < mpf(bound)


def test_s_transform_negative_control(md3, series3):
    S = md3.S.copy()
    for j in range(3):
        S[0, j], S[2, j] = S[2, j], S[0, j]
    broken = ci.ModularData(model=md3.model, S=S, T=md3.T, dims=md3.dims,
                            mu=md3.mu)
    res = ci.s_transform_residual(broken, series3, ["0.5", "1"])
    assert res > mpf("1e-2")


def test_count_states(model3):
    s = ci.character_coeffs(model3, model3.sectors[0], 10)
    assert ci.count_states(s, 3) == 3          # levels 0, 2, 3
    assert ci.count_states(s, Fraction(-1, 2)) == 0
    assert ci.count_states(s, 0) == 1
    sigma = ci.character_coeffs(
        model3, model3.sectors[model3.sector_index("1/16")], 10)
    assert ci.count_states(sigma, Fraction(1, 32)) == 0
    assert ci.count_states(sigma, Fraction(1, 16)) == 1
    # nondecreasing step function
    prev = 0
    for k in range(11):
        cur = ci.count_states(s, k)
        assert cur >= prev
        prev = cur
    with pytest.raises(InsufficientCutoffError):
        ci.count_states(s, 11)


def test_monotone_decreasing_unshifted(md3, series3_small):
    vals = [ci.evaluate_small_t(md3, series3_small, 0, t, shifted=False).value
            for t in ("0.01", "0.02", "0.05", "0.1", "0.3")]
    vals.append(ci.evaluate(series3_small[0], 1, shifted=False).value)
    vals.append(ci.evaluate(series3_small[0], 2, shifted=False).value)
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


def test_csv_and_dump(md3, series3_small):
    from cftinv.characters import values_csv_rows, coeff_dump
    rows = values_csv_rows(series3_small, md3, ["0.5", "2"])
    assert len(rows) == 6
    assert all(len(r) == 4 for r in rows)
    dump = coeff_dump(series3_small[0])
    lines = dump.strip().split("\n")
    assert lines[0] == "1" and lines[1] == "0" and lines[2] == "1"


def test_csv_rows_evaluate_each_dual_once(monkeypatch):
    """Below t = 1 the n dual characters are evaluated once per t, not once
    per (sector, t): 2 points x 10 sectors for m = 5 (was 2 x 10 x 10)."""
    from cftinv.characters import values_csv_rows
    model = ci.build_minimal_model(5)
    md = ci.modular_matrices(model)
    series = ci.all_character_series(model, 120)
    grid = ["0.5", "0.8"]
    want = []
    for i, s in enumerate(series):
        for t in grid:
            tv = ci.evaluate_small_t(md, series, i, t, shifted=False)
            want.append((s.sector.name, mpf(t), tv.value, tv.error))
    calls = [0]
    real = characters.evaluate

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(characters, "evaluate", counted)
    rows = values_csv_rows(series, md, grid)
    assert calls[0] == 20
    assert [tuple(r) for r in rows] == want


# ------------------------------------------------ on-demand coefficient build

def _outcome(series, t, shifted):
    """(value, error), or the refusal's message and required cutoff."""
    try:
        tv = ci.evaluate(series, t, shifted=shifted)
    except InsufficientCutoffError as exc:
        return "refused", str(exc), exc.required_cutoff
    return tv.value, tv.error


@pytest.mark.parametrize("m", range(3, 9))
def test_lazy_series_evaluate_bit_identical_to_eager(m):
    """A series that builds only the prefix the sum reads gives the value
    and certified error of the fully built series, bit for bit."""
    model = ci.build_minimal_model(m)
    lazy = ci.all_character_series(model, 2000)
    eager = [ci.character_coeffs(model, sec, 2000) for sec in model.sectors]
    for dps in (30, 50, 100):
        with mp.workdps(dps):
            for t in ("0.05", "0.3", "0.5", "1", "2", "20", "250"):
                for shifted in (True, False):
                    for a, b in zip(lazy, eager):
                        assert _outcome(a, t, shifted) == _outcome(b, t, shifted), \
                            (m, a.sector.name, dps, t, shifted)
    assert all(len(s._built) < 2001 for s in lazy)


@pytest.mark.parametrize("cutoff", [0, 1, 30, 2000])
def test_prefix_matches_full_build(model4, cutoff):
    """_prefix(k) is a_0..a_{k-1} of the full build, clipped at the cutoff,
    whether asked on a fresh series, after other prefixes, or after the
    full series has been read."""
    ks = (0, 1, 2, 17, 32, cutoff, cutoff + 1, cutoff + 5)
    for i, sec in enumerate(model4.sectors):
        full = ci.character_coeffs(model4, sec, cutoff).coeffs
        for k in ks:
            fresh = ci.all_character_series(model4, cutoff)[i]
            assert fresh._prefix(k) == full[:k], (sec.name, cutoff, k)
        reused = ci.all_character_series(model4, cutoff)[i]
        for k in ks + ks[::-1]:
            assert reused._prefix(k) == full[:k], (sec.name, cutoff, k)
        assert reused.cutoff == cutoff
        assert reused.coeffs == full
        for k in ks:
            assert reused._prefix(k) == full[:k], (sec.name, cutoff, k)


def test_lazy_insufficient_cutoff_unchanged(model3):
    """At nominal cutoff 30 the refusal and its required cutoff are those of
    the series built to 30."""
    lazy = ci.all_character_series(model3, 30)[0]
    eager = ci.character_coeffs(model3, model3.sectors[0], 30)
    for shifted in (True, False):
        got, want = _outcome(lazy, "0.05", shifted), _outcome(eager, "0.05", shifted)
        assert got[0] == "refused" and got == want
        assert got[2] > 30


def test_all_character_series_negative_cutoff(model3):
    with pytest.raises(ValueError, match="cutoff must be >= 0"):
        ci.all_character_series(model3, -1)


def test_evaluating_commands_build_few_coefficients(monkeypatch, capsys):
    """The fit and a characters grid read a few dozen coefficients per
    sector, not the default cutoff's 2001."""
    from cftinv.cli import main

    built = [0]
    real = characters.character_coeffs

    def counted(*args, **kwargs):
        series = real(*args, **kwargs)
        built[0] += len(series.coeffs)
        return series

    monkeypatch.setattr(characters, "character_coeffs", counted)
    ci.all_character_series(ci.build_minimal_model(8), 2000)
    assert built[0] == 0
    assert main(["invariants", "--m", "3"]) == 0
    assert main(["characters", "--m", "4", "--grid", "0.1:2:4"]) == 0
    capsys.readouterr()
    assert 0 < built[0] < 1000
