"""Output checks of the benchmark's commands, run untimed after the timed loop.

Each check returns the accuracy figures of one output, or raises
:class:`CheckFailed`.  The characters check recomputes every value through
the evaluation route the CLI did not use; the dump check tests the exact
coefficients against the defining identity chi * phi(q) = theta numerator,
computed here independently of the library's coefficient build.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from mpmath import exp, log, mp, mpf, pi

from cftinv import characters, modular_data
from cftinv.cli import FIT_TOLERANCES

import workloads

PRECISION = 50        # the CLI's default working digits


class CheckFailed(Exception):
    pass


def _require(ok, msg):
    if not ok:
        raise CheckFailed(msg)


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def classify(cmd, rc, out, err):
    """('ok' | 'known' | 'failed', detail, accuracy dict) for one command."""
    if cmd.known is not None and rc == cmd.known[0] and cmd.known[1] in err:
        return "known", err.strip(), {}
    if rc != 0:
        detail = err.strip()
        if not detail:                     # exit 2 with FAIL rows on stdout
            try:
                CHECKS[cmd.kind](cmd.argv, out)
            except Exception as exc:
                detail = str(exc)
        return "failed", f"exit {rc}: {detail[:200]}", {}
    try:
        with mp.workdps(PRECISION):
            return "ok", "", CHECKS[cmd.kind](cmd.argv, out)
    except Exception as exc:  # any malformed output is a failed operation
        return "failed", f"{type(exc).__name__}: {exc}", {}


def check_invariants(argv, out):
    doc = json.loads(out)
    _require(doc["within_tolerance"] is True, "report not within tolerance")
    dev = doc["report"]["abs_dev"]
    return {"fit_dev_ratio_max": max(float(mpf(dev[k]) / FIT_TOLERANCES[k])
                                     for k in FIT_TOLERANCES)}


def check_characters(argv, out):
    doc = json.loads(out)
    model = modular_data.build_minimal_model(int(_arg(argv, "--m")))
    md = modular_data.modular_matrices(model)
    all_series = characters.all_character_series(model, doc["cutoff"])
    names = [s.name for s in model.sectors]
    rows = doc["values"]
    _require(len(rows) == 4 * len(names), f"{len(rows)} rows for {len(names)} sectors")
    c24 = modular_data.mpq(model.c) / 24
    at_inverse = {}
    worst = 0.0
    for row in rows:
        i = names.index(row["sector"])
        t = mpf(row["t"])
        value, error = mpf(row["value"]), mpf(row["certified_error"])
        if t < 1:
            other = characters.evaluate(all_series[i], t, shifted=False)
            o_val, o_err = other.value, other.error
        else:
            # chi_i(it) = sum_nu S_{i nu} chi_nu(i/t), times e^{-2 pi t c/24}
            if row["t"] not in at_inverse:
                at_inverse[row["t"]] = [characters.evaluate(s, 1 / t, shifted=True)
                                        for s in all_series]
            f = exp(-2 * pi * t * c24)
            o_val = f * sum(md.S[i, j] * tv.value
                            for j, tv in enumerate(at_inverse[row["t"]]))
            o_err = f * sum(abs(md.S[i, j]) * tv.error
                            for j, tv in enumerate(at_inverse[row["t"]]))
        printed = abs(value) * mpf(10) ** (1 - PRECISION)   # 50-digit rounding
        _require(abs(value - o_val) <= error + o_err + printed,
                 f"{row['sector']} t={row['t']}: routes differ by "
                 f"{mp.nstr(abs(value - o_val), 5)}")
        worst = max(worst, float(error / abs(value)))
    return {"cert_err_max": worst}


def check_battery(argv, out):
    rows = json.loads(out)["results"]
    _require(rows, "no rows")
    worst = 0.0
    for row in rows:
        _require(row["status"] == "PASS", f"{row['identity']} is {row['status']}")
        tol = mpf(row["tolerance"])
        if tol > 0:
            worst = max(worst, float(mpf(row["max_dev"]) / tol))
    return {"check_dev_ratio_max": worst}


def check_fock(argv, out):
    rows = json.loads(out)["rows"]
    lo, hi, count, _ = _arg(argv, "--grid").split(":")
    _require(len(rows) == int(count), f"{len(rows)} rows")
    _require(abs(mpf(rows[0]["t"]) - mpf(lo)) < mpf(10) ** -40
             and abs(mpf(rows[-1]["t"]) - mpf(hi)) < mpf(10) ** -40, "grid ends")
    for row in rows:
        ratio = mpf(row["ratio"])
        _require(log(2) <= ratio <= 1, f"ratio {row['ratio']} outside [log 2, 1]")
        _require(abs(mpf(row["numerator"]) / mpf(row["denominator"]) - ratio)
                 <= abs(ratio) * mpf(10) ** (3 - PRECISION), "ratio != num/den")
    return {}


def _pentagonal(n):
    """(exponent, sign) of Euler's phi(q) = prod (1 - q^k) up to q^n."""
    terms = [(0, 1)]
    j = 1
    while j * (3 * j - 1) // 2 <= n:
        sign = -1 if j % 2 else 1
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if e <= n:
                terms.append((e, sign))
        j += 1
    return terms


def _numerator(m, r, s, n):
    """Coefficients of the Rocha-Caridi theta numerator up to q^n, sparse."""
    out = {}
    k_max = math.isqrt(n // (m * (m + 1))) + 3
    for j in range(-k_max, k_max + 1):
        for e, sign in ((m * (m + 1) * j * j + (r * (m + 1) - s * m) * j, 1),
                        (m * (m + 1) * j * j + (r * (m + 1) + s * m) * j + r * s, -1)):
            if 0 <= e <= n:
                out[e] = out.get(e, 0) + sign
    return out


def check_dump(argv, out, samples=256):
    m = int(_arg(argv, "--m"))
    cutoff = int(_arg(argv, "--cutoff"))
    sector = _arg(argv, "--sector")
    h = 0 if sector == "vacuum" else Fraction(sector)
    r, s = next((r, s) for r, s in workloads.kac_labels(m)
                if workloads.kac_weight(m, r, s) == h)
    a = [int(x) for x in out.split()]
    _require(len(a) == cutoff + 1, f"{len(a)} coefficients for cutoff {cutoff}")
    _require(a[0] == 1 and min(a) >= 0, "a_0 != 1 or a negative coefficient")
    phi = _pentagonal(cutoff)
    theta = _numerator(m, r, s, cutoff)
    step = max(1, cutoff // samples)
    for n in list(range(0, cutoff + 1, step)) + [cutoff] + sorted(theta):
        conv = sum(sign * a[n - e] for e, sign in phi if e <= n)
        _require(conv == theta.get(n, 0), f"chi * phi differs from the numerator at q^{n}")
    return {}


CHECKS = {"invariants": check_invariants, "characters": check_characters,
          "verify": check_battery, "lab": check_battery, "fock": check_fock,
          "dump": check_dump}
