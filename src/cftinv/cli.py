"""Command-line front end.

Subcommands: model, characters, invariants, verify, fock, lab, bh.
Exit codes: 0 success, 1 usage/config error, 2 verification failure.
Errors go to stderr as one-line JSON.  All numeric output is full-precision
decimal; identical configurations (including --seed) produce byte-identical
report files.

Precedence for settings is flags > config file > defaults; the config file
is flat ``key = value`` text with the same keys as the long options
(m, sector, grid, precision, cutoff, seed, output, format, dims); any other
key is refused as a usage error.  The environment variable
CFTINV_DPS overrides the default precision; both it and --precision are
capped at MAX_PRECISION digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpf, pi, log, sqrt, exp

from . import bridge, characters, fock, lab, modular_data, spectral, virasoro
from .errors import ConfigError, ToolkitError
from .reports import SCHEMA_VERSION, csv_text, decstr, dumps, write_text

EXIT_OK, EXIT_CONFIG, EXIT_VERIFY = 0, 1, 2

FIT_TOLERANCES = {"a0": mpf("1e-6"), "a1": mpf("1e-4"), "a2": mpf("1e-2")}

#: Largest --cutoff.  The series build grows like cutoff^1.5 per sector:
#: ``characters --m 8 --cutoff 40000 --grid 1:1:1`` builds all 28 sectors in
#: 7.4 s and 136 MB on a Xeon VM core; ``--dump`` builds only the sector it
#: prints, 1.1 s and 41 MB at 40000, 0.46 s and 30 MB at 20000 (fresh
#: process, import included, median of 3).
MAX_CUTOFF = 40000

#: Largest grid count; parse_grid refuses more before building any point.
#: Cost is linear in the count: 1000 points take 28 s for
#: ``characters --m 8`` and 23 s for ``fock --grid 0.01:1:1000``.
MAX_GRID_POINTS = 1000

#: Largest --precision (and CFTINV_DPS), in digits.  Every libmp product and
#: the eigensolver's iteration limit grow with it: at 500 digits
#: ``lab --dims 4,4,4`` (the --dims limit) takes 54 s, ``lab --dims 3,4,3``
#: 11 s and ``verify --all`` and ``fock`` under 8 s; at 1000 digits the two
#: lab commands take 178 s and 39 s (fresh process, one run each, Xeon VM
#: core).
MAX_PRECISION = 500


@dataclass
class RunConfig:
    command: str
    m: int = 3
    sector: str = "vacuum"
    grid: tuple | None = None   # None: the command's default grid
    precision: int = 50
    cutoff: int = 2000
    seed: int = 0
    output: str | None = None
    format: str = "text"
    dims: tuple = (2, 3, 2)

    def validate(self):
        if self.m < 3:
            raise ConfigError("m must be >= 3")
        if self.precision < 30:
            raise ConfigError("precision must be >= 30 digits")
        if self.precision > MAX_PRECISION:
            raise ConfigError(f"precision {self.precision} exceeds the limit "
                              f"{MAX_PRECISION} digits")
        if self.cutoff < 10:
            raise ConfigError("cutoff must be >= 10")
        if self.cutoff > MAX_CUTOFF:
            raise ConfigError(f"cutoff {self.cutoff} exceeds the limit {MAX_CUTOFF}")
        if any(mpf(t) <= 0 for t in self.grid or ()):
            raise ConfigError("grid points must be positive")
        if self.format not in ("json", "csv", "text"):
            raise ConfigError(f"unknown format {self.format!r}")
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise ConfigError("dims must be three positive integers d1,d2,d3")
        if math.prod(self.dims) > lab.MAX_DIM:
            raise ConfigError(f"dims product d1*d2*d3 = {math.prod(self.dims)} "
                              f"exceeds the limit {lab.MAX_DIM}")


def parse_grid(spec: str):
    """lo:hi:count[:linear|log] -> tuple of decimal strings."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError("grid must be lo:hi:count[:linear|log]")
    lo, hi, count = mpf(parts[0]), mpf(parts[1]), int(parts[2])
    spacing = parts[3] if len(parts) == 4 else "linear"
    if count < 1 or hi < lo:
        raise ConfigError("grid needs count >= 1 and hi >= lo")
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"grid count {count} exceeds the limit {MAX_GRID_POINTS}")
    if count == 1:
        return (decstr(lo),)
    if spacing == "linear":
        pts = [lo + (hi - lo) * k / (count - 1) for k in range(count)]
    elif spacing == "log":
        if lo <= 0:
            raise ConfigError("log spacing needs lo > 0")
        pts = [lo * (hi / lo) ** (mpf(k) / (count - 1)) for k in range(count)]
    else:
        raise ConfigError(f"unknown spacing {spacing!r}")
    return tuple(decstr(p) for p in pts)


def load_config_file(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {raw.strip()!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in _SETTINGS:
                raise ConfigError(f"unknown config key {key!r} in {path}")
            out[key] = val
    return out


# ------------------------------------------------------------ battery items

@dataclass
class Battery:
    results: list = field(default_factory=list)

    def check(self, identity: str, deviation, tolerance, lhs=None, rhs=None):
        dev = mpf(deviation)
        tol = mpf(tolerance)
        ok = bool(dev <= tol)
        rec = {"identity": identity, "status": "PASS" if ok else "FAIL",
               "max_dev": dev, "tolerance": tol}
        if lhs is not None:
            rec["lhs"] = lhs
        if rhs is not None:
            rec["rhs"] = rhs
        self.results.append(rec)
        return ok

    def record_error(self, identity: str, exc: Exception):
        self.results.append({"identity": identity, "status": "FAIL",
                             "max_dev": "error", "tolerance": "n/a",
                             "error": str(exc)})

    @property
    def all_pass(self):
        return all(r["status"] == "PASS" for r in self.results)


def battery_modular(b: Battery, m: int):
    model = modular_data.build_minimal_model(m)
    md = modular_data.modular_matrices(model)
    S = md.S
    n = S.rows
    b.check(f"S-symmetric-m{m}",
            max(abs(S[i, j] - S[j, i]) for i in range(n) for j in range(n)),
            "1e-25")
    ident = S * S.T
    b.check(f"S-orthogonal-m{m}",
            max(abs(ident[i, j] - (1 if i == j else 0))
                for i in range(n) for j in range(n)), "1e-25")
    T = mp.diag(list(md.T))
    st3 = (S * T) ** 3
    s2 = S * S
    b.check(f"(ST)^3=S^2-m{m}",
            max(abs(st3[i, j] - s2[i, j]) for i in range(n) for j in range(n)),
            "1e-25")
    b.check(f"S2-conjugation-permutation-m{m}",
            max(min(abs(abs(s2[i, j]) - 1), abs(s2[i, j]))
                for i in range(n) for j in range(n)), "1e-25")
    b.check(f"S00=mu^-1/2-m{m}", abs(S[0, 0] - 1 / sqrt(md.mu)), "1e-25")
    b.check(f"dims0=1-m{m}", abs(md.dims[0] - 1), "1e-30")
    try:
        N = modular_data.verlinde_fusion(md)
        sym = max(abs(N[i][j][k] - N[j][i][k])
                  for i in range(n) for j in range(n) for k in range(n))
        vac = max(abs(N[0][j][k] - (1 if j == k else 0))
                  for j in range(n) for k in range(n))
        b.check(f"verlinde-integrality-m{m}", 0, 1)
        b.check(f"verlinde-symmetry-m{m}", sym, 0)
        b.check(f"verlinde-vacuum-unit-m{m}", vac, 0)
    except ToolkitError as exc:
        b.record_error(f"verlinde-integrality-m{m}", exc)


def battery_characters(b: Battery, m: int, cutoff: int):
    model = modular_data.build_minimal_model(m)
    md = modular_data.modular_matrices(model)
    series = characters.all_character_series(model, cutoff)
    b.check(f"char-a0-unit-m{m}",
            max(abs(s.coeffs[0] - 1) for s in series), 0)
    b.check(f"char-nonnegative-m{m}",
            max((1 if any(a < 0 for a in s.coeffs) else 0) for s in series), 0)
    b.check(f"char-vacuum-level1-m{m}", series[0].coeffs[1], 0)
    res = characters.s_transform_residual(
        md, series, ["0.3", "0.5", "1", "2", "3"])
    b.check(f"s-transform-residual-m{m}", res, "1e-20")
    direct = characters.evaluate(series[0], "0.5").value
    small = characters.evaluate_small_t(md, series, 0, "0.5").value
    b.check(f"dual-path-eval-m{m}", abs(direct - small), "1e-30")


def battery_virasoro(b: Battery):
    for n in (1, 2, 3, 4):
        try:
            virasoro.verify_embedding(n, 20)
            b.check(f"embedding-exact-n{n}", 0, 0)
        except ToolkitError as exc:
            b.record_error(f"embedding-exact-n{n}", exc)
    bad = 0
    for (i, j, k) in [(-3, 1, 2), (5, -2, -3), (0, 4, -4), (2, 2, -1)]:
        if virasoro.jacobi_residual(virasoro.L(i), virasoro.L(j),
                                    virasoro.L(k)) != virasoro.ZERO:
            bad += 1
    b.check("jacobi-exact-sample", bad, 0)
    fe = virasoro.free_energy(Fraction(1, 2), 2)
    b.check("free-energy-c-half-n2", abs(fe.f_n - pi / 16), "1e-40")
    shift_ok = 0 if virasoro.generator_shift(Fraction(1, 2), 2) == fe.f_n_over_2pi else 1
    b.check("a2-shift-equals-Fn", shift_ok, 0)


def battery_fock(b: Battery, seed: int, corrupt_sign: bool = False):
    rng = random.Random(seed)
    worst = mpf(0)
    for case in range(20):
        d = rng.randint(1, 4)
        lams = [mpf(decstr(rng.uniform(0.05, 0.8), 15)) for _ in range(d)]
        a = fock.contraction(*lams)
        for stats in ("bose", "fermi"):
            closed = fock.gamma_trace(a, stats)
            if corrupt_sign:
                # deliberately flip the log-form sign: a built-in negative control
                closed = exp(-fock.log_gamma_trace(a, stats))
            cut = {1: 120, 2: 60, 3: 24, 4: 14}[d]
            bf = fock.gamma_trace_bruteforce(a, stats, cut)
            excess = abs(closed - bf.value) - (bf.tail_bound + bf.rounding)
            worst = max(worst, excess)
    b.check("fock-det-vs-bruteforce", worst, "1e-25")
    h = fock.positive(*range(1, 2001))
    try:
        rows = fock.fermi_ratio_scan(h, ["1", "0.5", "0.1", "0.05", "0.01"])
        b.check("fermi-ratio-two-sided-bound", 0, 0)
        target = fock.linear_spectrum_ratio_limit()
        b.check("fermi-ratio-pi^2/12", abs(rows[-1].ratio - target), "0.01")
    except ToolkitError as exc:
        b.record_error("fermi-ratio-two-sided-bound", exc)


def battery_appendix_c(b: Battery, dims, seed: int):
    d1, d2, d3 = dims
    triple = lab.FiniteFactorTriple(d1, d2, d3)
    rng = random.Random(seed)
    # spatial derivative implements both modular flows
    worst1 = worst2 = mpf(0)
    for _ in range(3):
        rho_a = lab.random_density(d1 * d2, rng)
        rho_b = lab.random_density(d3, rng)
        der = lab.spatial_derivative(rho_a, rho_b, triple.dims, (0, 1))
        r1, r2 = lab.modular_implementation_residual(der, mpf("0.37"))
        worst1, worst2 = max(worst1, r1), max(worst2, r2)
    b.check("spatial-derivative-implements", max(worst1, worst2), "1e-18")
    der_inv = lab.matmul(der.dense(), der.inverse().dense())
    n = der_inv.rows
    b.check("spatial-derivative-inverse",
            max(abs(der_inv[i, j] - (1 if i == j else 0))
                for i in range(n) for j in range(n)), "1e-20")
    # cocycles on a 3-dim factor
    psi = lab.random_density(3, rng)
    psi0 = lab.random_density(3, rng)
    psi1 = lab.random_density(3, rng)
    res = lab.connes_cocycle(psi, psi0, mpf("0.7"))
    b.check("cocycle-membership", res.membership_residual, "1e-18")
    b.check("cocycle-unitary", res.unitarity_residual, "1e-18")
    direct = lab.cocycle_direct(psi, psi0, mpf("0.7"))
    b.check("cocycle-direct-vs-reconstructed",
            lab.max_abs(res.u - direct), "1e-16")
    b.check("cocycle-identity",
            lab.cocycle_identity_residual(psi, psi0, mpf("0.4"), mpf("0.3")),
            "1e-16")
    b.check("cocycle-chain-rule",
            lab.cocycle_chain_residual(psi, psi0, psi1, mpf("0.6")), "1e-16")
    # index product, several random state pairs
    worst = mpf(0)
    last = None
    for _ in range(5):
        rho1 = lab.random_density(d1, rng)
        rho3 = lab.random_density(d3, rng)
        flow = lab.canonical_flow(triple, rho1, rho3)
        last = lab.index_product(triple, rho1, rho3, flow)
        worst = max(worst, last.deviation)
    b.check(f"index-product-d2sq-{d1}{d2}{d3}", worst, "1e-8",
            lhs=last.product, rhs=last.expected)
    # symmetric split: each mass separately equals d2
    if d1 == d3:
        rho = lab.random_density(d1, rng)
        flow = lab.canonical_flow(triple, rho, rho)
        out = lab.index_product(triple, rho, rho, flow)
        b.check("symmetric-split-masses",
                max(abs(out.mass1 - d2), abs(out.mass2 - d2)), "1e-8",
                lhs=out.mass1, rhs=mpf(d2))
    # relative entropy vs density-matrix oracle
    worst = mpf(0)
    for _ in range(10):
        r1 = lab.random_density(4, rng)
        r2 = lab.random_density(4, rng)
        worst = max(worst, abs(lab.araki_relative_entropy(r1, r2)
                               - lab.relative_entropy_oracle(r1, r2)))
    b.check("araki-vs-oracle", worst, "1e-12")
    b.check("pimsner-popa-consistency",
            abs(lab.pimsner_popa_entropy(triple)
                - 2 * log(sqrt(triple.index))), "1e-20")
    # derivative identity at the KMS point (symmetric split only)
    if d1 == d3:
        try:
            rho = lab.random_density(d1, rng)
            rep = lab.entropy_derivative_identity(triple, rho)
            b.check("kms-mass", rep.mass_residual, "1e-6")
            b.check("kms-derivative-identity", rep.identity_residual, "1e-6")
        except ToolkitError as exc:
            b.record_error("kms-derivative-identity", exc)
    b.check("reconstruction-flow-restriction",
            lab.reconstruction_flow_residual(triple, lab.random_density(d1, rng)),
            "1e-16")


def battery_bridge(b: Battery):
    p = bridge.BlackHoleParams.schwarzschild(1)
    hs = bridge.hawking_and_bekenstein(p)
    b.check("schwarzschild-beta", abs(hs.beta - 8 * pi), "1e-30")
    b.check("bekenstein-quarter", abs(hs.entropy - 4 * pi), "1e-30")
    p2 = bridge.BlackHoleParams.from_central_charge(hs.c)
    b.check("area-c-round-trip", abs(p2.area - p.area), "1e-12")
    rep = bridge.verify_alpha_quarter(1, mpf("1e-6"))
    b.check("alpha-extraction", abs(rep.alpha - mpf("0.25")), "1e-8")
    f1 = bridge.incremental_free_energy(sqrt(mpf(2)), 1, 1)
    f2 = bridge.incremental_free_energy(2, sqrt(mpf(2)), 1)
    f3 = bridge.incremental_free_energy(2, 1, 1)
    b.check("dF-additivity", abs(f1.dF + f2.dF - f3.dF), 0)
    mf = bridge.mu_free_energy(4, sqrt(mpf(2)), 3)
    b.check("mu-free-energy-mean", abs(mf.f_mean_mu + log(mpf(4)) / (4 * pi)),
            "1e-30")
    cells = bridge.cell_entropy([(2, 10)])
    b.check("cell-degrees-exact", abs(cells.degrees - 1024), 0)
    b.check("cell-entropy-cross",
            abs(exp(cells.entropy) - cells.degrees) / cells.degrees, "1e-10")


#: The verify batteries in report order: name -> run(battery, cfg, corrupt_sign).
BATTERIES = {
    "modular": lambda b, cfg, corrupt: battery_modular(b, cfg.m),
    "characters": lambda b, cfg, corrupt: battery_characters(b, cfg.m, cfg.cutoff),
    "virasoro": lambda b, cfg, corrupt: battery_virasoro(b),
    "fock": lambda b, cfg, corrupt: battery_fock(b, cfg.seed, corrupt_sign=corrupt),
    "appendix-c": lambda b, cfg, corrupt: battery_appendix_c(b, cfg.dims, cfg.seed),
    "bridge": lambda b, cfg, corrupt: battery_bridge(b),
}


# ----------------------------------------------------------------- commands

def _emit(cfg: RunConfig, doc: dict, text_lines, csv_data=None):
    if cfg.format == "text":
        sys.stdout.write("\n".join(text_lines) + "\n")
    elif cfg.format == "csv" and csv_data is not None:
        sys.stdout.write(csv_text(*csv_data))
    else:
        sys.stdout.write(dumps(doc))
    if cfg.output:
        write_text(cfg.output, dumps(doc))


def cmd_model(cfg: RunConfig) -> int:
    model = modular_data.build_minimal_model(cfg.m)
    md = modular_data.modular_matrices(model)
    doc = {"schema": SCHEMA_VERSION, "command": "model",
           "data": modular_data.to_json_dict(md)}
    lines = [f"m = {cfg.m}, c = {model.c}, sectors = {len(model.sectors)}",
             "h: " + ", ".join(str(s.h) for s in model.sectors),
             "mu = " + decstr(md.mu)]
    _emit(cfg, doc, lines)
    return EXIT_OK


def cmd_characters(cfg: RunConfig, dump: bool = False) -> int:
    model = modular_data.build_minimal_model(cfg.m)
    idx = model.sector_index(cfg.sector)
    if dump:
        # the dump prints one sector, so it builds that sector's series only
        text = characters.coeff_dump(characters.character_coeffs(
            model, model.sectors[idx], cfg.cutoff))
        sys.stdout.write(text)
        if cfg.output:
            write_text(cfg.output, text)
        return EXIT_OK
    md = modular_data.modular_matrices(model)
    series = characters.all_character_series(model, cfg.cutoff)
    rows = characters.values_csv_rows(
        series, md, cfg.grid or spectral.DEFAULT_FIT_GRID)
    doc = {"schema": SCHEMA_VERSION, "command": "characters",
           "m": cfg.m, "cutoff": cfg.cutoff,
           "coeffs_head": list(series[idx]._prefix(32)),
           "values": [{"sector": r[0], "t": r[1], "value": r[2],
                       "certified_error": r[3]} for r in rows]}
    lines = [f"sector {cfg.sector}: a_0..a_{min(16, cfg.cutoff)} = "
             + " ".join(str(a) for a in series[idx]._prefix(17))]
    lines += [f"{r[0]} t={decstr(r[1], 8)} value={decstr(r[2], 30)} "
              f"err={decstr(r[3], 3)}" for r in rows]
    _emit(cfg, doc, lines,
          csv_data=(("sector", "t", "value", "certified_error"), rows))
    return EXIT_OK


def cmd_invariants(cfg: RunConfig) -> int:
    model = modular_data.build_minimal_model(cfg.m)
    md = modular_data.modular_matrices(model)
    series = characters.all_character_series(model, cfg.cutoff)
    idx = model.sector_index(cfg.sector)
    fn, err = spectral.sector_log_trace(md, series, idx)
    grid = cfg.grid or spectral.clean_fit_grid(md)
    fit = spectral.fit_invariants(fn, grid, err_fn=err)
    c = modular_data.mpq(model.c)
    d = md.dims[idx]
    targets = {"a0": pi * c / 12, "a1": log(d * d / md.mu) / 2,
               "a2": -pi * c / 12}
    report = spectral.fit_report(fit, targets, model.sectors[idx].name)
    ok = all(report["abs_dev"][k] <= FIT_TOLERANCES[k] for k in FIT_TOLERANCES)
    doc = {"schema": SCHEMA_VERSION, "command": "invariants", "m": cfg.m,
           "report": report, "within_tolerance": ok}
    lines = [f"{k} = {decstr(report[k], 20)} (target {decstr(targets[k], 20)}, "
             f"dev {decstr(report['abs_dev'][k], 3)})" for k in ("a0", "a1", "a2")]
    lines.append(f"residual = {decstr(fit.residual, 3)}")
    lines.append("within tolerance" if ok else "OUT OF TOLERANCE")
    _emit(cfg, doc, lines,
          csv_data=(("t", "t_log_trace"),
                    spectral.trace_csv_rows(fn, grid)))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_verify(cfg: RunConfig, subsets, corrupt_sign: bool) -> int:
    b = Battery()
    for name, run in BATTERIES.items():
        if name not in subsets:
            continue
        try:
            run(b, cfg, corrupt_sign)
        except ToolkitError as exc:
            # the report keeps the rows so far and this FAIL row
            b.record_error(f"{name}-battery", exc)
    doc = {"schema": SCHEMA_VERSION, "command": "verify",
           "config": {"m": cfg.m, "seed": cfg.seed, "cutoff": cfg.cutoff,
                      "dims": list(cfg.dims), "precision": cfg.precision,
                      "subsets": sorted(subsets),
                      "corrupt_sign": corrupt_sign},
           "results": b.results}
    lines = [f"{r['status']} {r['identity']} max_dev={decstr(r['max_dev'], 4) if not isinstance(r['max_dev'], str) else r['max_dev']}"
             f" (tol {decstr(r['tolerance'], 3) if not isinstance(r['tolerance'], str) else r['tolerance']})"
             for r in b.results]
    lines.append("ALL PASS" if b.all_pass else "FAILURES PRESENT")
    _emit(cfg, doc, lines)
    return EXIT_OK if b.all_pass else EXIT_VERIFY


def cmd_fock(cfg: RunConfig) -> int:
    h = fock.positive(*range(1, 5001))
    rows = fock.fermi_ratio_scan(h, cfg.grid or spectral.DEFAULT_FIT_GRID)
    doc = {"schema": SCHEMA_VERSION, "command": "fock",
           "rows": [{"t": r.t, "numerator": r.numerator,
                     "denominator": r.denominator, "ratio": r.ratio}
                    for r in rows]}
    lines = [f"t={decstr(r.t, 8)} ratio={decstr(r.ratio, 12)}" for r in rows]
    _emit(cfg, doc, lines,
          csv_data=(("t", "numerator", "denominator", "ratio"),
                    [(r.t, r.numerator, r.denominator, r.ratio) for r in rows]))
    return EXIT_OK


def cmd_lab(cfg: RunConfig) -> int:
    b = Battery()
    battery_appendix_c(b, cfg.dims, cfg.seed)
    for rec in b.results:
        rec["abs_dev"] = rec["max_dev"]
        rec["dims"] = list(cfg.dims)
        rec["seed"] = cfg.seed
    doc = {"schema": SCHEMA_VERSION, "command": "lab",
           "dims": list(cfg.dims), "seed": cfg.seed, "results": b.results}
    lines = [f"{r['status']} {r['identity']}" for r in b.results]
    _emit(cfg, doc, lines)
    return EXIT_OK if b.all_pass else EXIT_VERIFY


def cmd_bh(cfg: RunConfig, mass, area, central_charge) -> int:
    given = [x for x in (mass, area, central_charge) if x is not None]
    if len(given) != 1:
        raise ConfigError("give exactly one of --mass, --area, --central-charge")
    if mass is not None:
        p = bridge.BlackHoleParams.schwarzschild(mpf(mass))
    elif area is not None:
        p = bridge.BlackHoleParams.from_area(mpf(area))
    else:
        p = bridge.BlackHoleParams.from_central_charge(mpf(central_charge))
    hs = bridge.hawking_and_bekenstein(p)
    f_mean = 2 * pi * hs.c / 12            # both chiral halves contribute
    mf = bridge.mu_free_energy(4, 1, 2)    # reference mu-side value at mu = 4
    doc = {"schema": SCHEMA_VERSION, "command": "bh",
           "A": hs.area, "beta": hs.beta, "S": hs.entropy, "c": hs.c,
           "F_mean": f_mean,
           "S_equals_F_mean": bool(abs(hs.entropy - f_mean) < mpf("1e-20")),
           "F_mean_mu": mf.f_mean_mu}
    lines = [f"A = {decstr(hs.area, 20)}",
             f"beta = {decstr(hs.beta, 20)}",
             f"S = {decstr(hs.entropy, 20)}",
             f"c = {decstr(hs.c, 20)}",
             f"F_mean(2d) = {decstr(f_mean, 20)}"
             + ("  == S" if doc["S_equals_F_mean"] else "")]
    _emit(cfg, doc, lines)
    return EXIT_OK


# -------------------------------------------------------------------- main

class _Parser(argparse.ArgumentParser):
    """Argument parser whose rejections are usage errors under the exit
    contract (exit 1, one-line JSON) instead of argparse's exit 2 with
    usage text.  Subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="cftinv",
        description="modular data, characters and spectral invariants of the "
                    "c < 1 minimal models; verification batteries for the "
                    "operator-algebra identities",
        epilog="settings precedence: flags > --config file (key = value "
               "lines) > defaults; CFTINV_DPS sets the default precision")
    ap.add_argument("--config", help="flat key=value config file "
                                     "(flags override file values)")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--m", type=int, help="minimal model label (>= 3)")
        p.add_argument("--sector", help="vacuum | index | weight like 1/16")
        p.add_argument("--grid", help="t grid lo:hi:count[:linear|log]")
        p.add_argument("--precision", type=int,
                       help=f"working digits (30..{MAX_PRECISION})")
        p.add_argument("--cutoff", type=int, help="series cutoff (>= 10)")
        p.add_argument("--seed", type=int, help="seed for randomized batteries")
        p.add_argument("--output", "-o", help="write the JSON report here")
        p.add_argument("--format", choices=("json", "csv", "text"))

    for name in ("model", "characters", "invariants", "fock", "lab"):
        common(sub.add_parser(name))
    sub.choices["characters"].add_argument(
        "--dump", action="store_true",
        help="emit the exact coefficients, one decimal string per line")
    pv = sub.add_parser("verify")
    common(pv)
    pv.add_argument("--all", action="store_true")
    pv.add_argument("--modular", action="store_true")
    pv.add_argument("--characters", action="store_true")
    pv.add_argument("--virasoro", action="store_true")
    pv.add_argument("--fock", action="store_true")
    pv.add_argument("--appendix-c", action="store_true")
    pv.add_argument("--bridge", action="store_true")
    pv.add_argument("--corrupt-sign", action="store_true",
                    help="negative control: run the Fock identity with a "
                         "deliberately wrong sign")
    pv.add_argument("--dims", help="appendix-c leg dimensions d1,d2,d3")
    sub.choices["lab"].add_argument("--dims", help="leg dimensions d1,d2,d3")
    pb = sub.add_parser("bh")
    common(pb)
    pb.add_argument("--mass")
    pb.add_argument("--area")
    pb.add_argument("--central-charge")
    return ap


#: Settings that a flag or the config file gives, in the order they are
#: read, with the conversion of the config file's text.
_SETTINGS = {"m": int, "sector": str, "grid": parse_grid, "precision": int,
             "cutoff": int, "seed": int, "output": str, "format": str,
             "dims": lambda text: tuple(int(x) for x in text.split(","))}


def _config_from_args(args) -> RunConfig:
    """Each setting from its flag, else from the config file, else the
    RunConfig default; CFTINV_DPS replaces the default precision.  --grid
    and --dims arrive as text and count as not given when empty."""
    file_vals = load_config_file(args.config) if args.config else {}
    env_dps = os.environ.get("CFTINV_DPS")
    vals = {"precision": int(env_dps)} if env_dps else {}
    for key, conv in _SETTINGS.items():
        flag = getattr(args, key, None)
        if key in ("grid", "dims"):
            text = flag or file_vals.get(key)
            if text:
                vals[key] = conv(text)
        elif flag is not None:
            vals[key] = flag
        elif key in file_vals:
            vals[key] = conv(file_vals[key])
    cfg = RunConfig(command=args.command, **vals)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _config_from_args(args)
    except (ConfigError, ValueError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "exit": EXIT_CONFIG})
                         + "\n")
        return EXIT_CONFIG
    try:
        with mp.workdps(cfg.precision):
            if cfg.command == "model":
                return cmd_model(cfg)
            if cfg.command == "characters":
                return cmd_characters(cfg, dump=getattr(args, "dump", False))
            if cfg.command == "invariants":
                return cmd_invariants(cfg)
            if cfg.command == "verify":
                subsets = {name for name in BATTERIES
                           if getattr(args, name.replace("-", "_"), False)}
                if args.all or not subsets:
                    subsets = set(BATTERIES)
                return cmd_verify(cfg, subsets, args.corrupt_sign)
            if cfg.command == "fock":
                return cmd_fock(cfg)
            if cfg.command == "lab":
                return cmd_lab(cfg)
            if cfg.command == "bh":
                return cmd_bh(cfg, args.mass, args.area, args.central_charge)
        raise ConfigError(f"unknown command {cfg.command!r}")
    except (ConfigError, KeyError, ValueError, OSError) as exc:
        # malformed sectors, weights, paths: usage errors, never tracebacks
        sys.stderr.write(json.dumps({"error": str(exc), "exit": EXIT_CONFIG})
                         + "\n")
        return EXIT_CONFIG
    except ToolkitError as exc:
        sys.stderr.write(json.dumps({"error": str(exc),
                                     "type": type(exc).__name__,
                                     "exit": EXIT_VERIFY}) + "\n")
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
