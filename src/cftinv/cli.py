"""Command-line front end: parses arguments, resolves settings, runs a
command and writes its report.

Subcommands: model, characters, invariants, verify, fock, lab, bh.  The
identities ``verify`` and ``lab`` check live in :mod:`cftinv.verify`.
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
import sys
from dataclasses import dataclass

from mpmath import mp, mpf, pi, log

from . import bridge, characters, fock, lab, modular_data, spectral, verify
from .errors import ConfigError, ToolkitError
from .reports import SCHEMA_VERSION, csv_text, decstr, dumps, write_text

EXIT_OK, EXIT_CONFIG, EXIT_VERIFY = 0, 1, 2

FIT_TOLERANCES = {"a0": mpf("1e-6"), "a1": mpf("1e-4"), "a2": mpf("1e-2")}

#: Largest --cutoff.  The series build grows like cutoff^1.5 per sector, and
#: only the commands that read whole series build them to the cutoff:
#: ``characters --dump --m 8 --cutoff 40000`` builds the one sector it prints
#: in 1.2 s and 41 MB, and ``verify --characters --m 8 --cutoff 40000``
#: builds all 28 sectors in 9.3 s and 136 MB (Xeon VM core, fresh process,
#: import included; README).
MAX_CUTOFF = 40000

#: Largest grid count; parse_grid refuses more before building any point.
#: Cost is linear in the count: 1000 points take 28 s for
#: ``characters --m 8`` and 7.6 s for ``fock --grid 0.01:1:1000``, whose points
#: are split between two lanes (one run each).
MAX_GRID_POINTS = 1000

#: Largest --precision (and CFTINV_DPS), in digits.  Every libmp product and
#: the eigensolver's iteration limit grow with it: at 500 digits
#: ``lab --dims 4,4,4`` (the --dims limit) takes 27 s, ``lab --dims 3,4,3``
#: 6.4-6.6 s and ``verify --all`` 4.6 s; at 1000 digits the two lab commands
#: take 88 s and 21 s (fresh process, one run each, two of
#: ``lab --dims 3,4,3`` at 500; two-vCPU Xeon VM, ``lab`` and ``verify`` on
#: both).
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
        if self.sector != "vacuum" and "e" in self.sector.lower():
            # Fraction would build 10**k for a weight such as 1e99999999
            raise ConfigError("sector weight must be written without an "
                              "exponent, as in 1/16, 3 or 0.5")
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
    if not (mp.isfinite(lo) and mp.isfinite(hi)):
        raise ConfigError("grid ends must be finite numbers")
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


def _dec(x, digits):
    """A row's number at ``digits`` digits; its "error" or "n/a" text as is."""
    return x if isinstance(x, str) else decstr(x, digits)


def cmd_verify(cfg: RunConfig, subsets, corrupt_sign: bool) -> int:
    b = verify.run_batteries(cfg, subsets, corrupt_sign)
    doc = {"schema": SCHEMA_VERSION, "command": "verify",
           "config": {"m": cfg.m, "seed": cfg.seed, "cutoff": cfg.cutoff,
                      "dims": list(cfg.dims), "precision": cfg.precision,
                      "subsets": sorted(subsets),
                      "corrupt_sign": corrupt_sign},
           "results": b.results}
    lines = [f"{r['status']} {r['identity']} max_dev={_dec(r['max_dev'], 4)}"
             f" (tol {_dec(r['tolerance'], 3)})" for r in b.results]
    lines.append("ALL PASS" if b.all_pass else "FAILURES PRESENT")
    _emit(cfg, doc, lines)
    return EXIT_OK if b.all_pass else EXIT_VERIFY


def cmd_fock(cfg: RunConfig) -> int:
    h = fock.positive(*range(1, 5001))
    rows = fock.fermi_ratio_scan_lanes(h, cfg.grid or spectral.DEFAULT_FIT_GRID)
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
    b = verify.Battery()
    verify.battery_appendix_c(b, cfg.dims, cfg.seed)
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
        p.add_argument("--sector",
                       help="vacuum or an exact weight such as 1/16 or 3")
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
                subsets = {name for name in verify.BATTERIES
                           if getattr(args, name.replace("-", "_"), False)}
                if args.all or not subsets:
                    subsets = set(verify.BATTERIES)
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
