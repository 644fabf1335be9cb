"""Verification batteries: the identities ``cftinv verify`` and ``cftinv lab``
check.

A :class:`Battery` collects one row per identity: its name, PASS or FAIL,
the measured deviation and the tolerance, or a FAIL row carrying the error
when a check cannot be computed.  Each ``battery_*`` function appends its
rows to a battery and returns nothing:

- ``modular``: S is symmetric and orthogonal, (ST)^3 = S^2, S^2 is the
  charge-conjugation permutation, S_00 = mu^{-1/2}, and Verlinde fusion is
  integral, symmetric and has the vacuum as unit;
- ``characters``: the coefficients start at 1 and are nonnegative, the S
  transform maps the characters into each other, and the direct and the
  transform evaluation agree;
- ``virasoro``: the circle covers embed Virasoro exactly, the Jacobi
  identity holds exactly, and the free energy at c = 1/2 is pi/16;
- ``fock``: the determinant formula matches the brute-force trace within
  its certified bounds (``corrupt_sign`` flips the sign as a negative
  control), and the Fermi ratio scan tends to pi^2/12;
- ``appendix-c``: the matrix lab's spatial derivatives, cocycles, index
  product, relative entropy and derivative identity on the given leg
  dimensions;
- ``bridge``: the black-hole dictionary.

:func:`run_batteries` runs the selected batteries in report order, builds
the model's modular data once for the two batteries that read it, and turns
a :class:`~cftinv.errors.ToolkitError` that ends a battery into a
``<name>-battery`` FAIL row after the rows so far.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpf, pi, log, sqrt, exp

from . import bridge, characters, fock, lab, modular_data, virasoro
from .errors import ToolkitError
from .reports import decstr


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


def battery_modular(b: Battery, md: modular_data.ModularData):
    m = md.model.m
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


def battery_characters(b: Battery, md: modular_data.ModularData, cutoff: int):
    m = md.model.m
    series = characters.all_character_series(md.model, cutoff)
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
    """The matrix lab's rows.  Within the battery each density is
    decomposed once (:func:`cftinv.lab.shared_spectra`); the spectra are
    dropped when it returns or raises."""
    with lab.shared_spectra():
        _appendix_c_rows(b, dims, seed)


def _appendix_c_rows(b: Battery, dims, seed: int):
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
            lab.max_abs_diff(res.u, direct), "1e-16")
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


#: The batteries in report order: name -> run(battery, cfg, md, corrupt_sign),
#: where ``md()`` returns the modular data of model ``cfg.m``.
BATTERIES = {
    "modular": lambda b, cfg, md, corrupt: battery_modular(b, md()),
    "characters": lambda b, cfg, md, corrupt: battery_characters(b, md(), cfg.cutoff),
    "virasoro": lambda b, cfg, md, corrupt: battery_virasoro(b),
    "fock": lambda b, cfg, md, corrupt: battery_fock(b, cfg.seed, corrupt_sign=corrupt),
    "appendix-c": lambda b, cfg, md, corrupt: battery_appendix_c(b, cfg.dims, cfg.seed),
    "bridge": lambda b, cfg, md, corrupt: battery_bridge(b),
}


def run_batteries(cfg, names, corrupt_sign: bool = False) -> Battery:
    """The rows of the batteries in ``names``, in report order.  ``cfg``
    gives ``m``, ``cutoff``, ``seed`` and ``dims``.  The model and its
    modular data are built on first use and kept; a build that raises is
    tried again by the next battery that needs it, so each such battery
    gets its own FAIL row."""
    md = functools.cache(lambda: modular_data.modular_matrices(
        modular_data.build_minimal_model(cfg.m)))
    b = Battery()
    for name, run in BATTERIES.items():
        if name not in names:
            continue
        try:
            run(b, cfg, md, corrupt_sign)
        except ToolkitError as exc:
            # the report keeps the rows so far and this FAIL row
            b.record_error(f"{name}-battery", exc)
    return b
