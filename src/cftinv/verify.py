"""Verification batteries: the identities ``cftinv verify`` and ``cftinv lab``
check.

A :class:`Battery` collects one row per identity: its name, PASS or FAIL,
the measured deviation and the tolerance, or a FAIL row carrying the error
when a check cannot be computed.  The batteries (:data:`BATTERIES`):

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

``verify`` and ``lab`` run on two lanes (:mod:`cftinv.lanes`): the calling
process and one child made with ``os.fork``.  :func:`run_batteries`
(``verify``) builds one list of the selected batteries' tasks in report
order and forks once; :func:`battery_appendix_c` (``lab``) does the same
for the lab battery alone.  A task is a row group that appends its rows to
the battery it is given.  The tasks, and the lane table
:data:`CHILD_TASKS` of those the child runs:

- ``modular``, ``characters``, ``bridge``: one task each, in the caller,
  so the model's modular data is built, and the character caches kept, in
  the caller;
- ``virasoro``: one task per cover embedding, n = 1..4, then the Jacobi,
  free-energy and shift rows; the child runs n = 1 and 2;
- ``fock``: the 20 brute-force cases, then the Fermi ratio scan; the child
  runs the scan;
- ``appendix-c``: residual calls 1, 2 and 3 (the third also does the
  inverse row), cocycles, index product with the symmetric split, Araki vs
  oracle with Pimsner-Popa, KMS with reconstruction; the child runs
  residual calls 1 and 2 and the entropy rows.

Every random input is drawn while the list is built, before the fork, in
the order the rows have always drawn them (the fock cases and the lab's
densities, each from its battery's seeded generator), so no task reads a
generator.  The split is fixed, so each lane does the same work on every
run.  The lab's shared-spectra memo (:func:`cftinv.lab.shared_spectra`)
is one copy per lane; no density is read by tasks of both lanes, so none
is decomposed twice.

The caller replays the rows in report order, so the bytes are those of
running the tasks one by one.  A :class:`~cftinv.errors.ToolkitError`
that ends a task gives its battery's rows so far and a ``<name>-battery``
FAIL row; the battery's later tasks report nothing, even if the other lane
ran them, and the later batteries report as usual.  Any other exception,
and under ``lab`` every exception, is raised again after the rows before
it.  Where ``os.fork`` is missing or fails, fewer than two CPUs are usable
or another thread is running, the tasks run in the caller, one after
another, and a battery's tasks after one that raised never run: the same
rows, and the reference the tests compare the lanes with.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpf, pi, log, sqrt, exp

from . import bridge, characters, fock, lab, lanes, modular_data, virasoro
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


def _virasoro_tasks():
    """The virasoro battery as five tasks: one per cover embedding, then
    the Jacobi, free-energy and shift rows."""
    def embedding(n):
        def task(b):
            try:
                virasoro.verify_embedding(n, 20)
                b.check(f"embedding-exact-n{n}", 0, 0)
            except ToolkitError as exc:
                b.record_error(f"embedding-exact-n{n}", exc)
        return task

    def identities(b):
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

    return [embedding(n) for n in (1, 2, 3, 4)] + [identities]


def _fock_tasks(seed: int, corrupt_sign: bool = False):
    """The fock battery as two tasks: the 20 brute-force cases, drawn here
    from the battery's generator (``corrupt_sign`` flips the sign as a
    negative control), then the Fermi ratio scan."""
    rng = random.Random(seed)
    cases = []
    for _ in range(20):
        d = rng.randint(1, 4)
        cases.append([mpf(decstr(rng.uniform(0.05, 0.8), 15)) for _ in range(d)])

    def bruteforce(b):
        worst = mpf(0)
        for lams in cases:
            a = fock.contraction(*lams)
            for stats in ("bose", "fermi"):
                closed = fock.gamma_trace(a, stats)
                if corrupt_sign:
                    # deliberately flip the log-form sign: a built-in negative control
                    closed = exp(-fock.log_gamma_trace(a, stats))
                cut = {1: 120, 2: 60, 3: 24, 4: 14}[len(lams)]
                bf = fock.gamma_trace_bruteforce(a, stats, cut)
                excess = abs(closed - bf.value) - (bf.tail_bound + bf.rounding)
                worst = max(worst, excess)
        b.check("fock-det-vs-bruteforce", worst, "1e-25")

    def scan(b):
        h = fock.positive(*range(1, 2001))
        try:
            rows = fock.fermi_ratio_scan(h, ["1", "0.5", "0.1", "0.05", "0.01"])
            b.check("fermi-ratio-two-sided-bound", 0, 0)
            target = fock.linear_spectrum_ratio_limit()
            b.check("fermi-ratio-pi^2/12", abs(rows[-1].ratio - target), "0.01")
        except ToolkitError as exc:
            b.record_error("fermi-ratio-two-sided-bound", exc)

    return [bruteforce, scan]


def battery_appendix_c(b: Battery, dims, seed: int):
    """The matrix lab's rows (the body of ``cftinv lab``), on two lanes
    (module docstring); the first exception a task raises is raised again
    after the rows before it.  Within a lane each density is decomposed
    once (:func:`cftinv.lab.shared_spectra`); the spectra are dropped when
    the battery returns or raises."""
    with lab.shared_spectra():
        for _, exc in _replay(b, [("appendix-c", _appendix_c_tasks(dims, seed))]):
            raise exc


def _appendix_c_tasks(dims, seed: int):
    """The battery's row groups as seven tasks in report order.  Every
    random input is drawn here, in the order the rows have always drawn
    them, so no task reads the generator.
    A residual call appends its (r1, r2) pair, which :func:`_replay`
    folds."""
    d1, d2, d3 = dims
    triple = lab.FiniteFactorTriple(d1, d2, d3)
    rng = random.Random(seed)

    def draw(n):
        return lab.random_density(n, rng)

    legs = [(draw(d1 * d2), draw(d3)) for _ in range(3)]
    psi, psi0, psi1 = draw(3), draw(3), draw(3)
    flow_pairs = [(draw(d1), draw(d3)) for _ in range(5)]
    rho_split = draw(d1) if d1 == d3 else None
    entropy_pairs = [(draw(4), draw(4)) for _ in range(10)]
    rho_kms = draw(d1) if d1 == d3 else None
    rho_recon = draw(d1)

    def residual(k):
        def task(sub):
            # the spatial derivative implements both modular flows
            der = lab.spatial_derivative(*legs[k], triple.dims, (0, 1))
            sub.results.append(
                lab.modular_implementation_residual(der, mpf("0.37")))
            if k == 2:
                der_inv = lab.matmul(der.dense(), der.inverse().dense())
                n = der_inv.rows
                sub.check("spatial-derivative-inverse",
                          max(abs(der_inv[i, j] - (1 if i == j else 0))
                              for i in range(n) for j in range(n)), "1e-20")
        return task

    def cocycles(sub):
        # cocycles on a 3-dim factor
        res = lab.connes_cocycle(psi, psi0, mpf("0.7"))
        sub.check("cocycle-membership", res.membership_residual, "1e-18")
        sub.check("cocycle-unitary", res.unitarity_residual, "1e-18")
        direct = lab.cocycle_direct(psi, psi0, mpf("0.7"))
        sub.check("cocycle-direct-vs-reconstructed",
                  lab.max_abs_diff(res.u, direct), "1e-16")
        sub.check("cocycle-identity",
                  lab.cocycle_identity_residual(psi, psi0, mpf("0.4"),
                                                mpf("0.3")), "1e-16")
        sub.check("cocycle-chain-rule",
                  lab.cocycle_chain_residual(psi, psi0, psi1, mpf("0.6")),
                  "1e-16")

    def index(sub):
        # index product, several random state pairs
        worst = mpf(0)
        last = None
        for rho1, rho3 in flow_pairs:
            flow = lab.canonical_flow(triple, rho1, rho3)
            last = lab.index_product(triple, rho1, rho3, flow)
            worst = max(worst, last.deviation)
        sub.check(f"index-product-d2sq-{d1}{d2}{d3}", worst, "1e-8",
                  lhs=last.product, rhs=last.expected)
        # symmetric split: each mass separately equals d2
        if rho_split is not None:
            flow = lab.canonical_flow(triple, rho_split, rho_split)
            out = lab.index_product(triple, rho_split, rho_split, flow)
            sub.check("symmetric-split-masses",
                      max(abs(out.mass1 - d2), abs(out.mass2 - d2)), "1e-8",
                      lhs=out.mass1, rhs=mpf(d2))

    def entropy(sub):
        # relative entropy vs density-matrix oracle
        worst = mpf(0)
        for r1, r2 in entropy_pairs:
            worst = max(worst, abs(lab.araki_relative_entropy(r1, r2)
                                   - lab.relative_entropy_oracle(r1, r2)))
        sub.check("araki-vs-oracle", worst, "1e-12")
        sub.check("pimsner-popa-consistency",
                  abs(lab.pimsner_popa_entropy(triple)
                      - 2 * log(sqrt(triple.index))), "1e-20")

    def kms(sub):
        # derivative identity at the KMS point (symmetric split only)
        if rho_kms is not None:
            try:
                rep = lab.entropy_derivative_identity(triple, rho_kms)
                sub.check("kms-mass", rep.mass_residual, "1e-6")
                sub.check("kms-derivative-identity", rep.identity_residual,
                          "1e-6")
            except ToolkitError as exc:
                sub.record_error("kms-derivative-identity", exc)
        sub.check("reconstruction-flow-restriction",
                  lab.reconstruction_flow_residual(triple, rho_recon), "1e-16")

    return [residual(0), residual(1), residual(2), cocycles, index, entropy,
            kms]


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


#: The batteries in report order: name -> tasks(cfg, md, corrupt_sign), the
#: battery's tasks in report order, where ``md()`` returns the modular data
#: of model ``cfg.m``.  A task appends its rows to the battery it is given.
BATTERIES = {
    "modular": lambda cfg, md, corrupt: [lambda b: battery_modular(b, md())],
    "characters": lambda cfg, md, corrupt: [
        lambda b: battery_characters(b, md(), cfg.cutoff)],
    "virasoro": lambda cfg, md, corrupt: _virasoro_tasks(),
    "fock": lambda cfg, md, corrupt: _fock_tasks(cfg.seed, corrupt),
    "appendix-c": lambda cfg, md, corrupt: _appendix_c_tasks(cfg.dims, cfg.seed),
    "bridge": lambda cfg, md, corrupt: [battery_bridge],
}

#: The lane table: for each battery, the indices of its tasks that the
#: forked child runs; the caller runs the others.
CHILD_TASKS = {
    # The first two cover embeddings and the ratio scan.  Serial task times
    # (s, median of 7 at 50 digits, seeds of the verify_all benchmark): an
    # embedding 0.044-0.052, the brute-force cases 0.108, the scan 0.125,
    # modular and characters 0.036.  With the lab's split below this puts
    # the lanes at child/caller 0.38/0.37 at the default dims 2,3,2 and
    # 0.95/1.04 at 3,4,3; the whole virasoro battery in the child would
    # give 0.36/0.40 and 0.92/1.07.
    "virasoro": (0, 1),
    "fock": (1,),
    # Residual calls 1 and 2 and the entropy rows; the caller runs the third
    # call with the inverse, the cocycles, the index product and KMS.
    # Serial task times (s, mean of two runs at 50 digits) put the lanes at
    # child/caller 0.16/0.10 (2,2,2), 0.16/0.12 (2,3,2), 0.27/0.17 (2,3,4),
    # 0.75/0.92 (3,4,3) and 2.99/3.43 (4,4,4).  Its busier lane is at most
    # 1.22 times an even split over these dims, and no split of the seven
    # tasks does better at its worst.  Run on two lanes (median of 5, in
    # one process), it was the fastest of six candidate splits at 3,4,3
    # and within 4% of the fastest at 2,2,2, 2,3,2 and 2,3,4.
    "appendix-c": (0, 1, 5),
}


def run_batteries(cfg, names, corrupt_sign: bool = False) -> Battery:
    """The rows of the batteries in ``names``, in report order.  ``cfg``
    gives ``m``, ``cutoff``, ``seed`` and ``dims``.  The model and its
    modular data are built on first use and kept; a build that raises is
    tried again by the next battery that needs it, so each such battery
    gets its own FAIL row."""
    md = functools.cache(lambda: modular_data.modular_matrices(
        modular_data.build_minimal_model(cfg.m)))
    batteries = [(name, tasks(cfg, md, corrupt_sign))
                 for name, tasks in BATTERIES.items() if name in names]
    b = Battery()
    with lab.shared_spectra():
        for name, exc in _replay(b, batteries):
            if not isinstance(exc, ToolkitError):
                raise exc
            # the report keeps the rows so far and this FAIL row
            b.record_error(f"{name}-battery", exc)
    return b


def _replay(b: Battery, batteries):
    """Run the tasks of ``batteries``, (name, tasks) pairs in report order,
    on the lanes of :data:`CHILD_TASKS`, and append their rows to ``b`` in
    report order.  Yields (name, exception) for each task that raised,
    after its rows; the battery's later tasks are then skipped (in process
    they never run, and the child's rows are dropped)."""
    named = [(name, i, task) for name, tasks in batteries
             for i, task in enumerate(tasks)]
    outcome = lanes.run(
        [lambda rows, task=task: task(Battery(rows)) for _, _, task in named],
        {k for k, (name, i, _) in enumerate(named)
         if i in CHILD_TASKS.get(name, ())})
    failed = None
    pairs = []
    for k, (name, _, _) in enumerate(named):
        if name == failed:
            continue
        rows, exc = outcome(k)
        for row in rows:
            if not isinstance(row, tuple):
                b.results.append(row)
                continue
            # a residual call's (r1, r2); the row folds the three in call order
            pairs.append(row)
            if len(pairs) == 3:
                worst1 = worst2 = mpf(0)
                for r1, r2 in pairs:
                    worst1, worst2 = max(worst1, r1), max(worst2, r2)
                b.check("spatial-derivative-implements", max(worst1, worst2),
                        "1e-18")
        if exc is not None:
            failed = name
            yield name, exc
