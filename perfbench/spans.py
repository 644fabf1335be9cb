"""Spans around the public functions of every cftinv module.

The tracer replaces each public function of the layer modules, in every
cftinv namespace that binds it, with a wrapper that records a span: name,
start, end, parent span and command id.  ``spectral`` binds ``evaluate``
through ``from .characters import evaluate``, so that binding is wrapped
too; a name reached through several namespaces gets one wrapper, hence one
span per call.  mpmath's ``eighe`` is wrapped where cftinv binds it, which
counts eigendecompositions.  Spans stay in memory until :meth:`Tracer.write`.

A span's self time is its duration minus the time its child spans cover,
where a child covers its whole wrapper, bookkeeping included, so tracer
overhead lands in no layer's self time.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import defaultdict

import mpmath
from mpmath import mp

import cftinv

LAYERS = ("modular_data", "characters", "spectral", "virasoro", "fock",
          "lab", "bridge", "reports", "cli")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, command, self_s]
        self.command = -1
        self._stack = []         # [span index, time covered by children]
        self._installed = []     # (namespace, attribute, original)
        self.evaluations = []    # one record per characters.evaluate call
        self.eighe_inputs = []   # hash of each eighe input matrix
        self.leaves = 0
        self.ratio_terms = 0
        self.coeffs_built = 0
        self.trace_evals = 0
        self.trace_points = 0

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            entered = clock()
            index = len(spans)
            spans.append(None)
            stack.append([index, 0.0])
            start = clock()
            end = None
            try:
                result = fn(*args, **kwargs)
                end = clock()
                return result if after is None else after(result, *args, **kwargs)
            finally:
                if end is None:          # fn raised
                    end = clock()
                _, covered = stack.pop()
                spans[index] = (name, start, end, stack[-1][0] if stack else -1,
                                self.command, end - start - covered)
                if stack:
                    stack[-1][1] += clock() - entered

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every public function of the layer modules, in every
        cftinv namespace that binds it, and mpmath's eighe."""
        modules = {layer: sys.modules[f"cftinv.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    hook = getattr(self, f"_after_{layer}_{attr}", None)
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj, hook)
        namespaces = [cftinv] + [m for n, m in sys.modules.items()
                                 if n.startswith("cftinv.")]
        for ns in namespaces:
            short = ns.__name__.rpartition(".")[2]
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    new = wrappers[id(obj)]
                elif obj is mpmath.eighe:
                    new = self._wrap(f"{short}.eighe", obj, self._after_eighe)
                else:
                    continue
                self._installed.append((ns, attr, obj))
                setattr(ns, attr, new)

    def uninstall(self):
        for ns, attr, obj in reversed(self._installed):
            setattr(ns, attr, obj)
        self._installed.clear()

    # --------------------------------------------------- per-function hooks

    def _after_characters_evaluate(self, result, series, t, shifted=True, tol=None):
        self.evaluations.append((mpmath.mpf(t), series.sector.h, series.c, shifted,
                                 series.cutoff, tol, mp.dps, result.value))
        return result

    def _after_characters_character_coeffs(self, result, *args, **kwargs):
        self.coeffs_built += len(result.coeffs)
        return result

    def _after_fock_gamma_trace_bruteforce(self, result, *args, **kwargs):
        self.leaves += result.terms
        return result

    def _after_fock_fermi_ratio_scan(self, result, h, t_grid, *args, **kwargs):
        self.ratio_terms += len(h.eigenvalues) * len(result)
        return result

    def _after_eighe(self, result, a, *args, **kwargs):
        self.eighe_inputs.append(hash(tuple(a[i, j] for i in range(a.rows)
                                            for j in range(a.cols))))
        return result

    def _after_spectral_sector_log_trace(self, result, *args, **kwargs):
        """Count the trace evaluations behind the returned (fn, err_fn)."""
        points = set()

        def counted(f):
            def g(t):
                self.trace_evals += 1
                key = mpmath.mpf(t)
                if key not in points:
                    points.add(key)
                    self.trace_points += 1
                return f(t)
            return g

        return tuple(counted(f) for f in result)

    # ------------------------------------------------------------- results

    def metrics(self) -> dict:
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for name, _, _, _, _, own in self.spans:
            calls[name] += 1
            self_s[name] += own
            self_s[name.partition(".")[0]] += own
        terms = sum(rec[4] + 1 for rec in self.evaluations)
        needed = sum(needed_terms(*rec) for rec in self.evaluations)
        bf_s = self_s["fock.gamma_trace_bruteforce"]
        ev_calls = len(self.eighe_inputs)
        out = {
            "characters.evaluate.calls": calls["characters.evaluate"],
            "characters.evaluate.self_s": self_s["characters.evaluate"],
            "characters.evaluate.terms": terms,
            "characters.evaluate.useful_ratio": needed / terms if terms else 0.0,
            "characters.evaluate_small_t.calls": calls["characters.evaluate_small_t"],
            "characters.evaluate_small_t.self_s": self_s["characters.evaluate_small_t"],
            "characters.s_transform_residual.self_s":
                self_s["characters.s_transform_residual"],
            "characters.all_character_series.calls":
                calls["characters.all_character_series"],
            "characters.all_character_series.self_s":
                self_s["characters.all_character_series"],
            "characters.character_coeffs.self_s": self_s["characters.character_coeffs"],
            "characters.partition_numbers.self_s":
                self_s["characters.partition_numbers"],
            "characters.coeffs_built": self.coeffs_built,
            "characters.coeff_dump.self_s": self_s["characters.coeff_dump"],
            "spectral.log_trace.evals": self.trace_evals,
            "spectral.log_trace.evals_per_point":
                self.trace_evals / self.trace_points if self.trace_points else 0.0,
            "spectral.fit_invariants.calls": calls["spectral.fit_invariants"],
            "spectral.fit_invariants.self_s": self_s["spectral.fit_invariants"],
            "lab.eighe.calls": ev_calls,
            "lab.eighe.self_s": self_s["lab.eighe"],
            "lab.eighe.distinct_ratio":
                len(set(self.eighe_inputs)) / ev_calls if ev_calls else 0.0,
            "lab.embed.calls": calls["lab.embed"],
            "lab.embed.self_s": self_s["lab.embed"],
        }
        for fn in ("index_product", "modular_implementation_residual",
                   "araki_relative_entropy", "entropy_derivative_identity",
                   "connes_cocycle"):
            out[f"lab.{fn}.self_s"] = self_s[f"lab.{fn}"]
        out.update({
            "fock.gamma_trace_bruteforce.calls": calls["fock.gamma_trace_bruteforce"],
            "fock.gamma_trace_bruteforce.self_s": bf_s,
            "fock.bruteforce.leaves": self.leaves,
            "fock.bruteforce.leaves_per_s": self.leaves / bf_s if bf_s else 0.0,
            "fock.fermi_ratio_scan.self_s": self_s["fock.fermi_ratio_scan"],
            "fock.fermi_ratio_scan.terms": self.ratio_terms,
            "virasoro.verify_embedding.self_s": self_s["virasoro.verify_embedding"],
            "virasoro.bracket.calls": calls["virasoro.bracket"],
            "modular_data.modular_matrices.self_s":
                self_s["modular_data.modular_matrices"],
            "modular_data.verlinde_fusion.self_s":
                self_s["modular_data.verlinde_fusion"],
            "bridge.self_s": self_s["bridge"],
            "reports.dumps.self_s": self_s["reports.dumps"],
            "reports.csv_text.self_s": self_s["reports.csv_text"],
            "reports.self_s": self_s["reports"],
            "cli.self_s": self_s["cli"],
        })
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def needed_terms(t, h, c, shifted, cutoff, tol, dps, value):
    """Terms of the series that the documented tail bound says suffice.

    With p(k) <= e^{pi sqrt(2k/3)}, the tail past index N is below
    e^{-2 pi t (h [- c/24])} r^{N+1} / (1 - r), r = e^{pi sqrt(2/3)/sqrt(N+1)
    - 2 pi t}.  Returns the smallest N + 1 whose tail is within the
    tolerance ``evaluate`` certifies (its default when ``tol`` is None),
    capped at the terms the stored cutoff holds.
    """
    t = float(t)
    if tol is None:
        tol = abs(value) * mpmath.mpf(10) ** (6 - dps) + mpmath.mpf(10) ** (-2 * dps)
    log_tol = float(mpmath.log(tol))
    front = -2 * math.pi * t * (float(h) - (float(c) / 24 if shifted else 0.0))
    a, b = math.pi * math.sqrt(2 / 3), 2 * math.pi * t

    def log_tail(n1):        # n1 = N + 1 terms kept
        rate = a / math.sqrt(n1) - b
        return front + n1 * rate - math.log(-math.expm1(rate))

    lo = max(1, math.ceil((a / b) ** 2) + 1)    # first n1 with rate < 0
    hi = cutoff + 1
    if lo >= hi or log_tail(hi) > log_tol:
        return hi
    while lo < hi:                              # log_tail decreases on [lo, hi]
        mid = (lo + hi) // 2
        if log_tail(mid) <= log_tol:
            hi = mid
        else:
            lo = mid + 1
    return lo
