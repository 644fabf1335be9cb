"""Sector data and modular matrices of the unitary c < 1 minimal models.

The model with label m >= 3 has central charge c = 1 - 6/(m(m+1)) and one
irreducible sector per class of the Kac-table identification
(r, s) ~ (m-r, m+1-s).  Conformal weights are

    h_{r,s} = ((r(m+1) - s m)^2 - 1) / (4 m (m+1)),

kept as exact rationals.  The S matrix is real symmetric orthogonal,

    S_{(r,s),(r',s')} = sqrt(8/(m(m+1))) (-1)^{1 + r s' + s r'}
                        sin(pi (m+1) r r' / m) sin(pi m s s' / (m+1)),

and T is the diagonal of phases exp(2 pi i (h - c/24)).  Everything numeric
is carried at the ambient mpmath precision (50 digits by default); the
character-transform residual in :mod:`cftinv.characters` certifies that this
S matrix is the one acting on the character span.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, matrix, sin, pi, sqrt, exp, power, root

from .errors import InvalidModelError, FusionIntegralityError
from .reports import decstr

DEFAULT_DPS = 50


def mpq(x: Fraction):
    """Exact rational -> mpf at current precision."""
    return mpf(x.numerator) / x.denominator


@dataclass(frozen=True)
class Sector:
    """One irreducible sector, labelled by its Kac-table representative."""

    r: int
    s: int
    h: Fraction
    d: object  # quantum dimension, mpf

    @property
    def name(self) -> str:
        return "vacuum" if self.h == 0 else f"h={self.h}"


@dataclass(frozen=True)
class MinimalModel:
    m: int
    c: Fraction
    sectors: tuple

    def sector_index(self, selector) -> int:
        """Resolve a sector given an index, an (r, s) pair, 'vacuum', or an
        exact weight string like '1/16'."""
        if isinstance(selector, int):
            return selector
        if isinstance(selector, tuple):
            for i, sec in enumerate(self.sectors):
                if (sec.r, sec.s) == selector:
                    return i
            raise KeyError(f"no sector with Kac label {selector}")
        if selector == "vacuum":
            return 0
        h = Fraction(selector)
        for i, sec in enumerate(self.sectors):
            if sec.h == h:
                return i
        raise KeyError(f"no sector with weight {selector}")


@dataclass(frozen=True)
class ModularData:
    """S, T, quantum dimensions and the global index mu = sum d_i^2."""

    model: MinimalModel
    S: object            # mp.matrix, real symmetric orthogonal
    T: tuple             # unit-modulus phases exp(2 pi i (h_i - c/24))
    dims: tuple          # d_i = S_{i0}/S_{00}
    mu: object           # mpf, equals S_00^{-2}


def _fundamental_domain(m: int):
    """Kac-table representatives with r(m+1) - s m > 0, sorted by (h, r, s)."""
    out = []
    for r in range(1, m):
        for s in range(1, m + 1):
            lam = r * (m + 1) - s * m
            if lam > 0:
                out.append((Fraction(lam * lam - 1, 4 * m * (m + 1)), r, s))
    out.sort()
    return out


def _smatrix_entry(m: int, r1, s1, r2, s2):
    pref = sqrt(mpf(8) / (m * (m + 1)))
    sign = -1 if (1 + r1 * s2 + s1 * r2) % 2 else 1
    return pref * sign * sin(pi * (m + 1) * r1 * r2 / m) * sin(pi * m * s1 * s2 / (m + 1))


def build_minimal_model(m: int) -> MinimalModel:
    """Construct the sector data of the m-th unitary minimal model."""
    if not isinstance(m, int) or m < 3:
        raise InvalidModelError(f"minimal model label must be an integer >= 3, got {m!r}")
    c = Fraction(1) - Fraction(6, m * (m + 1))
    dom = _fundamental_domain(m)
    assert len(dom) == (m - 1) * m // 2
    r0, s0 = dom[0][1], dom[0][2]
    assert dom[0][0] == 0, "vacuum must come first"
    s00 = _smatrix_entry(m, r0, s0, r0, s0)
    sectors = []
    for h, r, s in dom:
        d = _smatrix_entry(m, r, s, r0, s0) / s00
        sectors.append(Sector(r=r, s=s, h=h, d=d))
    return MinimalModel(m=m, c=c, sectors=tuple(sectors))


def modular_matrices(model: MinimalModel) -> ModularData:
    """S and T matrices, quantum dimensions and the global index."""
    secs = model.sectors
    n = len(secs)
    S = matrix(n, n)
    for i, a in enumerate(secs):
        for j, b in enumerate(secs):
            S[i, j] = _smatrix_entry(model.m, a.r, a.s, b.r, b.s)
    c24 = mpq(model.c) / 24
    T = tuple(exp(2j * pi * (mpq(sec.h) - c24)) for sec in secs)
    dims = tuple(S[i, 0] / S[0, 0] for i in range(n))
    mu = sum(d * d for d in dims)
    return ModularData(model=model, S=S, T=T, dims=dims, mu=mu)


def verlinde_fusion(md: ModularData, tol=1e-8):
    """Fusion multiplicities N_{ij}^k = sum_l S_il S_jl S_kl / S_0l.

    Raises :class:`FusionIntegralityError` when any entry is farther than
    ``tol`` from a nonnegative integer, which would signal a wrong S matrix.
    """
    S = md.S
    n = S.rows
    N = [[[0] * n for _ in range(n)] for _ in range(n)]
    worst = mpf(0)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                val = sum(S[i, l] * S[j, l] * S[k, l] / S[0, l] for l in range(n))
                nearest = int(mp.nint(val))
                dev = abs(val - nearest)
                worst = max(worst, dev)
                if dev > tol or nearest < 0:
                    raise FusionIntegralityError(
                        f"N_{i}{j}^{k} = {decstr(val, 20)} is not a nonnegative "
                        f"integer within {tol}", worst=dev)
                N[i][j][k] = nearest
    return N


def mu_n_index(d, mu, n: int):
    """Jones index of the symmetric n-interval inclusion in a sector of
    dimension d, together with its n-th root.

    Returns ``(d^2 mu^(n-1), (d^2 mu^(n-1))^(1/n))``; the root converges to
    mu as n grows, so the global index is measurable inside one interval.
    """
    d = mpf(d)
    mu = mpf(mu)
    if d < 1 or mu < 1 or n < 1:
        raise ValueError("need d >= 1, mu >= 1, n >= 1")
    index = d * d * power(mu, n - 1)
    return index, root(index, n)


def to_json_dict(md: ModularData) -> dict:
    """JSON document with exact rationals and full-precision decimal strings."""
    model = md.model
    return {
        "m": model.m,
        "c": f"{model.c.numerator}/{model.c.denominator}",
        "sectors": [
            {"r": sec.r, "s": sec.s,
             "h": f"{sec.h.numerator}/{sec.h.denominator}",
             "d": decstr(sec.d)}
            for sec in model.sectors
        ],
        "S": [[decstr(md.S[i, j]) for j in range(md.S.cols)]
              for i in range(md.S.rows)],
        "mu": decstr(md.mu),
    }
