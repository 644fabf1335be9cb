"""Arithmetic bridge between the computed invariants and horizon quantities.

Geometric units throughout (G = hbar = c_light = 1).  A Schwarzschild hole of
mass M has surface gravity kappa = 1/(4M), horizon area A = 16 pi M^2,
inverse Hawking temperature beta = 2 pi / kappa, and Bekenstein entropy
S = A/4.  The boundary-theory dictionary c/12 = A/(8 pi) converts between
the central charge and the area, so S = A/4 matches the leading heat-trace
invariant 2 pi c/12 of a two-component theory.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, exp, log, pi, sqrt

from .errors import ModularityWarning


@dataclass(frozen=True)
class BlackHoleParams:
    area: object             # horizon area A
    surface_gravity: object  # kappa
    mass: object             # M

    def __post_init__(self):
        for name in ("area", "surface_gravity", "mass"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @staticmethod
    def schwarzschild(mass) -> "BlackHoleParams":
        m = _positive("mass", mass)
        return BlackHoleParams(area=16 * pi * m * m,
                               surface_gravity=1 / (4 * m), mass=m)

    @staticmethod
    def from_area(area) -> "BlackHoleParams":
        a = _positive("area", area)
        m = sqrt(a / (16 * pi))
        return BlackHoleParams(area=a, surface_gravity=1 / (4 * m), mass=m)

    @staticmethod
    def from_central_charge(c) -> "BlackHoleParams":
        """Invert c/12 = A/(8 pi)."""
        c = _positive("central charge", c)
        return BlackHoleParams.from_area(2 * pi * c / 3)


def _positive(name, x):
    """``x`` as an mpf, refused unless finite and above zero: zero would
    divide by zero, and nan or inf would give a nan or degenerate horizon."""
    x = mpf(x)
    if not (x > 0 and mp.isfinite(x)):
        raise ValueError(f"{name} must be positive and finite")
    return x


@dataclass(frozen=True)
class HorizonSummary:
    beta: object       # 2 pi / kappa
    entropy: object    # A / 4
    c: object          # 3 A / (2 pi)
    area: object


def hawking_and_bekenstein(p: BlackHoleParams) -> HorizonSummary:
    return HorizonSummary(beta=2 * pi / p.surface_gravity,
                          entropy=p.area / 4,
                          c=3 * p.area / (2 * pi),
                          area=p.area)


@dataclass(frozen=True)
class AlphaReport:
    alpha: object          # extracted proportionality constant
    residual: object       # relative defect of dS/dM = beta at the given alpha
    step: object


def verify_alpha_quarter(mass, d_mass, alpha=Fraction(1, 4)) -> AlphaReport:
    """Fix the entropy-area constant from the first law.

    With S(M) = alpha 16 pi M^2 and beta = 8 pi M, the relation dS = beta dM
    forces alpha = 1/4.  The derivative of the unit-alpha entropy is taken by
    central differences; the extracted alpha is beta / (dS_unit/dM), and the
    residual reports how badly a *given* alpha violates the relation.
    """
    m = mpf(mass)
    h = mpf(d_mass)
    if not 0 < h < m:
        raise ValueError("need 0 < d_mass < mass")

    def s_unit(x):
        return 16 * pi * x * x

    deriv = (s_unit(m + h) - s_unit(m - h)) / (2 * h)
    beta = 8 * pi * m
    extracted = beta / deriv
    a = mpf(alpha.numerator) / alpha.denominator if isinstance(alpha, Fraction) else mpf(alpha)
    residual = abs(a * deriv - beta) / beta
    return AlphaReport(alpha=extracted, residual=residual, step=h)


@dataclass(frozen=True)
class CellCount:
    degrees: int          # exact big integer, prod k_i^{n_i}
    entropy: object       # C sum n_i log k_i
    constant: object


def cell_entropy(cells, constant=1) -> CellCount:
    """Degrees of freedom and entropy of a cell decomposition.

    ``cells`` is a list of (k, n) pairs: n cells with k degrees of freedom
    each.  Degrees are counted exactly; the entropy is C sum n log k, and
    adding one k-cell increments it by C log k.
    """
    degrees = 1
    ent = mpf(0)
    const = mpf(constant)
    for k, n in cells:
        if k < 1 or n < 0:
            raise ValueError("need k >= 1 and n >= 0")
        degrees *= k ** n
        ent += n * log(mpf(k))
    return CellCount(degrees=degrees, entropy=const * ent, constant=const)


def cell_increment(k, constant=1):
    """Entropy increment from adding a single k-state cell: C log k."""
    return mpf(constant) * log(mpf(k))


@dataclass(frozen=True)
class IncrementalFreeEnergy:
    dF: object
    chi_increment: object      # 12 (a1_rho - a1_sigma), the Euler-characteristic jump
    cross_check_dev: object    # |log d_rho - log d_sigma - (a1_rho - a1_sigma)| or None


def incremental_free_energy(d_rho, d_sigma, kappa, a1_rho=None, a1_sigma=None,
                            cross_tol=mpf("1e-3")) -> IncrementalFreeEnergy:
    """dF = (2 pi / kappa)(log d_rho - log d_sigma) for adding one charge and
    removing another.

    When fitted first invariants are supplied, the identity
    log d_rho - log d_sigma = a1_rho - a1_sigma is cross-checked; failure
    beyond ``cross_tol`` emits :class:`ModularityWarning` (not fatal: the
    identity needs modularity of the underlying family)."""
    d_rho, d_sigma, kappa = mpf(d_rho), mpf(d_sigma), mpf(kappa)
    if d_rho < 1 or d_sigma < 1 or kappa <= 0:
        raise ValueError("need d >= 1 and kappa > 0")
    log_jump = log(d_rho) - log(d_sigma)
    dF = (2 * pi / kappa) * log_jump
    dev = None
    chi = 12 * log_jump
    if a1_rho is not None and a1_sigma is not None:
        fitted = mpf(a1_rho) - mpf(a1_sigma)
        dev = abs(log_jump - fitted)
        chi = 12 * fitted
        if dev > cross_tol:
            warnings.warn(
                f"fitted a1 difference deviates from dimension arithmetic by "
                f"{mp.nstr(dev, 4)}", ModularityWarning)
    return IncrementalFreeEnergy(dF=dF, chi_increment=chi, cross_check_dev=dev)


@dataclass(frozen=True)
class MuFreeEnergy:
    log_zn_kms: object        # ((n-1)/2) log mu + log d
    f_n_mu: object            # -((n-1)/(4 pi)) log mu - (1/(2 pi)) log d
    f_mean_mu: object         # -(1/(4 pi)) log mu
    a0_mu: object             # (1/2) log mu
    a1_mu_formula: tuple      # ("log mu - mean relative entropy", log mu term)


def mu_free_energy(mu, d, n: int) -> MuFreeEnergy:
    """Free-energy family of the n-interval proper Hamiltonian.

    The defining input is log Z_n at the equilibrium point,
    ((n-1)/2) log mu + log d.  The first local invariant carries a mean
    relative-entropy term that only exists at the level of the full family
    of interval algebras, so it is returned as a structural formula (its
    finite-dimensional counterpart lives in :mod:`cftinv.lab`), never as a
    fabricated number.
    """
    mu, d = mpf(mu), mpf(d)
    if mu < 1 or d < 1 or n < 1:
        raise ValueError("need mu >= 1, d >= 1, n >= 1")
    log_mu, log_d = log(mu), log(d)
    return MuFreeEnergy(
        log_zn_kms=(n - 1) / mpf(2) * log_mu + log_d,
        f_n_mu=-(n - 1) / (4 * pi) * log_mu - log_d / (2 * pi),
        f_mean_mu=-log_mu / (4 * pi),
        a0_mu=log_mu / 2,
        a1_mu_formula=("log mu - mean relative entropy", log_mu),
    )


def cardy_density_reference(c, lam):
    """Heuristic density-of-states curve exp(2 pi sqrt(c (lam - c/24)/6)).

    Reference curve only: it rests on extra assumptions and is not used by
    any verified check in this package.
    """
    c, lam = mpf(c), mpf(lam)
    arg = c * (lam - c / 24) / 6
    if arg < 0:
        raise ValueError("lam must exceed c/24")
    return exp(2 * pi * sqrt(arg))
