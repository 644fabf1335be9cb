"""Finite-dimensional modular theory on a three-leg tensor product.

The ambient space is H1 (x) H2 (x) H3.  N1 is the full matrix algebra on the
first leg, N2 the one on the third, M1 = N2' acts on legs (1, 2) and
M2 = N1' on legs (2, 3).  The trace-preserving conditional expectation
M1 -> N1 averages the middle leg, and the inclusion N1 in M1 has index
(dim H2)^2.  Every weight/flow/index statement below is realized with
explicit matrices at mpmath precision, so the residual tolerances on the
checks are orders of magnitude below double rounding.

Spatial derivatives: for a state phi on the algebra of a leg subset R and a
state psi on its complement, d(phi)/d(psi) is the positive operator
rho_phi (x) rho_psi^{-1}; its imaginary powers implement the modular group
of phi on R and the inverse flow of psi on the commutant.  Flows are kept
in leg-factorized form (one Hermitian generator per leg, held as its
spectrum, plus a scalar), which both enforces the invariance
Ad V(t) N_i = N_i structurally and keeps all computations on small per-leg
matrices.

Convention fixed here once: the flow generator K of the canonical setup is
K = log rho_1 on leg 1 minus log rho_3 on leg 3, i.e. d(psi_1)/d(phi_2) = e^K
for the weight psi_1 on M1, and its mass is recovered by solving that
equation.  With this orientation the index product, the symmetric-split
masses, and the derivative identity below all close numerically; reports
carry the convention tag so the orientation is auditable.

One eigendecomposition per density: :func:`spectrum` calls ``eighe`` and
applies the positivity/condition guard, and every f(A) is read off the
resulting :class:`Spectrum` as Q diag(f(lambda)) Q*.  ``eighe`` is
deterministic at a given precision and rounding, so reusing a spectrum
gives the same bits, and the same report bytes, as decomposing A again.
Inside a :func:`shared_spectra` block, :func:`spectrum` keys each result
by (precision, rounding, shape, raw entries) and hands an equal input the
spectrum already made; the guard still runs on every call, with that
call's name and error.  ``verify.battery_appendix_c`` (the ``lab``
command, and the lab part of ``verify``) runs inside one block, so across
the battery each density is decomposed once: the oracle
:func:`relative_entropy_oracle` shares the decompositions of
:func:`araki_relative_entropy`, the flow hypothesis check those of
:func:`canonical_flow`, and the cocycle checks those of
:func:`connes_cocycle`.  The block ends with the battery, on return or
exception, so nothing is kept from one command to the next; outside a
block every call decomposes afresh.  Nothing writes to a spectrum's
``evals`` (a tuple) or ``q``.  A flow generator K = log rho is the
spectrum of rho with log applied to its eigenvalues, so the canonical flow
decomposes no generator and its weight masses are sums of exp(+-lambda)
over those eigenvalues.

The battery runs its row groups on two lanes, the caller and one forked
child (``cftinv.verify`` says when and why).  The caller draws every
random density from the battery's generator, in the rows' order, before
the fork.  The memo is the module global ``_shared``, so each lane fills
its own copy of the block's memo; each row group keeps its densities to
itself, so no density is decomposed in both lanes, and the child's copy
ends with the child.

Linear algebra with mpmath's bits: ``eighe``, :func:`matmul` and the
single-term and column-sparse kernels come from :mod:`cftinv.linalg`,
whose docstring gives the arguments.  ``eighe`` is mpmath's Householder/QL
routine ported onto raw libmp tuples: the same libmp call for each
operator, in the same order, at the same precision and rounding, so E and
Q have mpmath's bits and types.  ``matmul`` returns the bits of mpmath's
``a * b``.  Two products here have at most one nonzero term per entry, and
form it alone, exactly, rounded once by ``from_man_exp`` as ``matmul``
rounds its exact sum:
:func:`leg_product` multiplies operators embedded on complementary legs,
whose entry (i, j) is a[i_R, j_R] b[i_C, j_C], and ``Spectrum.fun`` scales
the columns of Q by f(lambda) before its one dense product.  Their entries
follow ``matmul``'s rules: ``fdot`` where it would fall back to it, an mpc
iff the row or the column holds one, and zeros not stored.  The residual
:func:`modular_implementation_residual` forms u embed(x) with
:func:`embedded_product`, which sums only the terms where the embedded
factor is nonzero, and compares with :func:`max_abs_diff`, entry by entry
as mpmath's matrix difference does, without building the difference.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, replace

from mpmath import mp, mpf, mpc, matrix, exp, log, sqrt, pi

from .errors import (CocycleError, HypothesisViolationError,
                     IdentityViolationError, NotSeparatingError,
                     RankDeficiencyError)
from .linalg import (_raw, column_sparse_product, eighe, matmul,
                     scale_columns, single_term_product)

CONDITION_GUARD = mpf("1e12")
# Largest d1*d2*d3 the command line accepts: the dense operators on the full
# space are (d1 d2 d3)^2 matrices and each product of two costs (d1 d2 d3)^3.
MAX_DIM = 64
SIGN_CONVENTION = "d(psi1)/d(phi2) = exp(K); KMS point at t = 1 (2 pi absorbed)"


# ----------------------------------------------------------- dense helpers

def dag(a):
    return a.T.conjugate()


def eye(n):
    m = matrix(n, n)
    for i in range(n):
        m[i, i] = mpf(1)
    return m


def kron(a, b):
    out = matrix(a.rows * b.rows, a.cols * b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            x = a[i, j]
            if x == 0:
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    out[i * b.rows + k, j * b.cols + l] = x * b[k, l]
    return out


def max_abs_diff(a, b):
    """The largest |a_ij - b_ij| with the bits of the largest ``abs`` of an
    entry of mpmath's ``a - b``, without forming ``a - b``: mpmath's matrix
    difference is ``a + b * (-1)``, whose entry (i, j) is
    ``a_ij + (-1) * b_ij``."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("incompatible dimensions for subtraction")
    return max(abs(a[i, j] + (-1) * b[i, j])
               for i in range(a.rows) for j in range(a.cols))


def trace(a):
    return sum(a[i, i] for i in range(a.rows))


@dataclass(frozen=True)
class Spectrum:
    """A Hermitian matrix as Q diag(evals) Q*: decomposed once by
    :func:`spectrum`, then every function of it is read off here.  A
    spectrum may be shared (see :func:`shared_spectra`), so nothing writes
    to ``evals`` or ``q``."""

    evals: tuple
    q: object

    def fun(self, f):
        """f(A) = Q diag(f(lambda_i)) Q*, scaling the columns of Q before
        the one dense product."""
        d = matrix(len(self.evals), len(self.evals))
        for i, lam in enumerate(self.evals):
            d[i, i] = f(lam)
        return matmul(scale_columns(self.q, d), dag(self.q))

    def log(self):
        return self.fun(log)

    def pow(self, s):
        """A^s for real or complex s (A positive)."""
        return self.fun(lambda lam: exp(s * log(lam)))


#: Spectra by input while :func:`shared_spectra` is active, else None.
_shared = None


@contextmanager
def shared_spectra():
    """Within the block, :func:`spectrum` decomposes each distinct input
    once and hands the same :class:`Spectrum` to every later call with an
    equal input at the same precision and rounding.  The spectra are
    dropped when the outermost block exits, normally or by an exception."""
    global _shared
    outer = _shared
    if outer is None:
        _shared = {}
    try:
        yield
    finally:
        _shared = outer


def _decompose(a) -> Spectrum:
    e, q = eighe(a)
    return Spectrum(tuple(e[i] for i in range(len(e))), q)


def spectrum(a, what=None, error=RankDeficiencyError) -> Spectrum:
    """Eigendecomposition of Hermitian ``a``, shared within
    :func:`shared_spectra`.  With ``what`` given, ``a`` must be positive
    with condition number at most CONDITION_GUARD, else ``error`` is raised
    naming ``what``; the guard runs on every call."""
    if _shared is None:
        out = _decompose(a)
    else:
        key = (*a.ctx._prec_rounding, a.rows, a.cols,
               tuple(_raw(a[i, j]) for i in range(a.rows)
                     for j in range(a.cols)))
        out = _shared.get(key)
        if out is None:
            out = _shared[key] = _decompose(a)
    if what is not None:
        lo, hi = min(out.evals), max(out.evals)
        if lo <= 0 or hi / lo > CONDITION_GUARD:
            raise error(
                f"{what}: eigenvalues in [{mp.nstr(lo, 5)}, {mp.nstr(hi, 5)}] "
                "fail the positivity/condition guard")
    return out


def mat_log(a, what="density"):
    return spectrum(a, what).log()


def mat_pow(a, s, what="density"):
    """A^s for Hermitian positive A and real or complex s."""
    return spectrum(a, what).pow(s)


def _strides(dims):
    """Row-major strides of a multi-index over ``dims``."""
    out = [1] * len(dims)
    for l in range(len(dims) - 2, -1, -1):
        out[l] = out[l + 1] * dims[l + 1]
    return out


def _leg_index(dims, legs):
    """For every index of the full space, its multi-index over ``legs``
    (in that order) as one row-major index."""
    strides = _strides(dims)
    sub = _strides([dims[l] for l in legs])
    return [sum((i // strides[l]) % dims[l] * s for l, s in zip(legs, sub))
            for i in range(math.prod(dims))]


def _complement(dims, legs):
    return tuple(l for l in range(len(dims)) if l not in legs)


def embed(op, legs, dims):
    """Dense operator on the full product space acting as ``op`` on the
    chosen legs and as the identity elsewhere.  ``legs`` may be any subset."""
    n = math.prod(dims)
    r_of = _leg_index(dims, tuple(legs))
    c_of = _leg_index(dims, _complement(dims, legs))
    out = matrix(n, n)
    for i in range(n):
        for j in range(n):
            if c_of[i] == c_of[j]:
                out[i, j] = op[r_of[i], r_of[j]]
    return out


def embedded_product(a, x, legs, dims):
    """``a * embed(x, legs, dims)`` with :func:`matmul`'s bits, summing only
    the nonzero terms: column j of the embedded factor holds
    x[k_R, j_R] at the rows k with k_C = j_C (R the legs, C the rest)."""
    legs = tuple(legs)
    r_of = _leg_index(dims, legs)
    c_of = _leg_index(dims, _complement(dims, legs))
    blocks = {}
    for k, c in enumerate(c_of):
        blocks.setdefault(c, []).append(k)
    supports = [tuple(blocks[c]) for c in range(len(blocks))]
    cols = [[x[r_of[k], r_of[j]] for k in supports[c]]
            for j, c in enumerate(c_of)]
    return column_sparse_product(a, cols, supports, c_of)


def leg_product(a, b, legs, dims):
    """``embed(a, legs, dims) * embed(b, complement, dims)`` with
    :func:`matmul`'s bits, without forming either factor: entry (i, j) is
    the single term a[i_R, j_R] b[i_C, j_C] (R the legs, C the rest)."""
    n = math.prod(dims)
    r_of = _leg_index(dims, tuple(legs))
    c_of = _leg_index(dims, _complement(dims, legs))
    rows = [[a[r, k] for k in range(a.cols)] for r in range(a.rows)]
    cols = [[b[k, c] for k in range(b.rows)] for c in range(b.cols)]
    zero = a.ctx.zero

    def lines(i, j):
        """Row i of the first embedded factor and column j of the second."""
        return ([rows[r_of[i]][r_of[k]] if c_of[k] == c_of[i] else zero
                 for k in range(n)],
                [cols[c_of[j]][c_of[k]] if r_of[k] == r_of[j] else zero
                 for k in range(n)])

    return single_term_product(
        a.ctx, (n, n), rows, cols,
        lambda i, j: (r_of[i], r_of[j], c_of[j], c_of[i]), lines)


# --------------------------------------------------------------- randomness

def random_density(n, rng: random.Random, floor=mpf("0.08")):
    """Full-rank density matrix with eigenvalues bounded away from zero."""
    g = matrix(n, n)
    for i in range(n):
        for j in range(n):
            g[i, j] = mpc(rng.gauss(0, 1), rng.gauss(0, 1))
    w = matmul(g, dag(g))
    t = trace(w)
    rho = matrix(n, n)
    for i in range(n):
        for j in range(n):
            rho[i, j] = (w[i, j] / t) / (1 + floor)
        rho[i, i] += (floor / n) / (1 + floor)
    return rho


# -------------------------------------------------------------------- types

@dataclass(frozen=True)
class FiniteFactorTriple:
    """Leg dimensions of the H1 (x) H2 (x) H3 realization."""

    d1: int
    d2: int
    d3: int

    @property
    def dims(self):
        return (self.d1, self.d2, self.d3)

    @property
    def index(self):
        """Kosaki index of N1 in M1 for the trace-preserving expectation."""
        return mpf(self.d2) ** 2


@dataclass(frozen=True)
class FlowGenerator:
    """Self-adjoint generator K = sum of per-leg Hermitian terms plus a
    scalar; V(t) = e^{itK}.  Each term acts on one leg, so Ad V(t) preserves
    every leg algebra by construction, and is kept as its spectrum."""

    dims: tuple
    terms: tuple           # one Spectrum per leg, None for a zero term
    const: object

    def generator_on(self, legs):
        """Dense generator restricted to a leg subset (the scalar part is
        not included)."""
        legs = tuple(legs)
        sub = [self.dims[l] for l in legs]
        acc = matrix(math.prod(sub), math.prod(sub))
        for l, sp in enumerate(self.terms):
            if l in legs and sp is not None:
                acc += embed(sp.fun(lambda x: x), (legs.index(l),), sub)
        return acc

def canonical_flow(triple: FiniteFactorTriple, rho1, rho3) -> FlowGenerator:
    """The flow with K = log rho1 on leg 1 and -log rho3 on leg 3, trivial on
    the middle leg: Ad V(t) = modular flow of phi1 on N1 and the inverse
    modular flow of phi2 on N2, compatible with the trace-preserving
    expectation.  The terms are the spectra of rho1 and rho3 with their
    eigenvalues mapped to log lambda and -log mu."""
    sp1, sp3 = spectrum(rho1, "rho1"), spectrum(rho3, "rho3")
    return FlowGenerator(
        dims=triple.dims, const=mpf(0),
        terms=(replace(sp1, evals=tuple(log(x) for x in sp1.evals)), None,
               replace(sp3, evals=tuple(-log(x) for x in sp3.evals))))


# -------------------------------------------------------- spatial derivative

@dataclass(frozen=True)
class SpatialDerivative:
    """d(phi)/d(psi) = rho_phi (x) rho_psi^{-1} for phi on the legs-R algebra
    and psi on the complementary algebra, with the spectra of both densities
    (build it with :func:`spatial_derivative`, which guards them)."""

    dims: tuple
    legs: tuple            # legs carrying phi
    rho_phi: object
    rho_psi: object
    spec_phi: Spectrum
    spec_psi: Spectrum

    @property
    def complement(self):
        return _complement(self.dims, self.legs)

    def dense(self):
        return leg_product(self.rho_phi, self.spec_psi.pow(-1), self.legs,
                           self.dims)

    def power_it(self, t):
        """(d phi/d psi)^{it}, a unitary."""
        return leg_product(self.spec_phi.pow(1j * mpf(t)),
                           self.spec_psi.pow(-1j * mpf(t)), self.legs,
                           self.dims)

    def inverse(self) -> "SpatialDerivative":
        return SpatialDerivative(dims=self.dims, legs=self.complement,
                                 rho_phi=self.rho_psi, rho_psi=self.rho_phi,
                                 spec_phi=self.spec_psi, spec_psi=self.spec_phi)

    def with_psi(self, rho_psi) -> "SpatialDerivative":
        """d(phi)/d(psi') for another state psi' on the complement, reusing
        the spectrum of phi."""
        return replace(self, rho_psi=rho_psi, spec_psi=spectrum(
            rho_psi, "density of psi", NotSeparatingError))


def spatial_derivative(rho_phi, rho_psi, dims, legs) -> SpatialDerivative:
    """Build d(phi)/d(psi); both densities must be full rank (else the state
    is not separating and the derivative is singular)."""
    return SpatialDerivative(
        dims=tuple(dims), legs=tuple(legs), rho_phi=rho_phi, rho_psi=rho_psi,
        spec_phi=spectrum(rho_phi, "density of phi", NotSeparatingError),
        spec_psi=spectrum(rho_psi, "density of psi", NotSeparatingError))


def modular_implementation_residual(der: SpatialDerivative, t, x=None, y=None):
    """max-entry residuals of the two implementation properties:
    D^{it} x D^{-it} = sigma_t^phi(x) for x in the legs-R algebra and
    D^{-it} y D^{it} = sigma_t^psi(y) on the complement."""
    dims, legs = der.dims, der.legs
    comp = der.complement
    rng = random.Random(0xD1CE)
    if x is None:
        x = random_density(math.prod(dims[l] for l in legs), rng)
    if y is None:
        y = random_density(math.prod(dims[l] for l in comp), rng)
    u = der.power_it(t)
    ui = der.power_it(-t)
    lhs1 = matmul(embedded_product(u, x, legs, dims), ui)
    s1 = der.spec_phi.pow(1j * mpf(t))
    rhs1 = embed(matmul(matmul(s1, x), dag(s1)), legs, dims)
    lhs2 = matmul(embedded_product(ui, y, comp, dims), u)
    s2 = der.spec_psi.pow(1j * mpf(t))
    rhs2 = embed(matmul(matmul(s2, y), dag(s2)), comp, dims)
    return max_abs_diff(lhs1, rhs1), max_abs_diff(lhs2, rhs2)


# ------------------------------------------------------------------ cocycles

@dataclass(frozen=True)
class CocycleResult:
    u: object                    # unitary matrix in the factor
    membership_residual: object
    unitarity_residual: object


def connes_cocycle(psi, psi0, t, membership_tol=mpf("1e-18")) -> CocycleResult:
    """(D psi : D psi0)_t reconstructed on an ambient two-leg space.

    With phi the tracial state on a mirror leg, both d(phi)/d(psi) and
    d(phi)/d(psi0) implement the tracial flow on the mirror, so
    u_t = (d phi/d psi)^{-it} (d phi/d psi0)^{it} lies in the factor carrying
    psi.  The result is checked to commute with the mirror algebra and to be
    unitary; failures raise :class:`CocycleError`.
    """
    n = psi.rows
    t = mpf(t)
    dims = (n, n)
    tr = eye(n) * (mpf(1) / n)
    d1 = spatial_derivative(tr, psi, dims, (0,))
    d0 = d1.with_psi(psi0)
    u_full = matmul(d1.power_it(-t), d0.power_it(t))
    # membership: commutes with everything on the mirror leg
    rng = random.Random(0xC0C0)
    memb = mpf(0)
    for _ in range(2):
        x = embed(random_density(n, rng), (0,), dims)
        memb = max(memb, max_abs_diff(matmul(u_full, x), matmul(x, u_full)))
    if memb > membership_tol:
        raise CocycleError(f"cocycle leaves the factor: residual {mp.nstr(memb, 4)}")
    # extract the second-leg factor from u_full = 1 (x) u
    u = matrix(n, n)
    for k in range(n):
        for l in range(n):
            u[k, l] = u_full[k, l]
    uni = max_abs_diff(matmul(u, dag(u)), eye(n))
    return CocycleResult(u=u, membership_residual=memb, unitarity_residual=uni)


def _cocycle(sp, sp0, t):
    """psi^{it} psi0^{-it} from the spectra of psi and psi0."""
    t = mpf(t)
    return matmul(sp.pow(1j * t), sp0.pow(-1j * t))


def cocycle_direct(psi, psi0, t):
    """psi^{it} psi0^{-it}, the closed-form cocycle used as the oracle."""
    return _cocycle(spectrum(psi, "psi"), spectrum(psi0, "psi0"), t)


def cocycle_identity_residual(psi, psi0, t, s):
    """max-entry residual of u_{t+s} = u_t sigma_t^{psi0}(u_s)."""
    sp, sp0 = spectrum(psi, "psi"), spectrum(psi0, "psi0")
    ut = _cocycle(sp, sp0, t)
    us = _cocycle(sp, sp0, s)
    uts = _cocycle(sp, sp0, t + s)
    w = sp0.pow(1j * mpf(t))
    return max_abs_diff(uts, matmul(ut, matmul(matmul(w, us), dag(w))))


def cocycle_chain_residual(psi, psi0, psi1, t):
    """max-entry residual of (Dpsi:Dpsi0)_t (Dpsi0:Dpsi1)_t = (Dpsi:Dpsi1)_t."""
    sp, sp0, sp1 = (spectrum(psi, "psi"), spectrum(psi0, "psi0"),
                    spectrum(psi1, "psi1"))
    a = _cocycle(sp, sp0, t)
    b = _cocycle(sp0, sp1, t)
    c = _cocycle(sp, sp1, t)
    return max_abs_diff(matmul(a, b), c)


# ------------------------------------------------------------ weight masses

def _flow_matches_state(flow: FlowGenerator, legs, rho, sign=1,
                        tol=mpf("1e-20")):
    """Check Ad V(sign*t) = modular flow of the state on the legs algebra:
    the block generator must equal sign*log(rho) up to a scalar."""
    k = flow.generator_on(legs)
    diff = k - sign * mat_log(rho, "state")
    n = diff.rows
    mean = trace(diff) / n
    resid = max_abs_diff(diff, mean * eye(n))
    if resid > tol:
        raise HypothesisViolationError(
            f"flow does not implement the modular group on legs {legs}: "
            f"residual {mp.nstr(resid, 4)}")
    return mean  # the scalar offset


@dataclass(frozen=True)
class IndexProductResult:
    mass1: object          # psi_1(1), weight on M1
    mass2: object          # psi_2(1), weight on M2
    product: object
    expected: object       # d2^2
    deviation: object


def index_product(triple: FiniteFactorTriple, rho1, rho3,
                  flow: FlowGenerator, tol=mpf("1e-18")) -> IndexProductResult:
    """Masses of the two canonical weights determined by the flow, and their
    product, which is the Kosaki index of N1 in M1.

    psi_1 on M1 solves d(psi_1)/d(phi_2) = e^K and psi_2 on M2 solves
    d(psi_2)/d(phi_1) = e^{-K}; both solutions are read off the
    leg-factorized flow after checking the standing hypothesis that Ad V(t)
    is the phi_1 flow on N1 and the inverse phi_2 flow on N2.
    """
    d1, d2, d3 = triple.dims
    _flow_matches_state(flow, (0,), rho1, sign=1, tol=tol)
    _flow_matches_state(flow, (2,), rho3, sign=-1, tol=tol)
    s1, s2, s3 = flow.terms
    e = exp(flow.const)

    def tr_exp(sp, s, dim):
        """Tr e^{sK_l}: the sum of exp(s lambda) over the leg's spectrum."""
        if sp is None:
            return mpf(dim)
        return mp.fsum(exp(s * lam) for lam in sp.evals)

    # e^K = sigma_12 (x) rho3^{-1}: lambda3 scales the third factor onto rho3^{-1}
    lam3 = mp.re(trace(matmul(s3.fun(exp), rho3))) / d3 \
        if s3 is not None else mpf(1)
    mass1 = e * lam3 * tr_exp(s1, 1, d1) * tr_exp(s2, 1, d2)
    # e^{-K} = rho1^{-1} (x) sigma_23
    lam1 = mp.re(trace(matmul(s1.fun(lambda x: exp(-x)), rho1))) / d1 \
        if s1 is not None else mpf(1)
    mass2 = (1 / e) * lam1 * tr_exp(s2, -1, d2) * tr_exp(s3, -1, d3)
    product = mass1 * mass2
    expected = triple.index
    return IndexProductResult(mass1=mass1, mass2=mass2, product=product,
                              expected=expected,
                              deviation=abs(product - expected))


def pimsner_popa_entropy(triple: FiniteFactorTriple):
    """log [M1 : N1] = log(d2^2)."""
    return 2 * log(mpf(triple.d2))


# ------------------------------------------------------------- entropy

def relative_entropy_oracle(rho1, rho2):
    """Tr rho1 (log rho1 - log rho2), the density-matrix formula."""
    return mp.re(trace(matmul(rho1, mat_log(rho1, "rho1")
                              - mat_log(rho2, "rho2"))))


def araki_relative_entropy(rho1, rho2):
    """S(phi1 | phi2) = -(log Delta_{xi2, xi1} xi1, xi1) computed through
    the relative modular operator on the Hilbert-Schmidt standard form.

    Delta_{xi2, xi1} = L_{rho2} R_{rho1}^{-1} has eigenvalues mu_j / lam_i on
    the eigenbasis |w_j><v_i|; the natural-cone representative of phi1 is
    xi1 = rho1^{1/2}, so

        S = - sum_{ij} log(mu_j / lam_i) |(w_j, rho1^{1/2} v_i)|^2 .
    """
    return _araki_from_spectra(spectrum(rho1, "rho1"), spectrum(rho2, "rho2"))


def _araki_from_spectra(sp1, sp2):
    """:func:`araki_relative_entropy` from the spectra of rho1 and rho2."""
    evals1, q1 = sp1.evals, sp1.q
    evals2, q2 = sp2.evals, sp2.q
    n = len(evals1)
    xi1 = matrix(n, n)
    sq = [sqrt(l) for l in evals1]
    for i in range(n):
        for j in range(n):
            xi1[i, j] = sum(q1[i, k] * sq[k] * mp.conj(q1[j, k]) for k in range(n))
    m = matmul(matmul(dag(q2), xi1), q1)
    s = mpf(0)
    for j in range(n):
        for i in range(n):
            s -= (log(evals2[j]) - log(evals1[i])) * abs(m[j, i]) ** 2
    return s


# --------------------------------------------- derivative identity (local)

@dataclass(frozen=True)
class DerivativeIdentityReport:
    z_kms: object                 # Z(t) at the KMS point t = 1
    mass_target: object           # Ind^{1/2}
    mass_residual: object
    derivative: object            # d/dt [t log Z] at t = 1
    s_rel: object
    log_index: object
    identity_residual: object
    kms_point_absorbed: object    # t = 1 in the 2pi-absorbed convention
    kms_point_unnormalized: object  # the same check read at parameter 2 pi
    sign_convention: str


def entropy_derivative_identity(triple: FiniteFactorTriple, rho1,
                                state12=None, step=mpf("1e-3"),
                                tol=mpf("1e-6")) -> DerivativeIdentityReport:
    """Finite-dimensional derivative identity for the symmetric split.

    On the standard form of M1 = B(H1 (x) H2), with the expectation-extended
    state sigma = rho1 (x) 1/d2 and its reflected copy on the commutant, the
    flow generator is K = [log sigma, .] - (1/2) log Ind (the reconstruction
    formula with the scalar fixed by the index).  The geometric partition
    function Z(t) = (e^{-tK} xi, xi) with xi the cone vector of the product
    state then satisfies, at the KMS point t = 1,

        Z(1) = Ind^{1/2},
        d/dt [ t log Z(t) ] |_{t=1} = -S_rel + log Ind,

    where S_rel is the Araki relative entropy between the canonical
    extension pair (zero for the symmetric product setup).  Both checks are
    evaluated honestly (matrix exponentials + central differences) and a
    violation beyond ``tol`` raises :class:`IdentityViolationError`.
    """
    d1, d2 = triple.d1, triple.d2
    if triple.d3 != d1:
        raise ValueError("the symmetric setup needs d1 = d3")
    sigma = kron(rho1, eye(d2) * (mpf(1) / d2))
    w = sigma if state12 is None else state12
    # xi = w^{1/2}; check its restriction to N1 is rho1
    tr2 = matrix(d1, d1)
    for a in range(d1):
        for b in range(d1):
            tr2[a, b] = sum(w[a * d2 + k, b * d2 + k] for k in range(d2))
    if max_abs_diff(tr2, rho1) > mpf("1e-20"):
        raise HypothesisViolationError(
            "state on M1 does not restrict to rho1 on N1")
    sp_w = spectrum(w, "state")
    xi = sp_w.pow(mpf("0.5"))
    log_ind = 2 * log(mpf(d2))
    sp_sigma = sp_w if state12 is None else spectrum(sigma, "sigma")

    def z(t):
        left = sp_sigma.pow(-mpf(t))
        right = sp_sigma.pow(mpf(t))
        val = trace(matmul(matmul(matmul(xi, left), xi), right))
        return mp.re(val) * exp(mpf(t) * log(mpf(d2)))

    z1 = z(1)
    mass_target = sqrt(triple.index)
    mass_res = abs(z1 - mass_target)

    def g(t):
        return mpf(t) * log(z(t))

    h = mpf(step)
    d_h = (g(1 + h) - g(1 - h)) / (2 * h)
    d_h2 = (g(1 + h / 2) - g(1 - h / 2)) / h
    derivative = (4 * d_h2 - d_h) / 3
    # canonical pair: the expectation-extended state against its reflection,
    # both represented by sigma on the standard form
    s_rel = _araki_from_spectra(sp_sigma, sp_sigma)
    ident_res = abs(derivative - (-s_rel + log_ind))
    if mass_res > tol or ident_res > tol:
        raise IdentityViolationError(
            f"derivative identity fails: mass residual {mp.nstr(mass_res, 4)}, "
            f"identity residual {mp.nstr(ident_res, 4)}",
            deviation=max(mass_res, ident_res))
    return DerivativeIdentityReport(
        z_kms=z1, mass_target=mass_target, mass_residual=mass_res,
        derivative=derivative, s_rel=s_rel, log_index=log_ind,
        identity_residual=ident_res,
        kms_point_absorbed=mpf(1), kms_point_unnormalized=2 * pi,
        sign_convention=SIGN_CONVENTION)


def reconstruction_flow_residual(triple: FiniteFactorTriple, rho1, t=mpf("0.7")):
    """Residual of the reconstruction: the flow generated by
    K = [log sigma, .] - (1/2) log Ind restricts on N1 to the modular group
    of phi1.  Returns the max-entry residual on a generating element."""
    d1, d2 = triple.d1, triple.d2
    sigma = kron(rho1, eye(d2) * (mpf(1) / d2))
    rng = random.Random(0xEC46)
    a = random_density(d1, rng)
    x = kron(a, eye(d2))
    u = mat_pow(sigma, 1j * mpf(t), "sigma")
    lhs = matmul(matmul(u, x), dag(u))   # the scalar part of K cancels in Ad
    s = mat_pow(rho1, 1j * mpf(t), "rho1")
    rhs = kron(matmul(matmul(s, a), dag(s)), eye(d2))
    return max_abs_diff(lhs, rhs)
