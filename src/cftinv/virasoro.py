"""Formal Virasoro algebra over exact rationals, the rescaled n-cover
embedding, the circle action of the cover, and the discretization free energy.

Elements are finite rational combinations sum q_k L_k + q_c * c with the
bracket

    [L_a, L_b] = (a - b) L_{a+b} + (c/12)(a^3 - a) delta_{a,-b},

kept exact so that every relation below is checked with no rounding at all.
The n-cover embedding sends L_k to (1/n) L_{nk} for k != 0,
L_0 to (1/n) L_0 + (c/24)(n^2-1)/n, and c to n c.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, mpc, exp, pi, arg, fabs

from .errors import EmbeddingViolationError, InvalidCoverError, RefinePathError


@dataclass(frozen=True)
class VirElement:
    """sum over k of terms[k] * L_k, plus central * c.  Zero coefficients are
    never stored, so equality is plain field equality."""

    terms: tuple        # sorted tuple of (index, int or Fraction) pairs
    central: Fraction   # or int

    @staticmethod
    def make(terms: dict, central=0) -> "VirElement":
        """Coefficients are kept as given: ints and Fractions, whose sums,
        products and equality are exact."""
        clean = tuple(sorted((k, v) for k, v in terms.items() if v != 0))
        return VirElement(terms=clean, central=central)

    def coeff(self, k: int) -> Fraction:
        for i, v in self.terms:
            if i == k:
                return v
        return Fraction(0)

    def __add__(self, other):
        acc = dict(self.terms)
        for k, v in other.terms:
            acc[k] = acc.get(k, 0) + v
        return VirElement.make(acc, self.central + other.central)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        return VirElement.make({k: scalar * v for k, v in self.terms},
                               scalar * self.central)

    def __str__(self):
        parts = [f"{v}*L_{{{k}}}" for k, v in self.terms]
        if self.central:
            parts.append(f"{self.central}*c")
        return " + ".join(parts) if parts else "0"


ZERO = VirElement.make({})


def L(k: int) -> VirElement:
    return VirElement.make({k: 1})


def central(q=1) -> VirElement:
    return VirElement.make({}, Fraction(q))


def bracket(x: VirElement, y: VirElement) -> VirElement:
    """Bilinear extension of [L_a, L_b] = (a-b) L_{a+b} + (c/12)(a^3-a) d_{a,-b}.
    The central element is central, so cross terms with it vanish."""
    acc: dict = {}
    cterm = 0
    for a, qa in x.terms:
        for b, qb in y.terms:
            w = qa * qb
            acc[a + b] = acc.get(a + b, 0) + w * (a - b)
            if a + b == 0:
                cterm += w * Fraction(a ** 3 - a, 12)
    return VirElement.make(acc, cterm)


def rescale_embed(x: VirElement, n: int) -> VirElement:
    """Image of x under L_k -> (1/n) L_{nk} (k != 0),
    L_0 -> (1/n) L_0 + (c/24)(n^2-1)/n, c -> n c."""
    if not isinstance(n, int) or n < 1:
        raise InvalidCoverError(f"cover order must be a positive integer, got {n!r}")
    acc: dict = {}
    cterm = Fraction(n) * x.central
    for k, q in x.terms:
        acc[n * k] = acc.get(n * k, 0) + Fraction(q, n)
        if k == 0:
            cterm += q * Fraction(n * n - 1, 24 * n)
    return VirElement.make(acc, cterm)


@dataclass(frozen=True)
class EmbeddingReport:
    n: int
    index_range: int
    pairs_checked: int
    sl2_checked: bool


def verify_embedding(n: int, index_range: int) -> EmbeddingReport:
    """Exact check that the rescaled map is a Lie algebra morphism:
    bracket(embed L_i, embed L_j) = embed(bracket(L_i, L_j)) for all
    |i|, |j| <= index_range, including the sl(2) triple relations.

    Every comparison is exact rational equality; the first mismatch raises
    :class:`EmbeddingViolationError` naming the offending pair.
    """
    if index_range < 1:
        raise ValueError("index_range must be >= 1")
    images = {i: rescale_embed(L(i), n) for i in range(-index_range, index_range + 1)}
    checked = 0
    for i in range(-index_range, index_range + 1):
        for j in range(-index_range, index_range + 1):
            lhs = bracket(images[i], images[j])
            rhs = rescale_embed(bracket(L(i), L(j)), n)
            if lhs != rhs:
                raise EmbeddingViolationError(
                    f"embedding relation fails at (i, j) = ({i}, {j}): "
                    f"{lhs} != {rhs}", pair=(i, j))
            checked += 1
    # the sl(2) relations for the rescaled triple, stated separately
    l1, l0, lm1 = images[1], images[0], images[-1]
    ok = (bracket(l1, lm1) == 2 * l0
          and bracket(l1, l0) == l1
          and bracket(lm1, l0) == (-1) * lm1)
    if not ok:
        raise EmbeddingViolationError("sl(2) triple relations fail", pair=None)
    return EmbeddingReport(n=n, index_range=index_range,
                           pairs_checked=checked, sl2_checked=True)


def jacobi_residual(x: VirElement, y: VirElement, z: VirElement) -> VirElement:
    """[[x,y],z] + [[y,z],x] + [[z,x],y]; identically zero for a Lie algebra."""
    return (bracket(bracket(x, y), z) + bracket(bracket(y, z), x)
            + bracket(bracket(z, x), y))


# -------------------------------------------------------------- circle cover

@dataclass(frozen=True)
class MoebiusMap:
    """z -> (a z + b)/(c z + d) with ad - bc = 1, preserving the unit circle.

    Circle-preserving normalized maps have the su(1,1) form d = conj(a),
    c = conj(b) with |a|^2 - |b|^2 = 1; the constructors below produce them.
    """

    a: object
    b: object
    c: object
    d: object

    def __call__(self, z):
        return (self.a * z + self.b) / (self.c * z + self.d)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(a=self.a * other.a + self.b * other.c,
                          b=self.a * other.b + self.b * other.d,
                          c=self.c * other.a + self.d * other.c,
                          d=self.c * other.b + self.d * other.d)

    @staticmethod
    def identity() -> "MoebiusMap":
        return MoebiusMap(mpc(1), mpc(0), mpc(0), mpc(1))

    @staticmethod
    def rotation(theta) -> "MoebiusMap":
        half = mpf(theta) / 2
        return MoebiusMap(exp(1j * half), mpc(0), mpc(0), exp(-1j * half))

    @staticmethod
    def dilation(s) -> "MoebiusMap":
        """Hyperbolic map fixing +-1 (the dilation subgroup of an interval)."""
        half = mpf(s) / 2
        return MoebiusMap(mpc(mp.cosh(half)), mpc(mp.sinh(half)),
                          mpc(mp.sinh(half)), mpc(mp.cosh(half)))

    def circle_residual(self, samples=24):
        """max | |M(z)| - 1 | over sample points on the circle."""
        worst = mpf(0)
        for k in range(samples):
            z = exp(2j * pi * k / samples)
            worst = max(worst, fabs(fabs(self(z)) - 1))
        return worst


def _nth_roots(w, n: int):
    base = w ** (mpf(1) / n)
    return [base * exp(2j * pi * k / n) for k in range(n)]


def cover_action(g: MoebiusMap, n: int, z, branch_seed=None, max_step=None):
    """The point w with w^n = g(z^n) selected by continuity along the circle
    arc from the branch seed.

    ``branch_seed`` is a pair (z0, w0) with w0^n = g(z0^n); the default seed
    is z0 = 1 with the principal root.  The arc from z0 to z is walked in
    steps of at most pi/(4n); at each step the n-th root closest to the
    previous one is taken, and an ambiguous choice (two roots equally close,
    a sign the step was too large) raises :class:`RefinePathError`.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidCoverError(f"cover order must be a positive integer, got {n!r}")
    z = mpc(z)
    if abs(fabs(z) - 1) > mpf("1e-30"):
        raise ValueError("z must lie on the unit circle")
    if branch_seed is None:
        z0, w0 = mpc(1), _nth_roots(g(mpc(1)), n)[0]
    else:
        z0, w0 = mpc(branch_seed[0]), mpc(branch_seed[1])
        if abs(w0 ** n - g(z0 ** n)) > mpf("1e-25"):
            raise ValueError("branch seed does not satisfy w0^n = g(z0^n)")
    step = mpf(max_step) if max_step is not None else pi / (4 * n)
    th0, th1 = arg(z0), arg(z)
    dth = th1 - th0
    while dth > pi:
        dth -= 2 * pi
    while dth < -pi:
        dth += 2 * pi
    nsteps = max(1, int(mp.ceil(abs(dth) / step)))
    w = w0
    for k in range(1, nsteps + 1):
        zk = exp(1j * (th0 + dth * k / nsteps))
        roots = _nth_roots(g(zk ** n), n)
        dists = sorted((fabs(r - w), idx) for idx, r in enumerate(roots))
        if n > 1 and dists[1][0] - dists[0][0] < mpf("1e-12") * max(mpf(1), dists[1][0]):
            raise RefinePathError(
                f"ambiguous branch at arc step {k}/{nsteps}; reduce the step")
        w = roots[dists[0][1]]
    square = fabs(w ** n - g(z ** n))
    if square > mpf("1e-25"):
        raise RefinePathError(
            f"commuting square fails: |w^n - g(z^n)| = {mp.nstr(square, 4)}")
    return w


# ------------------------------------------------------------- free energies

@dataclass(frozen=True)
class FreeEnergy:
    """Discretization free energy, exact as a rational multiple of 2 pi."""

    n: int
    f_n_over_2pi: Fraction      # F_n / (2 pi) = (c/24)(n^2 - 1)/n
    f_mean_over_2pi: Fraction   # chiral c/24, two-dimensional c/12

    @property
    def f_n(self):
        return 2 * pi * mpf(self.f_n_over_2pi.numerator) / self.f_n_over_2pi.denominator \
            if self.f_n_over_2pi else mpf(0)

    @property
    def f_mean(self):
        fr = self.f_mean_over_2pi
        return 2 * pi * mpf(fr.numerator) / fr.denominator


def free_energy(c, n: int, two_dim: bool = False) -> FreeEnergy:
    """F_n = (c/24)((n^2-1)/n) 2 pi and the n -> infinity mean F_n/n, which is
    2 pi c/24 for one chiral half and doubles to 2 pi c/12 when both chiral
    components contribute."""
    if not isinstance(n, int) or n < 1:
        raise InvalidCoverError(f"cover order must be a positive integer, got {n!r}")
    c = Fraction(c)
    f_n = c / 24 * Fraction(n * n - 1, n)
    mean = c / 12 if two_dim else c / 24
    return FreeEnergy(n=n, f_n_over_2pi=f_n, f_mean_over_2pi=mean)


def generator_shift(c, n: int) -> Fraction:
    """Constant offset (c/24)(n^2-1)/n between the cover Hamiltonian
    (1/n) L_0 + shift and the naive rescaling (1/n) L_0; the shift seen by
    the second spectral invariant equals F_n / (2 pi) exactly."""
    c = Fraction(c)
    return c / 24 * Fraction(n * n - 1, n)
