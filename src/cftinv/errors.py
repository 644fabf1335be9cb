"""Exception types raised across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit-specific errors."""


class InvalidModelError(ToolkitError, ValueError):
    """Requested minimal model does not exist (m must be an integer >= 3)."""


class FusionIntegralityError(ToolkitError):
    """A Verlinde fusion coefficient is not a nonnegative integer within
    tolerance, which signals a wrong S matrix."""

    def __init__(self, msg, worst=None):
        super().__init__(msg)
        self.worst = worst


class InsufficientCutoffError(ToolkitError):
    """A series cutoff is too small for the requested evaluation.

    ``required_cutoff`` carries an estimate of a cutoff that would suffice.
    """

    def __init__(self, msg, required_cutoff=None):
        super().__init__(msg)
        self.required_cutoff = required_cutoff


class NonEllipticDataError(ToolkitError):
    """Trace data is incompatible with a (1/t)(a0 + a1 t + a2 t^2) expansion."""


class UndefinedDimensionError(ToolkitError):
    """log Tr <= 1 at the sampled t, so log log Tr is not usable."""


class InconsistencyError(ToolkitError):
    """Two asymptotic fits cannot be related in the claimed way."""


class WindowError(ToolkitError, ValueError):
    """A counting window is too small for a meaningful slope fit."""


class InvalidCoverError(ToolkitError, ValueError):
    """Cover order n must be a positive integer."""


class EmbeddingViolationError(ToolkitError):
    """The rescaled generators fail the algebra relations at some index pair."""

    def __init__(self, msg, pair=None):
        super().__init__(msg)
        self.pair = pair


class RefinePathError(ToolkitError):
    """Branch tracking on the circle lost continuity; the path step is too
    large relative to 1/n."""


class KindMismatchError(ToolkitError, ValueError):
    """A one-particle operator of the wrong kind was passed."""


class EmptySpectrumError(ToolkitError, ValueError):
    """A ratio of spectral sums was asked of an operator with no
    eigenvalues, where both sums are empty."""


class IdentityViolationError(ToolkitError):
    """A verified operator identity failed beyond tolerance."""

    def __init__(self, msg, deviation=None):
        super().__init__(msg)
        self.deviation = deviation


class NotSeparatingError(ToolkitError):
    """A reduced density operator is rank deficient, so the vector is not
    separating for the designated algebra."""


class CocycleError(ToolkitError):
    """A Connes cocycle failed a membership or cocycle-identity check."""


class HypothesisViolationError(ToolkitError):
    """A flow does not implement the required modular automorphism group."""


class RankDeficiencyError(ToolkitError):
    """A density matrix is numerically singular (eigenvalue ratio beyond the
    condition guard)."""


class ConfigError(ToolkitError, ValueError):
    """Invalid run configuration (CLI or config file)."""


class ModularityWarning(UserWarning):
    """Fitted first invariants disagree with the dimension arithmetic; the
    input data may not come from a modular family."""
