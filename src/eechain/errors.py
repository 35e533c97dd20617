"""Exception types shared across the package."""


class EechainError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameter(EechainError, ValueError):
    """A model parameter is out of range: N, z, mass, spacing, twist, beta,
    a subsystem or an oracle chain size.  The CLI exits with status 2."""


class DuplicateSite(InvalidParameter):
    """A subsystem site list contains a repeated index."""


class SiteOutOfRange(InvalidParameter):
    """A subsystem site index falls outside [0, N)."""


class NotHermitian(EechainError):
    """A CorrelationMatrix block's asymmetry is NaN or over the Hermiticity tolerance (1e-9)."""


class EigenvalueOutOfRange(EechainError):
    """A correlation eigenvalue lies outside [0, 1] beyond the 1e-9 clamp
    tolerance, signalling a non-physical correlation matrix."""


class DegenerateGroundState(EechainError):
    """The single-particle spectrum has a zero eigenvalue at infinite beta,
    so the many-body ground state is not unique.  Use finite beta or a
    positive mass."""


class GroundStateNotFound(EechainError):
    """The oracle's Lanczos solve ended on a Ritz value that is not the
    ground energy, the sum of the negative single-particle energies."""


class InsufficientData(EechainError):
    """Fewer than the required number of rows qualify for a fit."""


class IllConditioned(EechainError):
    """Normal equations of a least-squares fit exceed the condition bound."""


class RegimeUnreachable(EechainError):
    """No sweep rows satisfy the preconditions of the requested fit regime."""


class InvalidKind(EechainError):
    """Unknown closed-form reference curve identifier."""


class InsufficientSampling(EechainError):
    """An angle profile is sampled too coarsely for finite differences."""


class DegenerateInterval(EechainError):
    """Interval length does not exceed the short-distance cutoff, or is
    too short for the semicircle geodesic ansatz, or so long that
    2 eps/(pi l) underflows to 0."""


class EmptySeries(EechainError):
    """A plot was requested with no series or a series with fewer than
    two points."""


class IoError(EechainError):
    """Table serialization/deserialization failure."""


class UsageError(EechainError):
    """Invalid command-line or config-file input.  Carries the message
    shown to the user; the CLI exits with status 2."""
