"""Exception hierarchy.

Every failure the library can diagnose is raised as a subclass of
:class:`ModelSpaceError`, so callers (and the command line front end) can
separate domain failures from programming errors.
"""


class ModelSpaceError(Exception):
    """Base class for all library-level failures."""


class InvalidZeroError(ModelSpaceError):
    """A Blaschke zero lies on or outside the unit circle, or is not finite."""


class EvaluationDomainError(ModelSpaceError):
    """A function was evaluated outside its admissible domain.

    Finite Blaschke products extend to the closed disk; a nontrivial
    singular factor only admits evaluation strictly inside the disk.
    """


class NotADivisorError(ModelSpaceError):
    """Requested quotient or kernel for a function that does not divide."""


class DegenerateModelError(ModelSpaceError):
    """The requested model space is zero dimensional."""


class UnsupportedModelError(ModelSpaceError):
    """The symbol is outside the finite-dimensional model class."""


class ConditioningError(ModelSpaceError):
    """A computation was refused or failed for conditioning reasons."""


class NearBoundarySpectrumError(ConditioningError):
    """The spectral radius is too close to 1 for reliable calculus."""


class AccuracyError(ModelSpaceError):
    """An adaptive computation could not certify the requested accuracy.

    Carries the final error estimate in :attr:`estimate` when available.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class TrivialElementError(ModelSpaceError):
    """A vector that must be nonzero is numerically zero."""


class TrivialAnnihilatorError(ModelSpaceError):
    """A candidate annihilator is numerically the zero function."""


class NotInvariantError(ModelSpaceError):
    """A subspace expected to be invariant fails the residual test.

    Carries the measured residual in :attr:`residual`.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class IllConditionedSpectrumError(ModelSpaceError):
    """Eigenvalue clusters are too ambiguous to assign multiplicities, or an
    annihilator built from them fails a certificate's final test.

    Diagnostic data, when any, is attached in :attr:`diagnostics`.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics) if diagnostics else {}


class RankAmbiguityError(ModelSpaceError):
    """A singular value falls inside the rank-decision dead band."""


class ImpossibleByTheoryError(ModelSpaceError):
    """A certified construction failed where theory guarantees success.

    This signals a numerical fault (or an input violating the theory's
    hypotheses), never expected behaviour.  Diagnostic data is attached
    in :attr:`diagnostics`.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics) if diagnostics else {}


class SerializationError(ValueError):
    """Malformed serialized input (bad JSON structure or field types)."""
