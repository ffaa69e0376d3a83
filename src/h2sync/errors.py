"""Exception types shared across the toolkit, the text gate of the file
parsers and the one type gate of the objects the other functions take."""


class H2SyncError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(H2SyncError):
    """Matrix dimensions are inconsistent with the requested operation."""


class NotHurwitz(H2SyncError):
    """A matrix required to be Hurwitz has an eigenvalue with Re >= 0."""

    def __init__(self, msg, spectrum=None):
        super().__init__(msg)
        self.spectrum = spectrum


class NoStabilizingSolution(H2SyncError):
    """The Riccati equation has no stabilizing solution.

    Raised when the Hamiltonian has eigenvalues on (or numerically near)
    the imaginary axis, or the stable invariant subspace is not
    complementary to the graph subspace.
    """

    def __init__(self, msg, offending_eigenvalues=None):
        super().__init__(msg)
        self.offending_eigenvalues = offending_eigenvalues


class NotPositiveDefinite(H2SyncError):
    """A solution required to be positive definite is not."""


class SpectrumMismatch(H2SyncError):
    """Eigenvalues of the reduced Laplacian fail to match those of L."""


class RankDeficientEverywhere(H2SyncError):
    """The system pencil never reaches full column rank (not left invertible)."""


class PreconditionFailed(H2SyncError):
    """A synthesis precondition (one of the solvability conditions) is violated."""

    def __init__(self, msg, condition=None):
        super().__init__(msg)
        self.condition = condition


class RhoOutOfRange(H2SyncError):
    """The coupling-gain parameter must satisfy rho >= 1."""


class DeltaSearchExhausted(H2SyncError):
    """The low-gain parameter search ran out of candidates.

    `diagnostics` is a list of (delta, reason) pairs, one per attempt;
    each reason is the message of the check that refused that delta.
    """

    def __init__(self, msg, diagnostics=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or []


class Diverged(H2SyncError):
    """Simulation state norm exceeded the divergence guard."""


class ConfigInvalid(H2SyncError):
    """A simulation or run configuration fails validation."""


class ParseError(H2SyncError):
    """A model, graph, or realization file could not be parsed."""

    def __init__(self, msg, line=None):
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)
        self.line = line


def _lines(text, what):
    """The lines of a file's text for the parser of `what`; ParseError
    unless the text is a str."""
    if not isinstance(text, str):
        raise ParseError(f"{what} text must be a str, got {type(text).__name__}")
    return text.splitlines()


def _require_instance(obj, cls):
    """DimensionMismatch unless obj is a `cls`, a class or a tuple of them."""
    if not isinstance(obj, cls):
        names = " or ".join(("an " if c.__name__[0] in "AEIOU" else "a ") + c.__name__
                            for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise DimensionMismatch(f"expected {names}, got {type(obj).__name__}")
