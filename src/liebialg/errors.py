"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class ComputationError(Exception):
    """A well-formed input that the exact machinery cannot carry through:
    an unsupported spectrum, a non-unit determinant, a singular evaluation.
    Not a ValueError, so the CLI never reports it as a usage error."""


class UnsupportedSpectrum(ComputationError):
    """A matrix eigenvalue lies outside the rational / rational-imaginary field.

    Carries the unfactorable remainder of the characteristic polynomial in
    ``factor`` (coefficients, highest degree first).
    """

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor


class NonUnitDeterminant(ComputationError):
    """A symbolic matrix determinant is not a single exponential term."""


class EvalError(ComputationError):
    """Evaluation hit a singular locus (division by zero)."""


class InvariantError(Exception):
    """An internal consistency check failed: a defect of the program, not of
    its input.  Not a ValueError, so the CLI never reports it as a usage
    error."""


class CorpusSyntaxError(ValueError):
    """Corpus text failed to parse; carries location info."""

    def __init__(self, message, line=None, col=None, filename=None):
        loc = ""
        if filename is not None:
            loc += f"{filename}:"
        if line is not None:
            loc += f"{line}:"
        if col is not None:
            loc += f"{col}:"
        super().__init__(f"{loc} {message}" if loc else message)
        self.line = line
        self.col = col
        self.filename = filename
