"""Exception types shared across the package."""


class ChainfluxError(Exception):
    """Base class for all chainflux errors."""


class SpecError(ChainfluxError, ValueError):
    """Invalid chain description.

    ``violations`` lists the name of every violated constraint when more
    than one check fails at once.
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = tuple(violations or ())


class NonPositiveGap(SpecError):
    pass


class NegativeTemperature(SpecError):
    pass


class NonPositiveRate(SpecError):
    pass


class BadBathAttachment(SpecError):
    pass


class LengthMismatch(SpecError):
    pass


class NTooLarge(SpecError):
    pass


class IndexOutOfRange(ChainfluxError, IndexError):
    pass


class NotHermitian(ChainfluxError, ValueError):
    pass


class NonPositiveFrequency(ChainfluxError, ValueError):
    pass


class DegenerateTransition(ChainfluxError, ValueError):
    """A Bohr frequency sits below the resolvable cutoff.

    The thermal occupation of such a transition diverges for any bath at
    nonzero temperature, so the eigenbasis construction refuses it.
    """

    def __init__(self, message, omega=None):
        super().__init__(message)
        self.omega = omega


class DimensionMismatch(ChainfluxError, ValueError):
    pass


class DegenerateKernel(ChainfluxError, RuntimeError):
    """The generator has more than one steady state.

    ``rcond`` is the 1-norm reciprocal condition number of the constrained
    system that was rejected (0 for an exactly singular one).
    """

    def __init__(self, message, rcond=None):
        super().__init__(message)
        self.rcond = rcond


class NoConvergence(ChainfluxError, RuntimeError):
    """A numerical step did not converge or left the finite range."""


class WorkerFailed(ChainfluxError, RuntimeError):
    """A sweep worker process ended without sending its results back.

    ``status`` is its exit status, or minus the number of the signal that
    ended it.
    """

    def __init__(self, message, status=None):
        super().__init__(message)
        self.status = status


class AnalyticFormMismatch(ChainfluxError, RuntimeError):
    """Two algebraic forms of the same closed-form result disagree."""


class ConfigSyntaxError(ChainfluxError, ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownKey(ConfigSyntaxError):
    pass


class SpecInvalid(ConfigSyntaxError):
    pass
