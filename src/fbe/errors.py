"""Exception types shared across the package."""


class FbeError(Exception):
    """Base class for all package errors."""


class InvalidDigitError(FbeError):
    """A digit is zero or its magnitude exceeds the alphabet size."""


class EmptyAddressError(FbeError):
    """An operation needing at least one digit got the empty word."""


class TruncationDepthError(FbeError):
    """A symbolic iteration ran out of certified digits."""


class DomainError(FbeError):
    """An argument lies outside the operation's domain."""


class NoConvergenceError(FbeError):
    """An iteration failed to converge within its budget."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class AmbiguousMembershipError(FbeError):
    """A point fell in the (tau, 2*tau] annulus around the attractor cloud."""


class ResolutionError(FbeError):
    """A request passes what the resolution or a work cap supports: a
    tolerance finer than the cloud's tau, a word tree over MAX_WORDS words,
    an attractor step or chaos orbit over MAX_IMAGE_POINTS images, or a
    chaos orbit or finite continuation that overflows the floats."""


class EmptyLeafError(FbeError):
    """A leaf projection came out empty (degenerate system)."""


class SpecFormatError(FbeError):
    """An IFS spec file failed to parse or validate."""


class StaleCacheError(FbeError):
    """A cached attractor file does not match the current IFS spec."""


class NonInvertibleMapError(SpecFormatError):
    """A map in a spec file is not invertible."""

    def __init__(self, index, message):
        super().__init__(message)
        self.index = index
