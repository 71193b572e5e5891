"""Error taxonomy shared by every module.

Each failure mode callers may want to branch on gets its own class. The CLI
maps these onto exit codes: ConfigError -> 2, ContainerError and plain I/O
-> 3, NumericalError -> 4.
"""


class D2MoeError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(D2MoeError):
    """Operands have inconsistent or invalid dimensions."""


class ParameterError(D2MoeError):
    """A scalar argument is outside its documented range."""


class DegenerateInputError(D2MoeError):
    """Input is structurally valid but the quantity is undefined on it
    (zero CKA denominator, all-zero singular values, empty calibration)."""


class NumericalError(D2MoeError):
    """A numerical routine failed to produce a usable result."""


class NotPositiveDefiniteError(NumericalError):
    """Damped Cholesky still failed after the full doubling schedule."""


class ConfigError(D2MoeError):
    """Configuration file or field failed validation."""


class ContainerError(D2MoeError):
    """Base class for tensor-container file problems."""


class BadMagicError(ContainerError):
    """File does not start with the container magic."""


class ManifestError(ContainerError):
    """Container manifest is malformed."""


class TruncatedPayloadError(ContainerError):
    """A tensor's payload extends past the end of the file."""


class OverlappingPayloadError(ContainerError):
    """Two tensor payloads occupy overlapping byte ranges."""


class NonFinitePayloadError(ContainerError):
    """A tensor payload contains NaN or Inf."""
