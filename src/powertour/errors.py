"""Exception types shared across the package."""


class InputError(ValueError):
    """Caller-supplied data violates a documented precondition."""


class SizeError(InputError):
    """Instance is too large for an exact / brute-force routine."""


class CertificateError(RuntimeError):
    """An internally produced certificate failed its self-check.

    This always signals an implementation bug, never bad input.
    """
