"""Exception types shared across the package."""


class SaturationError(ValueError):
    """A measured rate at or above the attainable supremum cannot be inverted."""


class IntegrationError(RuntimeError):
    """Adaptive quadrature failed to converge to the requested accuracy."""


class FitError(RuntimeError):
    """Parameter estimation did not converge; carries diagnostic details."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


class DegenerateDataError(ValueError):
    """An input file is malformed (the message names it), or data cannot constrain the fit."""
