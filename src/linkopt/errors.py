"""Exception types shared across the package."""


class LinkoptError(Exception):
    """Base class for all linkopt errors."""


class OutOfRegimeError(LinkoptError, ValueError):
    """Packet too small for the asymptotic waterfall-threshold approximation."""


class QuadratureError(LinkoptError, ArithmeticError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


class PeakPowerError(LinkoptError, ValueError):
    """Requested output power violates the amplifier peak-power headroom."""


class ConfigError(LinkoptError, ValueError):
    """Scenario configuration is malformed; message carries the field path."""
