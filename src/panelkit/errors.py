"""Exception types shared across the package."""


class PanelkitError(Exception):
    """Base class for all domain errors."""


class ShapeMismatch(PanelkitError):
    def __init__(self, expected, got, context=""):
        self.expected = expected
        self.got = got
        msg = f"shape mismatch: expected {expected}, got {got}"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


class NotScalar(PanelkitError):
    pass


class MissingGradient(PanelkitError):
    pass


class PanelOutOfBounds(PanelkitError):
    pass


class DegeneratePanel(PanelkitError):
    pass


class ResolutionMismatch(PanelkitError):
    pass


class ParseError(PanelkitError):
    pass


class InvariantViolation(PanelkitError):
    pass


class TooFewPoints(PanelkitError):
    pass


class NonFiniteCloud(PanelkitError):
    pass


class UnknownClass(PanelkitError):
    pass


class EmptySketch(PanelkitError):
    pass


class MissingClass(PanelkitError):
    pass


class DimensionMismatch(PanelkitError):
    pass


class MissingPrototype(PanelkitError):
    pass


class EmptyInput(PanelkitError):
    pass


class NoConvergence(PanelkitError):
    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"transport solver did not converge (marginal residual {residual:.3e})")


class ZeroMass(PanelkitError):
    pass


class DivergenceDetected(PanelkitError):
    pass


class CheckpointMismatch(PanelkitError):
    pass
