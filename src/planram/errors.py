"""Exception types shared across the toolkit."""


class PlanramError(Exception):
    """Base class for all toolkit errors."""


class BadInput(PlanramError, ValueError):
    """Input outside the accepted format or range: malformed graph6 or
    planar_code, or an order or size no request can take."""


class NotPlanar(PlanramError):
    pass


class Disconnected(PlanramError):
    pass


class NotC4Free(PlanramError):
    pass


class InfeasibleScale(PlanramError):
    """Raised when a task exceeds the configured search budget."""


class UnknownSeed(PlanramError):
    pass


class PropertyCheckFailed(PlanramError):
    """A stored seed graph failed one of its claimed properties."""


class BadFace(PlanramError):
    pass


class BadDistance(PlanramError):
    pass


class BadVertex(PlanramError):
    pass


class BadEdge(PlanramError):
    pass


class PropertyViolation(PlanramError):
    """A growth operation produced a graph violating its postconditions."""


class UnsupportedOrder(PlanramError):
    pass
