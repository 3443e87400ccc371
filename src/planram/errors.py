"""Exception types shared across the toolkit."""


class PlanramError(Exception):
    """Base class for all toolkit errors."""


class BadInput(PlanramError, ValueError):
    """Input outside the accepted format or range: malformed graph6 or
    planar_code, an order or size no request can take, an unknown seed,
    or an operation argument its preconditions reject."""


class NotPlanar(PlanramError):
    pass


class Disconnected(PlanramError):
    pass


class NotC4Free(PlanramError):
    pass


class InfeasibleScale(PlanramError):
    """Raised when a task exceeds the configured search budget."""


class PropertyViolation(PlanramError):
    """A seed or the result of a growth operation fails a property it
    claims."""
