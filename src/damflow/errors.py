"""Exception hierarchy shared by all damflow modules."""


class DamflowError(Exception):
    """Base class for all damflow errors."""


class InvalidArgument(DamflowError):
    """A precondition on an argument was violated."""


class InvalidData(DamflowError):
    """Problem data failed validation (e.g. negative boundary head)."""


class MalformedCSV(InvalidData, InvalidArgument):
    """A node-dump or permeability CSV cannot be read onto the grid.

    It is an InvalidData, as a defective node dump always raised, and an
    InvalidArgument, as a defective permeability CSV always raised.
    """


class AssumptionViolation(DamflowError):
    """A coefficient-field assumption failed at a sampled point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class NonConvergence(DamflowError):
    """The nonlinear solver did not reach the requested tolerance."""

    def __init__(self, message, residual_norm=None):
        super().__init__(message)
        self.residual_norm = residual_norm


class StepFailure(NonConvergence):
    """A time step failed after all dt-halving retries."""

    def __init__(self, message, step_index, residual_norm=None):
        super().__init__(message, residual_norm)
        self.step_index = step_index


class IncompatibleRuns(InvalidArgument):
    """Two run directories cannot be compared."""

    def __init__(self, message, mismatched_keys=()):
        super().__init__(message)
        self.mismatched_keys = list(mismatched_keys)
