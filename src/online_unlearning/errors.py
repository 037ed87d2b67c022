"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """A numeric argument is malformed (wrong shape, NaN/Inf, ...)."""


class InvalidConfigError(ValueError):
    """A configuration value violates its documented constraints."""


class InvalidScheduleError(ValueError):
    """A deletion schedule violates the (u_i <= tau_i, distinct, ordered) contract."""


class ScheduleShapeError(InvalidScheduleError):
    """Deletion index falls outside the window required by the active unlearner."""


class NonContractiveStepError(ValueError):
    """Step size exceeds 2/beta, so a gradient step may expand distances."""


class NotStronglyConvexError(ValueError):
    """Operation requires mu > 0 (equivalently a contraction factor < 1)."""


class NumericError(ArithmeticError):
    """Non-finite intermediate value or singular linear system."""


class CertificationRefusedError(RuntimeError):
    """The shift ledger is infeasible; the noise does not cover the run."""


class OracleUnavailableError(RuntimeError):
    """The closed-form divergence oracle does not apply to this run."""


class GeneratorError(ValueError):
    """A synthetic stream generator cannot meet the requested parameters."""
