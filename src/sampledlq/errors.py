"""Exception types shared across the library.

Exit codes used by the CLI: 2 for input/validation problems, 3 for
numerical failures, 4 for oracle disagreement.
"""


class SampledLQError(Exception):
    exit_code = 3


class ValidationError(SampledLQError):
    exit_code = 2


class DimensionMismatch(ValidationError):
    pass


class _NotDefinite(ValidationError):
    """A symmetric matrix's min eigenvalue fails the bound that the subclass's `definite` names."""

    def __init__(self, name, t, eigenvalue):
        at = "" if t is None else f" at t={t}"
        super().__init__(f"{name} is not positive {self.definite}{at}: min eigenvalue {eigenvalue:g}")
        self.name, self.t, self.eigenvalue = name, t, eigenvalue


class NotPSD(_NotDefinite):
    definite = "semidefinite"


class NotPD(_NotDefinite):
    definite = "definite"


class InvalidInterval(ValidationError):
    pass


class DurationMismatch(ValidationError):
    pass


class NonPositiveDuration(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class NodeMismatch(ValidationError):
    pass


class TooLarge(ValidationError):
    pass


class MissingReference(ValidationError):
    pass


class UnknownProblem(ValidationError):
    pass


class NumericalError(SampledLQError):
    exit_code = 3


class NonFinite(NumericalError):
    pass


class TNotPD(NumericalError):
    def __init__(self, i):
        super().__init__(f"T_{i} is not positive definite; blocks are corrupted or R fails validation")
        self.i = i


class OracleMismatch(SampledLQError):
    exit_code = 4
