"""Error taxonomy shared by all modules."""


class InvalidInputError(ValueError):
    """A precondition on user-supplied data is violated."""


class NumericFailureError(RuntimeError):
    """An iterative or quadrature procedure failed to produce a usable result."""
