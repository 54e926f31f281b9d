"""Error taxonomy shared by all modules."""


class InvalidInputError(ValueError):
    """A precondition on user-supplied data is violated."""


class NumericFailureError(RuntimeError):
    """An iterative or quadrature procedure failed to produce a usable result.

    ``step``, when known, is the path step at which a simulated path failed,
    so that failures of replicas simulated apart can be ordered as one
    ensemble run meets them."""

    def __init__(self, message: str = "", step: int | None = None):
        super().__init__(message)
        self.step = step
