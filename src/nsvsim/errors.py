"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A structural precondition is violated (grid too small, bad exponent range, ...)."""


class ValidationError(ValueError):
    """An input fails a runtime contract (non-symmetric tensor, nonzero mean, ...)."""


class DivergenceError(RuntimeError):
    """The time stepper produced a nonfinite value on a path."""

    def __init__(self, step: int, path: int):
        # args holds (step, path), so pickle and copy rebuild the error
        super().__init__(step, path)
        self.step = step
        self.path = path

    def __str__(self) -> str:
        return f"nonfinite state detected at step {self.step} of path {self.path}"
