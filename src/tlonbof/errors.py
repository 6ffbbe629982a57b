"""Exception types shared across the package.

Argument validation raises plain ValueError. The classes below cover the
remaining failure categories that callers may want to catch separately.
"""


class NumericError(ArithmeticError):
    """A numeric operation produced an unusable value (underflow, NaN loss)."""


class TrainingDiverged(NumericError):
    """Training loss or a scale factor became non-finite, or the model left the checkpoint's range.

    Carries the step index where divergence was detected and the last
    known-good parameters, in float32 as a checkpoint stores them (end of
    the previous epoch, or the initialization if the first epoch diverged).
    """

    def __init__(self, step, last_good_params, what="non-finite loss"):
        super().__init__(f"{what} at step {step}")
        self.step = step
        self.last_good_params = last_good_params


class FormatError(ValueError):
    """A file did not match its documented schema.

    ``location`` is a line number for text files and a byte offset for
    binary checkpoints.
    """

    def __init__(self, message, location=None):
        self.message = message
        self.location = location
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)


class UndefinedMetricError(ValueError):
    """Metric has no defined value for this confusion matrix."""
