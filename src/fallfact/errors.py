"""Exception types, grouped by how the CLI maps them to exit codes.

Mathematical obstructions (exit 2) are properties of the problem itself;
input problems (exit 3) are malformed or inconsistent user data; numerical
failures (exit 4) are breakdowns of approximate evaluation.
"""

from __future__ import annotations


class FallfactError(Exception):
    pass


class MathematicalObstruction(FallfactError):
    """The requested object does not exist or is singular."""


class SingularRecurrenceError(MathematicalObstruction):
    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"leading recurrence coefficient vanishes at n={index}")


class PoleError(MathematicalObstruction):
    def __init__(self, point, message: str | None = None):
        self.point = point
        super().__init__(message or f"pole or indeterminacy at z={point}")


class InputFormatError(FallfactError, ValueError):
    """Malformed files, strings, or inconsistent user-supplied data."""


class DeterminacyError(InputFormatError):
    """free_values over- or under-determine the initial coefficient block."""


class NumericalFailure(FallfactError):
    pass


class EvaluationOverflowError(NumericalFailure):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"term magnitude overflow at index {index}")
