"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: usage errors exit 1,
DataError exits 2, NumericalError exits 3.
"""


class DataError(ValueError):
    """Malformed or inconsistent input data (CSV structure, invariants)."""


class NumericalError(RuntimeError):
    """A numerical routine failed beyond its configured fallbacks."""


class SingularRowError(NumericalError):
    """Row `row`'s conditioning block is singular even with the ridge; the
    message names the row by `name` when given, else by that index."""

    def __init__(self, row: int, name: str | None = None):
        super().__init__(f"conditioning block for row {name or row} is "
                         "singular even with ridge")
        self.row = row
