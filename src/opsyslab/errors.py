"""Exception types shared across the package.

Exit-code mapping used by the CLI: InputError -> 2, NumericalFailureError -> 3.
"""


class OpsyslabError(Exception):
    pass


class InputError(OpsyslabError):
    """Malformed or out-of-contract input (bad matrix, schema violation, ...);
    `field` names the argument at fault (`t`, `epsilon`, ...) when one is."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class NumericalFailureError(OpsyslabError):
    """A numerical routine could not certify its result; never silent."""
