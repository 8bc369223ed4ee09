"""Exception types shared across the package, and the one wording of a
dimension relation between two inputs (`check_dimension`).

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


def check_dimension(got: int, n: int, of: str, field=None) -> None:
    """The one wording of a dimension relation between two inputs: an
    InputError naming `field` unless `got` is n, the dimension of `of`."""
    if got != n:
        raise InputError(f"expected dimension {n} (that of {of}), got {got}", field=field)
