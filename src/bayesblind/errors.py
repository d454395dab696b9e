"""The package's two exceptions, one per CLI exit code.

``InputError`` (exit 2): an input the operation cannot take.
``HorizonInsufficient`` (exit 3): a horizon too short to certify the result,
or too long for float64 to decide.  Both subclass ``BayesBlindError``, which
the CLI catches; each message names the check that fired.
"""


class BayesBlindError(Exception):
    exit_code: int


class InputError(BayesBlindError):
    exit_code = 2


class HorizonInsufficient(BayesBlindError):
    exit_code = 3
