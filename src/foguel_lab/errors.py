"""Exception types shared across the package.

Every refusal of an input raises :class:`ValidationError`, which is a
``ValueError``; its message names the broken rule.  An input that is valid
but larger than a size cap raises its one subclass,
:class:`SizeCapExceededError`.  The command line interface maps both to exit
code 1.
"""


class ValidationError(ValueError):
    """A precondition on user-supplied arguments was violated."""


class SizeCapExceededError(ValidationError):
    """A dense construction or factorization would exceed its size cap."""
