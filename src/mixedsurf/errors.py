"""Exception taxonomy shared across the package.

The CLI maps these classes onto distinct exit codes, so raising the right
class is part of the interface contract:

* ``InputParseError``  -- malformed files, words, or presentations.
* ``ValidationError``  -- well-formed input that violates a semantic
  precondition (wrong orders, index != 2, unsupported cover type, ...).
* ``BudgetExceeded``   -- an enumeration hit its configured budget; a
  subtype of ``ValidationError`` but distinguishable by type.
* ``IntegrityError``   -- an internal exactness assertion failed
  (non-integral intersection number, rank breach, two covers of one
  curve that disagree).
  These indicate corrupted data, never user error.
* ``MismatchError``    -- computed results disagree with expectations
  (fingerprint check, reproduction diff).
"""


class MixedSurfError(Exception):
    """Base class for all package-specific errors."""


class InputParseError(MixedSurfError):
    pass


class WordSyntaxError(InputParseError):
    """Syntax error in a word expression, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ValidationError(MixedSurfError):
    pass


class BudgetExceeded(ValidationError):
    pass


class IntegrityError(MixedSurfError):
    pass


class MismatchError(MixedSurfError):
    pass
