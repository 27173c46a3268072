"""Exception hierarchy shared across the package.

Two flavors matter: host-level failures (bad input files, missing bindings,
budget blowups) abort a run, while per-world runtime failures (``EvalError``)
are caught by the lifting machinery and turned into labeled error pairs.
"""


class ModalError(Exception):
    """Base class for all package errors."""


class ParseError(ModalError):
    """Malformed program or bindings text; carries a source position."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)
        self.line = line
        self.col = col


class BindingsError(ParseError):
    """Malformed bindings file."""


class ScopeError(ModalError):
    """Unresolved variable or function name, or an arity mismatch."""


class CyclicCallError(ModalError):
    """The function call graph contains a cycle (recursion is not supported)."""


class MissingBinding(ModalError):
    """A free variable of the program has no value in the environment."""


class MissingConfig(ModalError):
    """Plain evaluation hit a feature test without a configuration."""


class UndeclaredFeature(ModalError):
    """A feature name was used that the modality block does not declare."""


class ModalityMismatch(ModalError):
    """Values from different modalities were mixed, or a construct needs a
    modality the run does not use (e.g. feature tests outside the feature
    modality)."""


class ArityMismatch(ModalError):
    """A lifted function was applied to the wrong number of arguments."""


class EmptyModalValue(ModalError):
    """Normalization dropped every pair of a modal value."""


class ProbabilityOverflow(ModalError):
    """Joining probability labels exceeded 1.0 beyond tolerance."""


class IntervalJoinMismatch(ModalError):
    """Tried to join the MIN and MAX endpoint tags."""


class TooManyFeatures(ModalError):
    """More features declared than the configured limit allows."""


class BudgetExceeded(ModalError):
    """World enumeration would exceed the configured budget, or input is
    nested deeper than the parsers or evaluators can follow."""


class InvariantViolation(ModalError):
    """An intermediate or final modal value failed validation."""


class ProjectionUnsupported(ModalError):
    """Projection is undefined for this modality (probability labels do not
    name worlds)."""


# Per-world runtime error kinds.  These are data: they end up as labeled
# pairs inside a ModalResult, not as host exceptions.
DIV_BY_ZERO = "DivByZero"
OVERFLOW = "Overflow"
TYPE_MISMATCH = "TypeMismatch"


class EvalError(ModalError):
    """A runtime failure confined to the worlds where it happened."""

    def __init__(self, kind, message=""):
        super().__init__(message or kind)
        self.kind = kind
