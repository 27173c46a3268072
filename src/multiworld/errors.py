"""Exception hierarchy shared across the package.

Two flavors matter: host-level failures (bad input files, missing bindings,
budget blowups) abort a run, while per-world runtime failures (``EvalError``)
are caught by the lifting machinery and turned into labeled error pairs.

Each class's ``exit_code`` is the code ``modal run`` exits with when the
error aborts a run: 1 for usage and parse problems, 2 for invariant
violations, 3 for exceeded budgets.
"""


class ModalError(Exception):
    """Base class for all package errors."""

    exit_code = 1


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

    exit_code = 2


class ProbabilityOverflow(ModalError):
    """Joining probability labels exceeded 1.0 beyond tolerance."""

    exit_code = 2


class TooManyFeatures(ModalError):
    """More features declared than a label holds: a feature label is a set
    of 2^k configurations, so at most 24 features are declared."""

    exit_code = 3


class BudgetExceeded(ModalError):
    """World enumeration would exceed the configured budget, or input is
    nested deeper than Python's recursion limit lets a parser or an
    evaluator follow at one frame a level (two in checked deep)."""

    exit_code = 3


class InvariantViolation(ModalError):
    """An intermediate or final modal value failed validation."""

    exit_code = 2


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
