"""Evaluate programs over many labeled worlds at once.

Plain programs compute one value per run.  This package lifts them: inputs
become modal values (sets of labeled variants), labels come from one of
three pluggable algebras (sets of feature configurations, probabilities,
or sets of MIN/MAX range endpoints), and evaluation produces an answer for
every world in a single pass, pruning world combinations that cannot
co-occur and sharing whatever the worlds have in common.
"""

from .bindings import load_bindings, parse_bindings
from .errors import EvalError, ModalError
from .labels import FeatureAlgebra, IntervalAlgebra, ProbabilityAlgebra, Tag
from .lang import Program, eval_plain, parse, render_program
from .lifting import LiftStats, shallow_apply
from .modal import ModalResult, ModalValue, normalize, render_result, validate
from .modal_eval import ModalEnv, eval_modal, eval_shallow_blackbox
from .oracle import assert_equiv, brute_force_eval

__version__ = "0.1.0"

__all__ = [
    "EvalError",
    "FeatureAlgebra",
    "IntervalAlgebra",
    "LiftStats",
    "ModalEnv",
    "ModalError",
    "ModalResult",
    "ModalValue",
    "ProbabilityAlgebra",
    "Program",
    "Tag",
    "assert_equiv",
    "brute_force_eval",
    "eval_modal",
    "eval_plain",
    "eval_shallow_blackbox",
    "load_bindings",
    "normalize",
    "parse",
    "parse_bindings",
    "render_program",
    "render_result",
    "shallow_apply",
    "validate",
]
