"""Evaluate programs over many labeled worlds at once.

Plain programs compute one value per run.  This package lifts them: inputs
become modal values (sets of labeled variants), labels come from one of
three pluggable algebras (feature formulas, probabilities, or MIN/MAX
range tags), and evaluation produces an answer for every world in a single
pass, pruning world combinations that cannot co-occur and sharing whatever
the worlds have in common.
"""

from .bindings import load_bindings, parse_bindings
from .errors import EvalError, ModalError
from .labels import (
    FeatureAlgebra,
    IntervalAlgebra,
    ProbabilityAlgebra,
    Tag,
    algebra_for,
)
from .lang import Program, eval_plain, parse, render_program
from .lifting import LiftStats, PrimitiveFn, restrict, shallow_apply
from .modal import (
    ModalResult,
    ModalValue,
    make_const,
    normalize,
    normalize_result,
    project,
    render_result,
    validate,
)
from .modal_eval import ModalEnv, eval_modal, eval_shallow_blackbox
from .oracle import (
    assert_equiv,
    brute_force_eval,
    enumerate_worlds,
    random_bindings,
    random_program,
)

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
    "PrimitiveFn",
    "ProbabilityAlgebra",
    "Program",
    "Tag",
    "algebra_for",
    "assert_equiv",
    "brute_force_eval",
    "enumerate_worlds",
    "eval_modal",
    "eval_plain",
    "eval_shallow_blackbox",
    "load_bindings",
    "make_const",
    "normalize",
    "normalize_result",
    "parse",
    "parse_bindings",
    "project",
    "random_bindings",
    "random_program",
    "render_program",
    "render_result",
    "restrict",
    "shallow_apply",
    "validate",
]
