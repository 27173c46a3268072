"""Seeded benchmark inputs, written as program and bindings texts.

The program under test only ever sees texts.  Corpus generation follows
the grammar and odds of ``oracle.random_bindings`` / ``oracle.random_program``
(the acceptance corpus) but lives here, so a change to those generators
cannot change the benchmark's inputs.  The texts are still printed by the
package (``lang.render_program``, ``labels.feature_text``, ``and_all`` /
``or_all``), so a change to how it prints programs or labels does change
them; each run records ``inputs_sha256`` (see ``inputs_digest``) so that
such a change shows when runs are compared.

Corpus op ``i`` draws its structure and its integers from a stream seeded
by ``i`` alone, like the acceptance corpus, which is seeds ``0..N-1``.  The
workload seed renames every feature and bound variable and shuffles the op
order.  It does not redraw structure or values: deep evaluation time spans
four orders of magnitude across random programs and moves by 2-5x on one
program when only its integers change, so with per-seed programs a handful
of ops set every throughput figure (the spread across seeds was 15-25% on
400 ops).  Renaming keeps each op's cost while every text differs.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import string
from dataclasses import dataclass, fields, is_dataclass, replace

from multiworld import lang
from multiworld.bindings import parse_bindings
from multiworld.labels import FNot, FVar, and_all, feature_text, or_all

FEATURE_COUNT_MAX = 4
VARS_MAX = 4


@dataclass(frozen=True)
class Op:
    """One (program text, bindings text) input."""

    index: int
    modality: str
    program_text: str
    bindings_text: str
    program: lang.Program
    # what the bindings text must parse back to, per variable:
    # feature {config bits: value}, probability ((value, weight), ...),
    # interval (lo, hi)
    expected: dict
    features: tuple
    nodes: int
    group: int = 0
    checked: bool = False


def count_nodes(obj) -> int:
    """Distinct dataclass nodes reachable from ``obj`` (syntax tree or
    label DAG); a label that is not a dataclass counts as one node."""
    if not is_dataclass(obj):
        return 1
    seen = set()
    stack = [obj]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        elif is_dataclass(node) and id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, f.name) for f in fields(node))
    return len(seen)


def configs(features) -> list:
    """All configurations as bit tuples, last feature varying fastest."""
    return list(itertools.product((False, True), repeat=len(features)))


def _names(rng, prefix, alphabet, count) -> tuple:
    out: list = []
    while len(out) < count:
        name = prefix + "".join(rng.choice(alphabet) for _ in range(3))
        if name not in out:
            out.append(name)
    return tuple(out)


def feature_names(rng, count) -> tuple:
    return _names(rng, "F", string.ascii_uppercase, count)


def var_names(rng, count) -> tuple:
    # the x prefix keeps clear of let (t), parameter (p) and function (f)
    # names, and of every keyword
    return _names(rng, "x", string.ascii_lowercase, count)


# --------------------------------------------------------------------------
# Bindings
# --------------------------------------------------------------------------

def _minterm(features, bits):
    return and_all([FVar(n) if b else FNot(FVar(n)) for n, b in zip(features, bits)])


def feature_bindings_text(features, expected) -> str:
    """Each value's label is the disjunction of its minterms."""
    lines = [f"modality feature({', '.join(features)});"]
    everywhere = len(configs(features))
    for name, by_config in expected.items():
        groups: dict = {}
        for bits, v in by_config.items():
            groups.setdefault(v, []).append(bits)
        pairs = []
        for v, members in groups.items():
            if len(members) == everywhere:
                label = "true"
            else:
                label = feature_text(or_all([_minterm(features, b) for b in members]))
            pairs.append(f"{v} @ {label}")
        lines.append(f"bind {name} = {{ {', '.join(pairs)} }};")
    return "\n".join(lines) + "\n"


def probability_bindings_text(expected) -> str:
    # repr round-trips a float exactly, so the weights still sum to 1
    lines = ["modality probability;"]
    for name, pairs in expected.items():
        body = ", ".join(f"{v} @ {w!r}" for v, w in pairs)
        lines.append(f"bind {name} = {{ {body} }};")
    return "\n".join(lines) + "\n"


def interval_bindings_text(expected) -> str:
    lines = ["modality interval;"]
    lines.extend(f"bind {name} = [{lo} .. {hi}];" for name, (lo, hi) in expected.items())
    return "\n".join(lines) + "\n"


def random_expected(rng, modality, features, names) -> dict:
    """Binding contents with ``random_bindings``'s odds."""
    out = {}
    for name in names:
        if modality == "feature":
            table = configs(features)
            if rng.random() < 0.3:
                v = rng.randint(-8, 8)
                out[name] = {bits: v for bits in table}
            else:
                pool = [rng.randint(-8, 8) for _ in range(rng.randint(1, 3))]
                out[name] = {bits: rng.choice(pool) for bits in table}
        elif modality == "interval":
            lo = rng.randint(-8, 8)
            out[name] = (lo, rng.randint(lo, 8))
        else:
            support = rng.sample(range(-8, 9), rng.randint(1, 3))
            raw = [rng.randint(1, 5) for _ in support]
            total = sum(raw)
            out[name] = tuple((v, w / total) for v, w in zip(support, raw))
    return out


def bindings_text(modality, features, expected) -> str:
    if modality == "feature":
        return feature_bindings_text(features, expected)
    if modality == "probability":
        return probability_bindings_text(expected)
    return interval_bindings_text(expected)


# --------------------------------------------------------------------------
# Programs
# --------------------------------------------------------------------------

class _ProgramGen:
    """Small well-scoped programs; with ``linear`` every variable is
    referenced at most once (the probability oracle needs that)."""

    def __init__(self, rng, features, names, *, linear, max_depth):
        self.rng = rng
        self.features = features
        self.linear = linear
        self.max_depth = max_depth
        self.pool = list(names)
        self.fresh = 0
        self.fundefs: list = []

    def _take_var(self, scope):
        names = scope if scope is not None else self.pool
        if not names:
            return None
        name = self.rng.choice(names)
        if self.linear:
            names.remove(name)
        return name

    def _int_lit(self, lo, hi):
        # negative literals take the parser's shape (unary minus is 0 - n),
        # so programs round-trip through render and parse
        v = self.rng.randint(lo, hi)
        if v < 0:
            return lang.BinOp("-", lang.IntLit(0), lang.IntLit(-v))
        return lang.IntLit(v)

    def gen_int(self, depth, scope=None):
        rng = self.rng
        roll = rng.random()
        if depth <= 0 or roll < 0.28:
            name = self._take_var(scope) if rng.random() < 0.6 else None
            if name is not None:
                return lang.Var(name)
            return self._int_lit(-9, 9)
        if roll < 0.62:
            op = rng.choice(("+", "-", "*", "/"))
            lhs = self.gen_int(depth - 1, scope)
            rhs = self.gen_int(depth - 1, scope)
            if op == "/" and rhs == lang.IntLit(0):
                rhs = lang.IntLit(rng.randint(1, 4))
            return lang.BinOp(op, lhs, rhs)
        if roll < 0.76:
            return lang.If(
                self.gen_bool(depth - 1, scope),
                self.gen_int(depth - 1, scope),
                self.gen_int(depth - 1, scope),
            )
        if roll < 0.88 and depth >= 2:
            name = f"t{self.fresh}"
            self.fresh += 1
            bound = self.gen_int(depth - 1, scope)
            names = scope if scope is not None else self.pool
            names.append(name)
            body = self.gen_int(depth - 1, scope)
            if name in names:
                names.remove(name)
            return lang.Let(name, bound, body)
        if self.fundefs:
            fd = rng.choice(self.fundefs)
            return lang.Call(fd.name, tuple(self.gen_int(depth - 1, scope) for _ in fd.params))
        return self._int_lit(-9, 9)

    def gen_bool(self, depth, scope=None):
        rng = self.rng
        roll = rng.random()
        if depth <= 0 or roll < 0.1:
            return lang.BoolLit(rng.random() < 0.5)
        if roll < 0.55:
            op = rng.choice(("<", "<=", "=="))
            return lang.BinOp(op, self.gen_int(depth - 1, scope), self.gen_int(depth - 1, scope))
        if roll < 0.7 and self.features:
            return lang.Feature(rng.choice(self.features))
        if roll < 0.8:
            return lang.Not(self.gen_bool(depth - 1, scope))
        op = rng.choice(("&&", "||"))
        return lang.BinOp(op, self.gen_bool(depth - 1, scope), self.gen_bool(depth - 1, scope))

    def program(self) -> lang.Program:
        for i in range(self.rng.randint(0, 2)):
            params = [f"p{j}" for j in range(self.rng.randint(1, 2))]
            body = self.gen_int(3, scope=list(params))
            self.fundefs.append(lang.FunDef(f"f{i}", tuple(params), body))
        main = self.gen_int(self.max_depth, scope=None)
        return lang.Program(tuple(self.fundefs), main)


def corpus_op(index: int, seed: int, modality: str, *, max_depth: int) -> Op:
    """Op ``index`` of a corpus: structure and values from ``index``,
    identifiers from ``seed``."""
    rng = random.Random(f"{modality}/{index}")
    rename = random.Random(f"names/{seed}/{index}")
    features: tuple = ()
    if modality == "feature":
        features = feature_names(rename, rng.randint(1, FEATURE_COUNT_MAX))
    names = var_names(rename, rng.randint(1, VARS_MAX))
    expected = random_expected(rng, modality, features, names)
    program = _ProgramGen(
        rng, features, names, linear=modality == "probability", max_depth=max_depth
    ).program()
    return Op(
        index=index,
        modality=modality,
        program_text=lang.render_program(program),
        bindings_text=bindings_text(modality, features, expected),
        program=program,
        expected=expected,
        features=features,
        nodes=count_nodes(program),
    )


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

CORPUS_OPS = 400
CHECK_EVERY = 8

# nested-let sweeps: (tested features k, sweep of n, n run checked).
# Checked runs cost 1.6 s at n = 6 and 13 s at n = 8 (k = 6).  At k = 10
# one display costs up to 2 s whatever the mode, so that sweep stays short
# and unchecked.  Nine ops in all: with an odd count, deep_ms_p50 is one
# op's latency rather than the mean of two ops that differ 3x.
NESTED_SWEEPS = (
    (6, (2, 4, 6, 8, 10, 12), (2, 4, 6)),
    (10, (2, 3, 4), ()),
)


def nested_let_text(n: int, features, var: str) -> str:
    """The ROADMAP scaling family, level ``i`` testing feature ``i % k``."""
    k = len(features)
    lines = [f"let v0 = {var} in"]
    for i in range(1, n):
        lines.append(
            f'let v{i} = if feature("{features[i % k]}") then v{i - 1} + {i} '
            f"else v{i - 1} * 2 in"
        )
    lines.append(f"v{n - 1}")
    return "\n".join(lines)


def nested_let_ops(seed: int) -> list:
    ops = []
    for group, (k, sweep, checked) in enumerate(NESTED_SWEEPS):
        rename = random.Random(f"names/{seed}/nested/{k}")
        features = feature_names(rename, k)
        (var,) = var_names(rename, 1)
        expected = {var: {bits: 1 if bits[0] else 2 for bits in configs(features)}}
        btext = (
            f"modality feature({', '.join(features)});\n"
            f"bind {var} = {{ 1 @ {features[0]}, 2 @ !{features[0]} }};\n"
        )
        for n in sweep:
            text = nested_let_text(n, features, var)
            program = lang.parse(text)
            ops.append(Op(len(ops), "feature", text, btext, program, expected,
                          features, count_nodes(program), group, n in checked))
    return ops


def corpus_ops(seed: int, modalities, *, max_depth: int, count: int) -> list:
    """``count`` ops cycling through ``modalities``, in a seeded order that
    keeps the cycle; the checked subset is the same op indices under every
    seed."""
    width = len(modalities)
    rounds = list(range(count // width))
    random.Random(f"order/{seed}").shuffle(rounds)
    ops = []
    for r in rounds:
        for j, modality in enumerate(modalities):
            i = r * width + j
            op = corpus_op(i, seed, modality, max_depth=max_depth)
            ops.append(replace(op, group=len(ops), checked=r % CHECK_EVERY == 0))
    return ops


# ops of one group share one algebra, loaded once per group and mode
SHARED_ALGEBRA = {"nested-let"}

WORKLOADS = {
    # the acceptance corpus: feature modality, 1-4 features, default depth
    "feature-corpus": lambda seed, count=CORPUS_OPS: corpus_ops(
        seed, ("feature",), max_depth=6, count=count),
    "nested-let": nested_let_ops,
    # interval and linear probability programs, alternating, deeper than
    # the test corpora
    "interval-prob-corpus": lambda seed, count=CORPUS_OPS: corpus_ops(
        seed, ("interval", "probability"), max_depth=8, count=count),
}


def load_shared(workload: str, ops: list):
    """On a workload that shares algebras, load each group's bindings once."""
    if workload in SHARED_ALGEBRA:
        for text in dict.fromkeys(op.bindings_text for op in ops):
            parse_bindings(text)


def prepare(workload: str, seed: int) -> list:
    """Everything before the first timed op: generate the inputs and load
    any shared bindings."""
    ops = WORKLOADS[workload](seed)
    load_shared(workload, ops)
    return ops


def inputs_digest(ops: list) -> str:
    """A digest of every op's program and bindings text, in op order.  The
    texts are printed by the package (``lang.render_program``,
    ``labels.feature_text``), so a change to how it prints them changes
    the inputs; comparing digests shows it."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.program_text.encode() + b"\0" + op.bindings_text.encode() + b"\0")
    return h.hexdigest()[:16]
