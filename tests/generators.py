"""Seeded generators of small well-scoped programs and bindings.

The equivalence and invariant sweeps, and the deep goldens, draw their
corpora from these: a fixed seed gives the same bindings and program on
every run, so a corpus is named by its seeds alone.
"""

from multiworld import lang
from multiworld.labels import FeatureAlgebra, IntervalAlgebra, ProbabilityAlgebra, Tag
from multiworld.modal import ModalValue, normalize

_FEATURE_POOL = ("FA", "FB", "FC", "FD")


def make_const(alg, v) -> ModalValue:
    """The modal value that is ``v`` in every world, in normal form."""
    return ModalValue(alg.lower(((v, alg.top),)), alg.kind)


def random_bindings(rng, kind: str, *, max_features: int = 4, max_vars: int = 4):
    """A fresh algebra plus well-formed random bindings for it."""
    if kind == "feature":
        alg = FeatureAlgebra(_FEATURE_POOL[: rng.randint(1, max_features)])
        configs = list(alg.iter_configs())
        bindings = {}
        for i in range(rng.randint(1, max_vars)):
            if rng.random() < 0.3:
                mv = make_const(alg, rng.randint(-8, 8))
            else:
                pool = [rng.randint(-8, 8) for _ in range(rng.randint(1, 3))]
                pairs = [(rng.choice(pool), alg.minterm(c)) for c in configs]
                mv = normalize(alg, ModalValue(tuple(pairs), alg.kind))
            bindings[f"x{i}"] = mv
        return alg, bindings
    if kind == "interval":
        alg = IntervalAlgebra()
        bindings = {}
        for i in range(rng.randint(1, max_vars)):
            lo = rng.randint(-8, 8)
            hi = rng.randint(lo, 8)
            bindings[f"x{i}"] = normalize(alg, ModalValue(((lo, Tag.MIN), (hi, Tag.MAX)), alg.kind))
        return alg, bindings
    alg = ProbabilityAlgebra()
    bindings = {}
    for i in range(rng.randint(1, max_vars)):
        support = rng.sample(range(-8, 9), rng.randint(1, 3))
        raw = [rng.randint(1, 5) for _ in support]
        total = sum(raw)
        pairs = tuple((v, w / total) for v, w in zip(support, raw))
        bindings[f"x{i}"] = normalize(alg, ModalValue(pairs, alg.kind))
    return alg, bindings


class _ProgramGen:
    """Small well-scoped programs; with ``linear`` every variable (modal,
    let-bound, or parameter) is referenced at most once."""

    def __init__(self, rng, alg, binding_names, *, linear: bool, max_depth: int):
        self.rng = rng
        self.features = alg.features
        self.linear = linear
        self.max_depth = max_depth
        self.pool = list(binding_names)
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
        # negative literals take the parser's shape (unary minus desugars
        # to 0 - n), so generated programs round-trip through render/parse
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
            if scope is not None:
                scope.append(name)
                body = self.gen_int(depth - 1, scope)
                if name in scope:
                    scope.remove(name)
            else:
                self.pool.append(name)
                body = self.gen_int(depth - 1, scope)
                if name in self.pool:
                    self.pool.remove(name)
            return lang.Let(name, bound, body)
        if self.fundefs:
            fd = self.rng.choice(self.fundefs)
            args = tuple(self.gen_int(depth - 1, scope) for _ in fd.params)
            return lang.Call(fd.name, args)
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

    def gen_program(self) -> lang.Program:
        for i in range(self.rng.randint(0, 2)):
            params = [f"p{j}" for j in range(self.rng.randint(1, 2))]
            body = self.gen_int(3, scope=list(params))
            self.fundefs.append(lang.FunDef(f"f{i}", tuple(params), body))
        main = self.gen_int(self.max_depth, scope=None)
        return lang.Program(tuple(self.fundefs), main)


def random_program(rng, alg, bindings, *, linear: bool = False, max_depth: int = 6) -> lang.Program:
    """A random well-scoped, non-recursive program over the given bindings."""
    gen = _ProgramGen(rng, alg, list(bindings), linear=linear, max_depth=max_depth)
    return gen.gen_program()
