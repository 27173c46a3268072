"""Brute-force reference semantics for feature formulas.

The feature algebra holds labels as world-set bitsets; these helpers give
the independent meaning of a ``FeatureExpr`` to check it against.
"""

from multiworld.labels import FAnd, FFalse, FNot, FOr, FTrue, FVar


def satisfies(expr, config) -> bool:
    """Evaluate a formula under a total feature-to-bool configuration."""
    if isinstance(expr, FTrue):
        return True
    if isinstance(expr, FFalse):
        return False
    if isinstance(expr, FVar):
        return bool(config[expr.name])
    if isinstance(expr, FNot):
        return not satisfies(expr.arg, config)
    if isinstance(expr, FAnd):
        return satisfies(expr.lhs, config) and satisfies(expr.rhs, config)
    if isinstance(expr, FOr):
        return satisfies(expr.lhs, config) or satisfies(expr.rhs, config)
    raise TypeError(f"not a feature expression: {expr!r}")


def build(alg, expr) -> int:
    """The formula's label, folded with the algebra's own operations."""
    if isinstance(expr, FTrue):
        return alg.top
    if isinstance(expr, FFalse):
        return alg.complement(alg.top)
    if isinstance(expr, FVar):
        return alg.var(expr.name)
    if isinstance(expr, FNot):
        return alg.complement(build(alg, expr.arg))
    op = alg.meet if isinstance(expr, FAnd) else alg.join
    return op(build(alg, expr.lhs), build(alg, expr.rhs))


def world_set(alg, expr) -> int:
    """The formula's world set, evaluated at every configuration: bit p is
    set iff the formula holds where ``features[i]`` is bit i of p."""
    out = 0
    for p in range(1 << len(alg.features)):
        config = {name: bool(p >> i & 1) for i, name in enumerate(alg.features)}
        if satisfies(expr, config):
            out |= 1 << p
    return out


def inside(label: int, bits: int, dont_care: int) -> bool:
    """Whether every configuration of the cube lies in the label: the cube
    fixes the features outside ``dont_care`` to their bits in ``bits``."""
    free = dont_care
    while True:
        if not label >> (bits | free) & 1:
            return False
        if not free:
            return True
        free = (free - 1) & dont_care


def prime_cubes(label: int, k: int) -> set:
    """Every prime implicant of a label over ``k`` features as (bits,
    dont_care), by definition: a cube is prime iff it lies inside the label
    and no cube with one literal dropped does."""
    out = set()
    for dont_care in range(1 << k):
        for bits in range(1 << k):
            if bits & dont_care or not inside(label, bits, dont_care):
                continue
            fixed = [1 << i for i in range(k) if not dont_care >> i & 1]
            if not any(inside(label, bits & ~f, dont_care | f) for f in fixed):
                out.add((bits, dont_care))
    return out
