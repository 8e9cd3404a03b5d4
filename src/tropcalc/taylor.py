"""Syntactic Taylor expansion, the semantic star operator, and Lipschitz
constant estimation.

A resource term is a lambda term whose applications carry explicit finite
bags of arguments: the head must use each bag element exactly once.  Each
element of a term's expansion elaborates into a differential term (iterated
D[-,-] applied to the zero term), so its denotation is computed by the
relational interpreter.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

from . import terms as T
from .model import (
    Caps,
    DEFAULT_CAPS,
    SumSet,
    TropMatrix,
    ZERO_SERIES,
    _interpret,
    bag_add,
    interpret,
    linear_sum,
    matrix_apply,
    split_component,
    tag_bag,
    uncurry,
)
from .series import TropSeries
from .values import INF, Trop, is_inf, trop_add, trop_dist, trop_mul


class InfiniteAtBall(ValueError):
    pass


# ------------------------------------------------------------ resource terms


class ResourceTerm:
    def __str__(self):
        return pretty_resource(self)


@dataclass(frozen=True)
class RVar(ResourceTerm):
    name: str


@dataclass(frozen=True)
class RLam(ResourceTerm):
    var: str
    ann: T.Type
    body: ResourceTerm


@dataclass(frozen=True)
class RBagApp(ResourceTerm):
    head: ResourceTerm
    bag: Tuple[ResourceTerm, ...]


def pretty_resource(t: ResourceTerm) -> str:
    if isinstance(t, RVar):
        return t.name
    if isinstance(t, RLam):
        return f"\\{t.var}:{t.ann}. {pretty_resource(t.body)}"
    if isinstance(t, RBagApp):
        head = pretty_resource(t.head)
        if isinstance(t.head, RLam):
            head = f"({head})"
        inner = ",".join(pretty_resource(u) for u in t.bag)
        return f"{head}<{inner}>"
    raise TypeError(repr(t))


def taylor_expand(term: T.Term, degree_cap: int) -> List[ResourceTerm]:
    """All expansion elements whose bags have size <= degree_cap,
    in a deterministic order."""
    if isinstance(term, T.Var):
        return [RVar(term.name)]
    if isinstance(term, T.Lam):
        return [RLam(term.var, term.ann, t) for t in taylor_expand(term.body, degree_cap)]
    if isinstance(term, T.App):
        heads = taylor_expand(term.fn, degree_cap)
        args = taylor_expand(term.arg, degree_cap)
        out = []
        for t in heads:
            for k in range(degree_cap + 1):
                for combo in itertools.combinations_with_replacement(
                    range(len(args)), k
                ):
                    out.append(RBagApp(t, tuple(args[i] for i in combo)))
        out.sort(key=pretty_resource)
        return out
    raise TypeError(f"Taylor expansion is defined on plain lambda terms, got {type(term).__name__}")


def elaborate(t: ResourceTerm) -> T.Term:
    """A bag application becomes an iterated derivative applied to zero."""
    if isinstance(t, RVar):
        return T.Var(t.name)
    if isinstance(t, RLam):
        return T.Lam(t.var, t.ann, elaborate(t.body))
    if isinstance(t, RBagApp):
        fn = elaborate(t.head)
        for u in t.bag:
            fn = T.DApp(fn, elaborate(u))
        return T.App(fn, T.ZERO_TERM)
    raise TypeError(repr(t))


def interpret_resource(t: ResourceTerm, ctx=None, caps: Caps = DEFAULT_CAPS) -> TropMatrix:
    return interpret(elaborate(t), ctx or [], "stdlc", caps)


# --------------------------------------------------------------- star & co.


def star(f: TropMatrix, g: TropMatrix) -> TropMatrix:
    """(f * g)_{rho + mu, y} = inf over rho = rho' + rho'' and points x of
    g_{rho',x} + f_{rho'' + (mu+[x]), y}.

    f : !(C+A) -> B differentiated in its A slot, the last component of its
    context, fed by g : !C -> A.
    """
    if not isinstance(f.dom, SumSet) or not f.dom.components:
        raise ValueError("star needs a context domain")
    n = len(f.dom.components) - 1
    if g.cod != f.dom.components[n]:
        raise ValueError("the argument matrix must land in the linear slot")

    def fn(bag, y):
        ctx, mu = split_component(bag, n)

        def head(rho, x):
            return f.entry(bag_add(rho, tag_bag(n, bag_add(mu, (x,)))), y)

        return linear_sum(head, g, ctx)

    return TropMatrix(f.dom, f.cod, fn)


def taylor_term(t: TropMatrix, s: TropMatrix, n: int) -> TropMatrix:
    """n-th Taylor approximant of applying t to s: uncurry t, differentiate
    and feed s n times, then close the linear slot with INF."""
    f = uncurry(t)
    for _ in range(n):
        f = star(f, s)
    return TropMatrix(t.dom, f.cod, f.entry)


def taylor_gap(
    term: T.Term,
    x: Mapping,
    b,
    degree_cap: int,
    ctx=None,
    caps: Caps = DEFAULT_CAPS,
    params: Optional[Mapping[str, Trop]] = None,
    max_bag: Optional[int] = None,
) -> Tuple[Trop, Trop]:
    """(direct, expanded) value at a point: the direct interpretation
    against the min over the syntactic expansion.  expanded >= direct,
    with equality once the witnessing bag sizes fit under the cap.  The
    expansion's elements share their subterms, so one memo builds each
    subterm's matrix once for the whole call."""
    ctx = ctx or []
    memo: dict = {}
    direct = matrix_apply(_interpret(term, ctx, "stlc", caps, memo), x, params, max_bag)[b]
    expanded: Trop = INF
    for rt in taylor_expand(term, degree_cap):
        val = matrix_apply(_interpret(elaborate(rt), ctx, "stdlc", caps, memo), x, params, max_bag)[b]
        expanded = trop_add(expanded, val)
    return direct, expanded


# ---------------------------------------------------------------- Lipschitz


PointFn = Callable[[Mapping[str, Trop]], Trop]


def _as_fn(f: Union[TropSeries, PointFn]) -> Tuple[PointFn, Sequence[str]]:
    if isinstance(f, TropSeries):
        return f.eval, f.vars
    return f, ()


def matrix_fn(m: TropMatrix, b, params=None, max_bag=None) -> PointFn:
    """View a matrix as a point function at a fixed codomain point."""

    def fn(x):
        return matrix_apply(m, x, params, max_bag)[b]

    return fn


def lipschitz_estimate(
    f: Union[TropSeries, PointFn],
    center: Mapping,
    delta: Trop,
    radius_mult: int = 3,
) -> Trop:
    """A Lipschitz constant valid on the closed delta-ball around center:
    (1/delta) times the value at center shifted by radius_mult*delta on
    every finite coordinate.

    The default multiplier 3 comes with the concavity/monotonicity
    argument; a variant with multiplier 2 is available for comparison.
    """
    if not (0 < delta < INF):
        raise ValueError("delta must be in (0, inf)")
    fn, _ = _as_fn(f)
    shifted = {
        v: (c if is_inf(c) else c + radius_mult * delta) for v, c in center.items()
    }
    top = fn(shifted)
    if is_inf(top):
        raise InfiniteAtBall(
            f"value at center + {radius_mult}*delta is infinite; no finite constant"
        )
    return top / delta


def empirical_lipschitz(
    f: Union[TropSeries, PointFn],
    lo: Trop,
    hi: Trop,
    samples: int,
    seed: int,
    vars: Optional[Sequence] = None,
) -> Trop:
    """Max observed ratio dist(f(u),f(v)) / dist(u,v) over sampled finite
    rational pairs in [lo,hi]^vars.  Deterministic given the seed."""
    fn, fvars = _as_fn(f)
    coords = list(vars) if vars is not None else list(fvars)
    if not coords:
        return Fraction(0)
    lo, hi = Fraction(lo), Fraction(hi)
    if not (0 < lo <= hi):
        raise ValueError("need 0 < lo <= hi")
    rng = random.Random(seed)
    denom = 64

    def draw():
        return {
            v: lo + (hi - lo) * Fraction(rng.randint(0, denom), denom)
            for v in coords
        }

    best: Trop = Fraction(0)
    for _ in range(samples):
        u, v = draw(), draw()
        gap = max(trop_dist(u[c], v[c]) for c in coords)
        if gap == 0:
            continue
        fu, fv = fn(u), fn(v)
        if is_inf(fu) or is_inf(fv):
            continue
        ratio = trop_dist(fu, fv) / gap
        if ratio > best:
            best = ratio
    return best
