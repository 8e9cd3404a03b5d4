"""Weighted small-step reduction, best-case path search and MLE analysis.

Every reduction step carries a weight: a beta/arithmetic step is free (the
tropical unit 0), a scalar ``w . M`` charges w, and a sum resolves to either
branch for free.  Binary choices desugar into weighted sums first, so the
engine sees a single rule set.  The total weight of a path is the tropical
product (= sum) of its step weights, a monomial in the weight parameters;
minimizing over paths is then a shortest-path computation in min-plus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from . import terms as T
from .model import Caps, DEFAULT_CAPS, interpret, weight_series
from .series import MultiDegree, TropSeries
from .values import Trop

ZERO_W = TropSeries.constant(Fraction(0))


class BadAddress(ValueError):
    pass


@dataclass(frozen=True)
class WeightedStep:
    address: Tuple[str, ...]
    rule: str
    weight: TropSeries


def _num(outcome) -> int:
    """Observable outcomes: a numeral index, with booleans coded 0/1."""
    if outcome is True:
        return 0
    if outcome is False:
        return 1
    if isinstance(outcome, T.Numeral):
        return outcome.n
    return int(outcome)


# ----------------------------------------------------------------- one step


def step(t: T.Term) -> List[Tuple[T.Term, WeightedStep]]:
    """All one-step reducts with their weighted step records.

    The strategy is leftmost-outermost: a root redex fires alone; otherwise
    the single active position (function side of an application, argument
    of succ/pred, scrutinee of ifz) is reduced.  Normal forms return [].
    """
    return _step_at(t, ())


def _step_at(t: T.Term, addr: Tuple[str, ...]) -> List[Tuple[T.Term, WeightedStep]]:
    if isinstance(t, T.Choice):
        # (M (+p) N) -> p.M + p'.N, for free; the weights are charged when
        # the scalars fire.  The summands are in make_sum's order already
        # ("p . M" sorts before "p' . N", see translate_prob)
        out = T.Sum((T.Scalar(t.w_left, t.left), T.Scalar(t.w_right, t.right)))
        return [(out, WeightedStep(addr, "choice", ZERO_W))]
    if isinstance(t, T.Sum):
        return [
            (s, WeightedStep(addr, f"sum[{i}]", ZERO_W))
            for i, s in enumerate(t.terms)
        ]
    if isinstance(t, T.Scalar):
        return [(t.body, WeightedStep(addr, "scalar", weight_series(t.weight)))]
    if isinstance(t, T.Fix):
        return [(T.App(t.body, t), WeightedStep(addr, "fix", ZERO_W))]
    if isinstance(t, T.App):
        if isinstance(t.fn, T.Lam):
            out = T.subst(t.fn.body, t.fn.var, t.arg)
            return [(out, WeightedStep(addr, "beta", ZERO_W))]
        return [
            (T.App(fn, t.arg), ws)
            for fn, ws in _step_at(t.fn, addr + ("fn",))
        ]
    if isinstance(t, T.Succ):
        if isinstance(t.arg, T.Numeral):
            return [(T.Numeral(t.arg.n + 1), WeightedStep(addr, "succ", ZERO_W))]
        return [(T.Succ(a), ws) for a, ws in _step_at(t.arg, addr + ("arg",))]
    if isinstance(t, T.Pred):
        if isinstance(t.arg, T.Numeral):
            return [
                (T.Numeral(max(t.arg.n - 1, 0)), WeightedStep(addr, "pred", ZERO_W))
            ]
        return [(T.Pred(a), ws) for a, ws in _step_at(t.arg, addr + ("arg",))]
    if isinstance(t, T.Ifz):
        if isinstance(t.cond, T.Numeral):
            branch = t.then if t.cond.n == 0 else t.other
            return [(branch, WeightedStep(addr, "ifz", ZERO_W))]
        return [
            (T.Ifz(c, t.then, t.other), ws)
            for c, ws in _step_at(t.cond, addr + ("cond",))
        ]
    return []  # Var, Lam, Numeral, ZeroTerm: no head redex


# ------------------------------------------------------------- path search


def best_case(term: T.Term, target, depth_cap: int) -> TropSeries:
    """Tropical min of path weights over all reduction paths of length
    <= depth_cap from term to the target numeral.

    States reached along different paths are merged with their weights
    min-combined, so this is a layered shortest-path sweep rather than a
    per-path enumeration.  The result is an upper bound of the true
    infimum, non-increasing in depth_cap; an unreachable target gives the
    empty (constantly infinite) series.

    Each distinct state is stepped once per call: its reducts are kept in
    `succ`, because a fixpoint reaches the same states at many depths.
    """
    goal = T.Numeral(_num(target))
    frontier: Dict[T.Term, TropSeries] = {T.translate_prob(term): ZERO_W}
    succ: Dict[T.Term, List[Tuple[T.Term, WeightedStep]]] = {}
    best = TropSeries.empty()
    for _ in range(depth_cap + 1):
        nxt: Dict[T.Term, TropSeries] = {}
        for t, w in frontier.items():
            if t == goal:
                best = best.tmin(w)
                continue
            steps = succ.get(t)
            if steps is None:
                steps = succ[t] = step(t)
            for t2, ws in steps:
                # the unit's product is w itself: same coefficients and vars
                acc = w if ws.weight is ZERO_W else w.tmul(ws.weight)
                nxt[t2] = acc.tmin(nxt[t2]) if t2 in nxt else acc
        if not nxt:
            break
        frontier = nxt
    return best


def _choice_leaves(t: T.Term) -> List[Tuple[str, T.Term, Dict[str, int]]]:
    """Every leaf of the choice tree, left to right, with its address and
    the degrees of its path monomial, in one walk: each node passes its
    degree map down.  Callers build only the monomials they use."""
    out: List[Tuple[str, T.Term, Dict[str, int]]] = []

    def walk(t: T.Term, omega: str, degrees: Dict[str, int]) -> None:
        if isinstance(t, T.Choice):
            for d, w, sub in (("l", t.w_left, t.left), ("r", t.w_right, t.right)):
                walk(sub, omega + d, {**degrees, w: degrees.get(w, 0) + 1})
        else:
            out.append((omega, t, degrees))

    walk(t, "", {})
    return out


def path_likelihood(term: T.Term, omega: str) -> TropSeries:
    """Weight monomial of one resolution of the choice tree: each ``l``
    charges the choice's own label, each ``r`` its primed partner."""
    degrees: Dict[str, int] = {}
    t = term
    for i, d in enumerate(omega):
        if not isinstance(t, T.Choice):
            raise BadAddress(f"address {omega!r} overruns the tree at {omega[:i]!r}")
        w = t.w_left if d == "l" else t.w_right if d == "r" else None
        if w is None:
            raise BadAddress(f"bad direction {d!r} in {omega!r}")
        degrees[w] = degrees.get(w, 0) + 1
        t = t.left if d == "l" else t.right
    if isinstance(t, T.Choice):
        raise BadAddress(f"address {omega!r} stops short of a leaf")
    return TropSeries.monomial(degrees, Fraction(0))


def outcome_series(term: T.Term, outcome, depth_cap: int = 24) -> TropSeries:
    """Min of path_likelihood over all choice resolutions reaching the
    outcome.  Exhaustive on finite choice trees; recursive terms fall back
    to the depth-capped path search (an upper bound of the infimum)."""
    n = _num(outcome)
    if _has_fix(term):
        return best_case(term, n, depth_cap)
    best = TropSeries.empty()
    for _, leaf, degrees in _choice_leaves(term):
        mono = TropSeries.monomial(degrees, Fraction(0))
        if leaf == T.Numeral(n):
            best = best.tmin(mono)
        else:
            tail = best_case(leaf, n, depth_cap)
            if not tail.is_empty:
                best = best.tmin(mono.tmul(tail))
    return best


def _has_fix(t: T.Term) -> bool:
    return isinstance(t, T.Fix) or any(_has_fix(k) for k in T.children(t))


# ---------------------------------------------------------------- adequacy


def adequacy_check(
    term: T.Term,
    target,
    caps: Caps = DEFAULT_CAPS,
    depth_cap: int = 24,
    eps: Trop = Fraction(1, 100),
) -> Tuple[TropSeries, TropSeries, bool]:
    """Denotational matrix entry vs. operational best case at a numeral.

    Both sides are eps-truncated before comparison.  Only the operational
    side carries a tail of dominated monomials, from the paths up to the
    depth cap; the denotational entry is stored without them, and a Kleene
    chain that stabilizes does so exactly.  The truncation is what that
    tail, and a chain cut off by the fixpoint cap, collapse under.
    """
    n = _num(target)
    den = interpret(term, [], "pcfl", caps).entry((), n)
    oper = best_case(term, n, depth_cap)
    return den, oper, den.truncate(eps) == oper.truncate(eps)


# --------------------------------------------------------------------- MLE


#: where a one-sided monomial is reported: it only approaches its infimum
#: as p -> 1 (or, mirrored, p -> 0), so p* sits just inside the interval
EDGE_P = Fraction(1000, 1001)


def mle(series: TropSeries) -> Tuple[Union[Fraction, float], Optional[MultiDegree]]:
    """Most likely bias: minimize the series along the one-parameter curve
    alpha = -log p, beta = -log(1-p) over p in (0,1).

    A primed variable (p', the right weight of M (+p) N) reads as
    -log(1-p) and an unprimed one as -log p.  When no variable is primed,
    the first in sorted order reads as -log p and the second as -log(1-p).

    The min over p of a min of monomials is the min over monomials of
    each one's own min.  A monomial c + i(-log p) + j(-log(1-p)) with
    i, j > 0 is least at exactly p = i/(i+j), where it is worth
    c + i log((i+j)/i) + j log((i+j)/j).  A one-sided monomial only
    approaches c as p -> 1 (j = 0) or p -> 0 (i = 0) and is reported at
    EDGE_P or 1 - EDGE_P; a constant one is flat and reported at 1/2.
    The minima are compared as floats, ties going to the first degree in
    ``items()`` order.  Returns the exact argmin of the winning monomial
    and that monomial ((nan, None) for the empty series).
    """
    if series.is_empty:
        return float("nan"), None
    if len(series.vars) > 2:
        raise ValueError(f"need at most two variables, got {list(series.vars)}")
    right = [v for v in series.vars if v.endswith("'")] or series.vars[1:]

    def optimum(d: MultiDegree) -> Tuple[float, Fraction]:
        j = sum(n for v, n in d.items() if v in right)
        i = d.total - j
        if i and j:
            return i * math.log((i + j) / i) + j * math.log((i + j) / j), Fraction(i, i + j)
        return 0.0, EDGE_P if i else 1 - EDGE_P if j else Fraction(1, 2)

    active = min(
        series.coeffs,
        key=lambda d: (float(series.coeffs[d]) + optimum(d)[0], d.items()),
    )
    return optimum(active)[1], active
