"""Weighted small-step reduction, best-case path search and MLE analysis.

Every reduction step carries a weight: a beta/arithmetic step is free (the
tropical unit 0), a scalar ``w . M`` charges w, and a sum resolves to either
branch for free.  Binary choices desugar into weighted sums first, so the
engine sees a single rule set.  The total weight of a path is the tropical
product (= sum) of its step weights, a monomial in the weight parameters;
minimizing over paths is then a shortest-path computation in min-plus.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from . import terms as T
from .model import Caps, DEFAULT_CAPS, interpret, weight_series
from .series import MultiDegree, TropSeries
from .values import FLOAT_TOL, INF, Trop

ZERO_W = TropSeries.constant(Fraction(0))
#: ZERO_W packed for best_case: degree 0, a zero coefficient, no variables
UNIT = (0, None, 0)


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

    Each distinct state is numbered and stepped once per call: its reducts
    are kept in `succ`, because a fixpoint reaches the same states at many
    depths.  The sweep runs on those numbers and on packed labels.  A path
    degree is one int holding each variable's exponent in a field of
    `width` bits; a state's labels are a dict packed degree -> coefficient
    plus a bit mask of the variables met on the way, the `vars` of the
    series they stand for (an INF weight empties the labels, not the mask).
    A step weight is the unit, one parameter or one constant
    (`weight_series`), so no exponent exceeds depth_cap and no field
    carries.  Products add coefficients in `tmul`'s order and merges keep
    `tmin`'s, so the result, unpacked once at the end, has the
    coefficients, coefficient types and `vars` of the same sweep over
    `TropSeries` labels.
    """
    width = depth_cap.bit_length() + 1
    ids: Dict[T.Term, int] = {}
    states: List[T.Term] = []
    succ: List[Optional[List[tuple]]] = []
    fields: Dict[str, int] = {}

    def number(t: T.Term) -> int:
        i = ids.get(t)
        if i is None:
            i = ids[t] = len(states)
            states.append(t)
            succ.append(None)
        return i

    def pack(w: TropSeries) -> tuple:
        """(degree, coefficient, mask): degree None for the empty weight,
        coefficient None for an exact zero, whose addition is skipped."""
        mask = 0
        for v in w.vars:
            mask |= 1 << fields.setdefault(v, len(fields))
        if not w.coeffs:
            return None, None, mask
        ((d, c),) = w.coeffs.items()
        deg = 0
        for v, n in d.items():
            deg += n << (fields[v] * width)
        return deg, None if c.__class__ is Fraction and not c else c, mask

    goal = number(T.Numeral(_num(target)))
    frontier = {number(T.translate_prob(term)): ({0: Fraction(0)}, 0)}
    best: Dict[int, Trop] = {}
    best_mask = 0
    for _ in range(depth_cap + 1):
        nxt: Dict[int, tuple] = {}
        for i, (labels, mask) in frontier.items():
            if i == goal:
                for d, c in labels.items():
                    prev = best.get(d)
                    if prev is None or c < prev:
                        best[d] = c
                best_mask |= mask
                continue
            steps = succ[i]
            if steps is None:
                steps = succ[i] = [
                    (number(t2), *(UNIT if ws.weight is ZERO_W else pack(ws.weight)))
                    for t2, ws in step(states[i])
                ]
            for j, wd, wc, wm in steps:
                if wd is None:
                    acc = {}
                elif wc is None:
                    acc = {d + wd: c for d, c in labels.items()} if wd else labels
                else:
                    acc = {}
                    for d, c in labels.items():
                        c = c + wc
                        if c.__class__ is float and c == INF:
                            continue
                        acc[d + wd] = c
                prev = nxt.get(j)
                if prev is None:
                    nxt[j] = (acc, mask | wm)
                    continue
                old, old_mask = prev
                if acc is labels:
                    acc = dict(acc)
                for d, c in old.items():
                    p = acc.get(d)
                    if p is None or c < p:
                        acc[d] = c
                nxt[j] = (acc, mask | wm | old_mask)
        if not nxt:
            break
        frontier = nxt

    names = list(fields)  # in field order
    top = (1 << width) - 1
    coeffs: Dict[MultiDegree, Trop] = {}
    for d, c in best.items():
        items = []
        for k, v in enumerate(names):
            n = (d >> (k * width)) & top
            if n:
                items.append((v, n))
        coeffs[MultiDegree._of(tuple(sorted(items)))] = c
    vars = tuple(sorted(v for k, v in enumerate(names) if (best_mask >> k) & 1))
    return TropSeries._of(vars, coeffs)


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
    # one search per distinct leaf, told apart as best_case tells states
    tails: Dict[T.Term, TropSeries] = {}
    for _, leaf, degrees in _choice_leaves(term):
        mono = TropSeries.monomial(degrees, Fraction(0))
        if leaf == T.Numeral(n):
            best = best.tmin(mono)
        else:
            tail = tails.get(leaf)
            if tail is None:
                tail = tails[leaf] = best_case(leaf, n, depth_cap)
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
    i, j > 0 is least at exactly p = i/(i+j), where it is worth c + log R
    with the rational R = (i+j)^(i+j) / (i^i j^j).  A one-sided monomial
    only approaches c as p -> 1 (j = 0) or p -> 0 (i = 0) and is reported
    at EDGE_P or 1 - EDGE_P; a constant one is flat and reported at 1/2;
    both count as R = 1.  The minima are compared exactly (`_cmp_log`):
    floats decide only where they differ by more than their rounding could
    explain, and exact ties go to the first degree in ``items()`` order.
    Returns the exact argmin of the winning monomial and that monomial
    ((nan, None) for the empty series).
    """
    if series.is_empty:
        return float("nan"), None
    if len(series.vars) > 2:
        raise ValueError(f"need at most two variables, got {list(series.vars)}")
    right = [v for v in series.vars if v.endswith("'")] or series.vars[1:]

    def sides(d: MultiDegree) -> Tuple[int, int]:
        j = sum(n for v, n in d.items() if v in right)
        return d.total - j, j

    def optimum(d: MultiDegree) -> Tuple[float, Fraction]:
        i, j = sides(d)
        if i and j:
            return i * math.log((i + j) / i) + j * math.log((i + j) / j), Fraction(i, i + j)
        return 0.0, EDGE_P if i else 1 - EDGE_P if j else Fraction(1, 2)

    def ratio(d: MultiDegree) -> Fraction:
        """R, with the optimum worth c + log R."""
        i, j = sides(d)
        return Fraction((i + j) ** (i + j), i**i * j**j) if i and j else Fraction(1)

    value = {d: float(c) + optimum(d)[0] for d, c in series.coeffs.items()}

    def compare(d1: MultiDegree, d2: MultiDegree) -> int:
        v1, v2 = value[d1], value[d2]
        if abs(v1 - v2) > FLOAT_TOL * (1 + abs(v1) + abs(v2)):
            return -1 if v1 < v2 else 1
        # the sign of c1 + log R1 - (c2 + log R2), exactly
        x = Fraction(series.coeffs[d1]) - Fraction(series.coeffs[d2])
        sign = _cmp_log(x, ratio(d2) / ratio(d1))
        return sign or (d1.items() > d2.items()) - (d1.items() < d2.items())

    active = min(series.coeffs, key=functools.cmp_to_key(compare))
    return optimum(active)[1], active


def _cmp_log(x: Fraction, q: Fraction) -> int:
    """Sign of x - log q, for rationals x and q > 0.

    log q is irrational for q != 1 (e^x is transcendental for rational
    x != 0, Lindemann), so x = log q only when x = 0 and q = 1, and
    otherwise the bounds of `_log_bounds` separate them once tight enough.
    """
    if q == 1:
        return (x > 0) - (x < 0)
    terms = 4
    while True:
        lo, hi = _log_bounds(q, terms)
        if x < lo:
            return -1
        if x > hi:
            return 1
        terms *= 2


def _log_bounds(q: Fraction, terms: int) -> Tuple[Fraction, Fraction]:
    """Rationals lo <= log q <= hi for q > 0: q = 2^m r with r in (1/2, 2),
    and log q = m log 2 + log r with log 2 = 2 atanh(1/3) and
    log r = 2 atanh((r-1)/(r+1)), each series cut after `terms` terms."""
    m = q.numerator.bit_length() - q.denominator.bit_length()
    r = q / 2**m if m >= 0 else q * 2**-m
    lo2, hi2 = _two_atanh_bounds(Fraction(1, 3), terms)
    lo_r, hi_r = _two_atanh_bounds((r - 1) / (r + 1), terms)
    if m < 0:
        lo2, hi2 = hi2, lo2
    return m * lo2 + lo_r, m * hi2 + hi_r


def _two_atanh_bounds(z: Fraction, terms: int) -> Tuple[Fraction, Fraction]:
    """Bounds of 2 atanh z = 2 sum_k z^(2k+1)/(2k+1), for |z| < 1: for
    a = |z| the first n terms fall short by less than
    a^(2n+1) / ((2n+1)(1 - a^2)), the tail's geometric bound."""
    a = abs(z)
    a2, power, total = a * a, a, Fraction(0)
    for k in range(terms):
        total += power / (2 * k + 1)
        power *= a2
    rest = power / ((2 * terms + 1) * (1 - a2))
    lo, hi = 2 * total, 2 * (total + rest)
    return (lo, hi) if z >= 0 else (-hi, -lo)
