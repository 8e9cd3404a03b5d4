"""Tropical polynomials and (truncated) power series.

A series is a finite-support map from multi-degrees to coefficients,
read as  f(x) = min over monomials of  (coeff + sum_v deg_v * x_v).
The empty support is the constant-INF series (min over nothing).

Validation happens once, where a series or a degree is built from outside
data: `TropSeries.__init__` and `MultiDegree.__init__` check every variable,
exponent and coefficient, and so do the constructors built on them
(`constant`, `monomial`, `parameter`, `from_json_dict`, `tropicalize`, the
CLI parsers).  The operations `tmin`, `tmul`, `shift`, `truncate` and
`MultiDegree.__add__` trust their operands, which are valid by then, and
build their results directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .values import INF, Trop, as_trop, fmt_trop, is_inf, trop_add, trop_mul


class MissingAssignment(KeyError):
    pass


class BadEpsilon(ValueError):
    pass


class EmptySeries(ValueError):
    pass


class MultiDegree:
    """Finite-support map variable -> positive exponent.

    Zero exponents are never stored; the empty map is total degree 0.
    Immutable and hashable.
    """

    __slots__ = ("_items",)

    def __init__(self, degrees: Mapping[str, int] | Iterable[Tuple[str, int]] = ()):
        if isinstance(degrees, Mapping):
            it = degrees.items()
        else:
            it = degrees
        acc: Dict[str, int] = {}
        for v, n in it:
            n = int(n)
            if n < 0:
                raise ValueError("negative exponent")
            if n:
                acc[v] = acc.get(v, 0) + n
        self._items: Tuple[Tuple[str, int], ...] = tuple(sorted(acc.items()))

    @classmethod
    def _of(cls, items: Tuple[Tuple[str, int], ...]) -> "MultiDegree":
        """Trusted constructor: `items` sorted by variable, without
        duplicates, every exponent positive."""
        out = object.__new__(cls)
        out._items = items
        return out

    def items(self) -> Tuple[Tuple[str, int], ...]:
        return self._items

    def get(self, var: str) -> int:
        for v, n in self._items:
            if v == var:
                return n
        return 0

    def vars(self) -> Tuple[str, ...]:
        return tuple(v for v, _ in self._items)

    @property
    def total(self) -> int:
        return sum(n for _, n in self._items)

    def __add__(self, other: "MultiDegree") -> "MultiDegree":
        if not other._items:
            return self
        if not self._items:
            return other
        d = dict(self._items)
        for v, n in other._items:
            d[v] = d.get(v, 0) + n
        # sums of positive exponents: nothing for __init__ to check
        return MultiDegree._of(tuple(sorted(d.items())))

    def remove_one(self, var: str) -> "MultiDegree":
        d = dict(self._items)
        if d.get(var, 0) < 1:
            raise ValueError(f"{var} does not occur")
        d[var] -= 1
        return MultiDegree(d)

    def preceq(self, other: "MultiDegree") -> bool:
        """Product order: every exponent <=."""
        o = dict(other._items)
        return all(n <= o.get(v, 0) for v, n in self._items)

    def prec(self, other: "MultiDegree") -> bool:
        return self.preceq(other) and self._items != other._items

    def dot(self, point: Mapping[str, Trop]) -> Trop:
        """Scalar product sum deg * x_v, with 0*INF = 0 (empty product)."""
        out: Trop = Fraction(0)
        for v, n in self._items:
            try:
                x = point[v]
            except KeyError:
                raise MissingAssignment(v)
            if is_inf(x):
                return INF
            out = out + n * x
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiDegree) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        if not self._items:
            return "MultiDegree()"
        return "MultiDegree({%s})" % ", ".join(f"{v!r}: {n}" for v, n in self._items)


class Valuation:
    """Coefficient map from classical semirings into the tropical one."""

    NEG_LOG = "neg_log"
    TRIVIAL = "trivial"

    def __init__(self, kind: str):
        if kind not in (self.NEG_LOG, self.TRIVIAL):
            raise ValueError(f"unknown valuation {kind!r}")
        self.kind = kind

    def __call__(self, a) -> Trop:
        a = Fraction(a)
        if a < 0:
            raise ValueError("valuations defined on nonnegative coefficients")
        if a == 0:
            return INF
        if self.kind == self.TRIVIAL:
            return Fraction(0)
        return -math.log(a)


NEG_LOG = Valuation(Valuation.NEG_LOG)
TRIVIAL = Valuation(Valuation.TRIVIAL)


class TropSeries:
    """Finite min of affine monomials over a named variable set, kept as
    a sorted tuple in `vars`, so no operand order can show in it.

    `__init__` validates: every monomial's variables must be in `vars`,
    coefficients are coerced to tropical values and INF ones dropped.
    `tmin`, `tmul`, `shift` and `truncate` build their results through
    `_of`, which checks nothing.  No code mutates `vars` or `coeffs`, so
    results may share them (and their degrees) with the operands."""

    __slots__ = ("vars", "coeffs")

    def __init__(
        self,
        vars: Sequence[str] = (),
        coeffs: Mapping[MultiDegree, Trop] | Iterable[Tuple[MultiDegree, Trop]] = (),
    ):
        vset = set(vars)
        self.vars: Tuple[str, ...] = tuple(sorted(vset))
        acc: Dict[MultiDegree, Trop] = {}
        it = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for deg, c in it:
            c = as_trop(c) if not isinstance(c, (Fraction, float)) else c
            if is_inf(c):
                continue
            for v in deg.vars():
                if v not in vset:
                    raise ValueError(f"monomial mentions unknown variable {v!r}")
            prev = acc.get(deg)
            if prev is None or c < prev:
                acc[deg] = c
        self.coeffs: Dict[MultiDegree, Trop] = acc

    @classmethod
    def _of(cls, vars: Tuple[str, ...], coeffs: Dict[MultiDegree, Trop]) -> "TropSeries":
        """Trusted constructor: `vars` sorted without duplicates and
        covering every monomial, no INF coefficient."""
        out = object.__new__(cls)
        out.vars = vars
        out.coeffs = coeffs
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def empty(cls, vars: Sequence[str] = ()) -> "TropSeries":
        return cls(vars, {})

    @classmethod
    def constant(cls, c: Trop, vars: Sequence[str] = ()) -> "TropSeries":
        return cls(vars, {MultiDegree(): c})

    @classmethod
    def monomial(cls, degrees: Mapping[str, int], c: Trop, vars: Sequence[str] = ()) -> "TropSeries":
        deg = MultiDegree(degrees)
        vs = tuple(vars) if vars else deg.vars()
        return cls(vs, {deg: c})

    @classmethod
    def parameter(cls, name: str) -> "TropSeries":
        return cls.monomial({name: 1}, Fraction(0))

    # -- basic structure ----------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return max((d.total for d in self.coeffs), default=0)

    def support(self) -> Tuple[MultiDegree, ...]:
        return tuple(sorted(self.coeffs, key=lambda d: (d.total, d.items())))

    def constant_value(self) -> Trop:
        """Value of a variable-free series (INF if empty)."""
        if not self.coeffs:
            return INF
        if len(self.coeffs) == 1:
            (deg, c), = self.coeffs.items()
            if deg.total == 0:
                return c
        raise ValueError("series is not constant")

    # -- semiring operations ------------------------------------------

    def tmin(self, other: "TropSeries") -> "TropSeries":
        acc = dict(self.coeffs)
        for d, c in other.coeffs.items():
            prev = acc.get(d)
            if prev is None or c < prev:
                acc[d] = c
        return TropSeries._of(_union(self.vars, other.vars), acc)

    def tmul(self, other: "TropSeries") -> "TropSeries":
        # coefficients are finite, so trop_mul is +; only a float sum can
        # overflow to INF, and an INF monomial is dropped
        acc: Dict[MultiDegree, Trop] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                c = c1 + c2
                if c.__class__ is float and c == INF:
                    continue
                d = d1 + d2
                prev = acc.get(d)
                if prev is None or c < prev:
                    acc[d] = c
        return TropSeries._of(_union(self.vars, other.vars), acc)

    def shift(self, c: Trop) -> "TropSeries":
        acc: Dict[MultiDegree, Trop] = {}
        if not is_inf(c):
            for d, cc in self.coeffs.items():
                s = cc + c
                if not is_inf(s):
                    acc[d] = s
        return TropSeries._of(self.vars, acc)

    def reduced(self) -> "TropSeries":
        """The same function without dominated monomials: drop c + d.x when
        another monomial c' + d'.x has c' <= c and d' <= d in every variable.
        Every variable ranges over [0, INF], so such a monomial never attains
        the min.  Keeps `vars`, and returns self when nothing is dropped."""
        if len(self.coeffs) < 2:
            return self
        # a dominator has a smaller total degree (equal totals would make the
        # degrees equal), so in order of total degree it comes first; since
        # dominance is transitive, checking the kept monomials suffices
        kept: list = []
        for d, c in sorted(self.coeffs.items(), key=lambda dc: dc[0].total):
            if not any(kc <= c and kd.preceq(d) for kd, kc in kept):
                kept.append((d, c))
        if len(kept) == len(self.coeffs):
            return self
        keep = {d for d, _ in kept}
        return TropSeries._of(self.vars, {d: c for d, c in self.coeffs.items() if d in keep})

    # -- evaluation -----------------------------------------------------

    def eval(self, point: Mapping[str, Trop]) -> Trop:
        for v in self.vars:
            if v not in point:
                raise MissingAssignment(v)
        out: Trop = INF
        for deg, c in self.coeffs.items():
            out = trop_add(out, trop_mul(c, deg.dot(point)))
        return out

    # -- epsilon truncation (finite collapse away from 0) ----------------

    def epsilon_support(self, eps: Trop) -> set:
        eps = as_trop(eps)
        if is_inf(eps) or eps <= 0:
            raise BadEpsilon(f"epsilon must be in (0, inf), got {eps}")
        keep = set()
        for n, cn in self.coeffs.items():
            if all(not m.prec(n) or cm > cn + eps for m, cm in self.coeffs.items()):
                keep.add(n)
        return keep

    def truncate(self, eps: Trop) -> "TropSeries":
        keep = self.epsilon_support(eps)
        return TropSeries._of(self.vars, {d: c for d, c in self.coeffs.items() if d in keep})

    # -- equality / repr -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TropSeries)
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "TropSeries<inf>"
        parts = []
        for deg in self.support():
            c = self.coeffs[deg]
            terms = [f"{n}{v}" if n > 1 else v for v, n in deg.items()]
            if not terms or c != 0:
                terms = [fmt_trop(c)] + terms if (c != 0 or not terms) else terms
            parts.append("+".join(terms))
        return "TropSeries<min{%s}>" % ", ".join(parts)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        mons = []
        for deg in self.support():
            c = self.coeffs[deg]
            if isinstance(c, Fraction):
                cenc = str(c)
            elif is_inf(c):
                cenc = "inf"
            else:
                cenc = float(c)
            mons.append({"deg": {v: n for v, n in deg.items()}, "coeff": cenc})
        return {"vars": list(self.vars), "monomials": mons}

    @classmethod
    def from_json_dict(cls, d: dict) -> "TropSeries":
        items = []
        for m in d["monomials"]:
            c = m["coeff"]
            val = as_trop(c) if isinstance(c, str) else (INF if is_inf(c) else float(c))
            items.append((MultiDegree(m["deg"]), val))
        return cls(tuple(d["vars"]), items)


def _union(a: Tuple[str, ...], b: Tuple[str, ...]) -> Tuple[str, ...]:
    """Sorted union of two sorted variable tuples."""
    if a == b or not b:
        return a
    if not a:
        return b
    return tuple(sorted(set(a).union(b)))


# ----------------------------------------------------------------------
# free functions mirroring the scalar API


def truncate(f: TropSeries, eps: Trop) -> TropSeries:
    return f.truncate(eps)


def tropicalize(
    classical_coeffs: Mapping[MultiDegree, Fraction],
    val: Valuation,
    vars: Sequence[str] = (),
) -> TropSeries:
    """Coefficient-wise valuation of a classical polynomial."""
    items = [(deg, val(a)) for deg, a in classical_coeffs.items()]
    return TropSeries(vars or [v for deg in classical_coeffs for v in deg.vars()], items)


def univariate_roots(f: TropSeries) -> list:
    """Tropical roots of a univariate polynomial via the lower convex hull.

    Consecutive hull vertices (i, c_i), (j, c_j) give a slope break at
    x = (c_i - c_j)/(j - i) with multiplicity j - i.  Roots are returned
    sorted descending.
    """
    if f.is_empty:
        raise EmptySeries("no monomials")
    if len(f.vars) > 1 or any(len(d.vars()) > 1 for d in f.coeffs):
        raise ValueError("univariate_roots requires a univariate series")
    pts = sorted((d.total, c) for d, c in f.coeffs.items())
    if any(is_inf(c) for _, c in pts):
        raise ValueError("coefficients must be finite")

    # lower convex hull, monotone chain on x = degree
    hull: list = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep strictly convex corners; drop points on/above the chord
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    roots = []
    for (i, ci), (j, cj) in zip(hull, hull[1:]):
        roots.append(((ci - cj) / (j - i), j - i))
    roots.sort(key=lambda rc: rc[0], reverse=True)
    return roots


def deriv_eval(f: TropSeries, x: Mapping[str, Trop], y: Mapping[str, Trop]) -> Trop:
    """Tropical derivative at a point pair: one occurrence is fed x, the
    rest of the monomial is fed y."""
    for v in f.vars:
        if v not in x or v not in y:
            raise MissingAssignment(v)
    best: Trop = INF
    for deg, c in f.coeffs.items():
        if deg.total < 1:
            continue
        for a, _ in deg.items():
            rest = deg.remove_one(a)
            val = trop_mul(c, trop_mul(x[a], rest.dot(y)))
            best = trop_add(best, val)
    return best


def plot_rows(
    f: TropSeries,
    var: Optional[str] = None,
    lo: Trop = Fraction(0),
    hi: Trop = Fraction(1),
    steps: int = 100,
) -> list:
    """(x, f(x)) samples of a univariate series, for TSV plot data."""
    if var is None:
        if len(f.vars) != 1:
            raise ValueError("plot_rows needs a univariate series or an explicit var")
        var = f.vars[0]
    lo, hi = as_trop(lo), as_trop(hi)
    rows = []
    for k in range(steps + 1):
        x = lo + (hi - lo) * Fraction(k, steps)
        rows.append((x, f.eval({var: x})))
    return rows

