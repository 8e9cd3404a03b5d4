"""The min-plus weighted relational model.

Objects are enumerable sets of points; a morphism from X to Y lives in the
coKleisli category of the finite-multiset comonad: a sparse matrix indexed
by (multiset over X, point of Y) whose entries are tropical series in the
symbolic weight parameters.  Absent entries are the constant-INF series.

Composition and application both go through the promotion t^!: its entry
at (rho, abag) is the least cost of splitting rho into one part per point
of abag, each part sent onto its point.  `TropMatrix.promoted` memoizes it,
and `promotion_sum`, the one coKleisli sum, combines it with the function's
candidate heads at each split of the context mu = mu0 + rho (`heads`, which
every Y level sharing the function shares); a head whose one-point abag
the argument does not generate at rho is never asked.  `linear_sum` is
that sum with a one-point abag, which takes all of rho, so it walks the
argument's support at rho; D[M,N], ifz and the star operator use it.

A matrix memoizes its entries, promotions, supports (the finite entries at
a bag, `finite_points`), heads, generated candidates (below) and applied
rows (the finite entries that `matrix_apply` folds at a support).

A term's matrix has its context, a flat `SumSet` with one component per
bound variable, as domain.  A lambda is `curry` of its body's matrix: the
last component, its variable's, becomes the arrow slot.  `uncurry` undoes
it for the semantic Taylor route.  Evaluation and the differential operator
are oracles in the tests: application is ev after the pairing of function
and argument, and D[M,N] is the differential operator on uncurry M followed
by the one-point sum against N.

A matrix also knows its live points (`live`, by default its codomain): the
codomain points that can be finite at some bag, and the only ones a matrix
without a generator rule asks about.  A lambda's arrow points are (abag, b),
and abag holds one point per use of the bound variable, so its live points
are the abags of at most `_copies` points, the static copy bound of the
variable in the body (the counting part of non-idempotent intersection
types), over the body's live points.  An application, and a Y, takes its
arrow cap from the function's live points.

Every matrix `interpret` builds also generates its finite points instead
of probing them.  The relational points are non-idempotent intersection
types, so the finite entries follow from the term's structure, by bounded
type inference run backwards (de Carvalho, MSCS 2018).  `generate(fixed,
free)` returns a superset of the (bag, point) pairs at which an entry can
be finite, where bag is the fixed bag plus a bag over some free context
components, each with a size cap and the points it may hold (all of its
type's, or a sorted tuple of them).  Each rule follows one entry function: a
variable gives its singleton bag, or each allowed point of its type when its
component is free; it is the only rule that puts a free component's point
into a bag, so restricting the points restricts every row to bags over
them.  A numeral gives its point at the empty bag; succ and pred shift;
`weighted_min` takes the union; the zero term gives nothing; an
application takes the head's rows at each split times the argument's
generated promotion (`generate_promoted`, the DP of `promoted`); D[M,N] the
head's rows at rho + [a] times the argument's rows at a; ifz the
condition's rows at numeral 0 times the then branch's rows and at the
other numerals times the else branch's; a lambda frees its slot with the
cap of its live points; and Y takes the rows of the Kleene level where
they stop growing (below).  A combinator over a matrix without a rule
(`identity`, `uncurry`) probes its live points instead.  A generating
matrix's support asks `entry` only at the candidates, in sorted point
order; serialization sorts, so every printed byte is that of the probe.

Scalar, choice and sum are one `weighted_min` matrix each: w . M adds w to
every entry of M, M + N is the entrywise min, M (+p) N is p . M + p' . N.

Y M is the infimum of its Kleene chain, each approximant one application
of M to the one before.  Its matrix builds the approximants on demand and
fills their supports at the parts of the demanded bag from the bottom up,
so a demand never recurses through the chain.  It stops at the first
approximant whose supports there equal those of the approximant below: each
approximant reads only those supports, and every entry of a coKleisli sum is
stored reduced, so the chain has stabilized exactly.  f_max is an upper
limit, which a chain that stabilizes never reaches.  Y's generator rule
climbs the same levels and stops at the first whose generated rows at the
parts of the fixed bag equal those of the level below, or at f_max.  A
level's rule reads only those rows of the level below, and an
application's rule is monotone in its argument's, so the candidates grow
with the level and stop growing there: that level's rows cover every level
the entries can reach.

`matrix_apply` reads a matrix at a point x: the min over bags of the entry
plus the bag's cost.  A generating matrix over a context takes its rows
`generate((), free)` with each component of x's support free at cap
max_bag and restricted to its support points, and memoizes the finite rows
in `bags_upto` order per (support, max_bag), so Lipschitz sampling folds
one fixed list.  A matrix without a rule, or over a bare domain, asks every
bag of `bags_upto(support, max_bag)`.

A matrix is a pure function of (term, context, dialect, caps), so
`_interp` builds each one once per memo: every `interpret` call has its own,
and `taylor_gap` shares one across its whole expansion (hash-consing).

Point representation (plain hashable tuples):
  ground point           "*"
  natural number         int
  arrow point            ("=>", bag, b)     bag a sorted tuple over the domain
  tagged sum / context   ("@", i, p)
Multisets ("bags") are sorted tuples of points.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from .series import TropSeries
from .values import INF, Trop, is_inf, trop_add, trop_mul
from . import terms as T


class ShapeMismatch(ValueError):
    pass


@dataclass(frozen=True)
class Caps:
    k_max: int = 4
    n_max: int = 8
    f_max: int = 16

    def __post_init__(self):
        if min(self.k_max, self.n_max, self.f_max) < 1:
            raise ValueError("all caps must be >= 1")


DEFAULT_CAPS = Caps()

ZERO_SERIES = TropSeries.constant(Fraction(0))
EMPTY_SERIES = TropSeries.empty()


# ------------------------------------------------------------------- bags


def bag_add(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b))


def bags_upto(points: Iterable, k: int) -> List[tuple]:
    """All multisets over `points` of size <= k, as sorted tuples."""
    pts = sorted(set(points))
    out = [()]
    for size in range(1, k + 1):
        out.extend(itertools.combinations_with_replacement(pts, size))
    return out


def sub_bags(bag: tuple) -> List[Tuple[tuple, tuple]]:
    """Each distinct (sub, rest) decomposition of a sorted bag, once, in no
    promised order: a point with n copies gives 0..n of them to sub."""
    out = [((), ())]
    for p, copies in itertools.groupby(bag):
        n = len(list(copies))
        out = [(s + (p,) * i, r + (p,) * (n - i)) for s, r in out for i in range(n + 1)]
    return out


def bag_splits(bag: tuple, k: int) -> List[Tuple[tuple, ...]]:
    """All ways to write bag = part_1 + ... + part_k (ordered parts)."""
    if k == 0:
        return [()] if not bag else []
    seen = set()
    out = []
    for assign in itertools.product(range(k), repeat=len(bag)):
        parts = tuple(
            tuple(bag[i] for i in range(len(bag)) if assign[i] == j)
            for j in range(k)
        )
        if parts not in seen:
            seen.add(parts)
            out.append(parts)
    return out


# --------------------------------------------------------------- semantic sets


class SemSet:
    def points(self) -> tuple:
        raise NotImplementedError

    def bags(self, k: int) -> List[tuple]:
        return bags_upto(self.points(), k)


@dataclass(frozen=True)
class UnitSet(SemSet):
    def points(self):
        return ("*",)

    def __repr__(self):
        return "UnitSet"


@dataclass(frozen=True)
class NatSet(SemSet):
    n_max: int

    def points(self):
        return tuple(range(self.n_max + 1))

    def __repr__(self):
        return f"NatSet({self.n_max})"


@dataclass(frozen=True)
class ArrowSet(SemSet):
    """Points (bag over dom of size <= k, codomain point)."""

    dom: SemSet
    cod: SemSet
    k: int

    @functools.cached_property
    def _points(self) -> tuple:
        return tuple(
            ("=>", bag, b)
            for bag in self.dom.bags(self.k)
            for b in self.cod.points()
        )

    def points(self):
        return self._points

    def __repr__(self):
        return f"ArrowSet({self.dom!r}, {self.cod!r}, k={self.k})"


@dataclass(frozen=True)
class SumSet(SemSet):
    """Tagged disjoint union; interprets contexts and products of objects."""

    components: Tuple[SemSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))

    def points(self):
        return tuple(
            ("@", i, p)
            for i, c in enumerate(self.components)
            for p in c.points()
        )

    def __repr__(self):
        return f"SumSet{self.components!r}"


def tag_bag(i: int, bag: tuple) -> tuple:
    return tuple(("@", i, p) for p in bag)


def split_component(bag: tuple, i: int) -> Tuple[tuple, tuple]:
    """Split a bag over a SumSet into the bag of its other components'
    points, still tagged, and the bag of component i's points, untagged."""
    return tuple(p for p in bag if p[1] != i), tuple(p[2] for p in bag if p[1] == i)


def sem_of_type(ty: T.Type, caps: Caps = DEFAULT_CAPS) -> SemSet:
    if isinstance(ty, T.Ground):
        return UnitSet()
    if isinstance(ty, T.NatType):
        return NatSet(caps.n_max)
    if isinstance(ty, T.Arrow):
        return ArrowSet(sem_of_type(ty.src, caps), sem_of_type(ty.tgt, caps), caps.k_max)
    if isinstance(ty, T.GradedArrow):
        return ArrowSet(sem_of_type(ty.src, caps), sem_of_type(ty.tgt, caps), ty.grade)
    raise TypeError(f"no denotation for {ty!r}")


# -------------------------------------------------------------------- matrices


class TropMatrix:
    """Morphism !dom -> cod with demand-driven, memoized entries."""

    def __init__(
        self,
        dom: SemSet,
        cod: SemSet,
        entry_fn: Callable[[tuple, object], TropSeries],
        live: Optional[SemSet] = None,
        gen: Optional[Callable[[tuple, tuple], Dict[object, set]]] = None,
    ):
        self.dom = dom
        self.cod = cod
        # the codomain points that can be finite at some bag; every other
        # point of cod is INF at every bag
        self.live = cod if live is None else live
        self._fn = entry_fn
        # gen(fixed, free): the candidates that `generate` memoizes, or None
        # for a matrix without a rule, which probes its live points
        self._gen = gen
        self._cache: Dict[tuple, TropSeries] = {}
        self._generated: Dict[tuple, dict] = {}
        self._generated_promoted: Dict[tuple, set] = {}
        self._promoted: Dict[tuple, TropSeries] = {}
        self._support: Dict[tuple, list] = {}
        self._heads: Dict[tuple, dict] = {}
        self._applied: Dict[tuple, list] = {}

    def entry(self, bag: tuple, b) -> TropSeries:
        key = (bag, b)
        got = self._cache.get(key)
        if got is None:
            got = self._fn(bag, b)
            self._cache[key] = got
        return got

    @property
    def generates(self) -> bool:
        return self._gen is not None

    def generate(self, fixed: tuple, free: tuple = ()) -> Dict[object, set]:
        """A superset of the finite entries at the bags fixed + (a bag over
        the free components), as {point: set of such bags}.  ``free`` is a
        sorted tuple of (component, cap, points): at most cap points of that
        component, each in the sorted tuple points (any point of its type
        when points is None), and ``fixed`` holds no point of a free
        component.  Only a matrix that `generates` can answer; callers share
        the result and must not mutate it."""
        key = (fixed, free)
        got = self._generated.get(key)
        if got is None:
            got = self._generated[key] = self._gen(fixed, free)
        return got

    def generate_promoted(self, fixed: tuple, free: tuple, abag: tuple) -> set:
        """A superset of the bags rho = fixed + (a bag over the free
        components) at which the promotion t^!(rho, abag) is finite: the
        DP of `promoted` over the generated rows."""
        if not abag:
            return set() if fixed else {()}
        if len(abag) == 1:
            return self.generate(fixed, free).get(abag[0], set())
        key = (fixed, free, abag)
        got = self._generated_promoted.get(key)
        if got is None:
            got = set()
            a, tail = abag[0], abag[1:]
            for part, rest in sub_bags(fixed):
                firsts = self.generate(part, free).get(a)
                if firsts:
                    _add_sums(got, firsts, self.generate_promoted(rest, free, tail), free)
            self._generated_promoted[key] = got
        return got

    def candidates(self, bag: tuple):
        """The codomain points that can be finite at this bag: the generated
        candidates in sorted order when the matrix generates, and otherwise
        its live points in the order of cod.points()."""
        if self.generates:
            return sorted(b for b, bags in self.generate(bag).items() if bags)
        return self.live.points()

    def finite_points(self, bag: tuple) -> list:
        """The candidates with a non-INF entry at this bag, with their
        entries."""
        got = self._support.get(bag)
        if got is None:
            got = []
            for b in self.candidates(bag):
                s = self.entry(bag, b)
                if not s.is_empty:
                    got.append((b, s))
            self._support[bag] = got
        return got

    def heads(self, bag: tuple, b) -> list:
        """The candidates (=>, abag, b) at this bag of an arrow-valued
        matrix, for one codomain point b, in the order of `candidates`."""
        rows = self._heads.get(bag)
        if rows is None:
            rows = self._heads[bag] = {}
            for pt in self.candidates(bag):
                rows.setdefault(pt[2], []).append(pt)
        return rows.get(b, ())

    def promoted(self, rho: tuple, abag: tuple) -> TropSeries:
        """Promotion t^!: the least cost of splitting rho into one part per
        point of abag, each part sent onto its point (0 when both are
        empty).  A DP over abag's points, memoized next to the entries."""
        if not abag:
            return EMPTY_SERIES if rho else ZERO_SERIES
        if len(abag) == 1:
            return self.entry(rho, abag[0])
        key = (rho, abag)
        got = self._promoted.get(key)
        if got is None:
            got = EMPTY_SERIES
            a, tail = abag[0], abag[1:]
            for part, rest in sub_bags(rho):
                first = self.entry(part, a)
                if first.is_empty:
                    continue
                others = self.promoted(rest, tail)
                if not others.is_empty:
                    got = got.tmin(first.tmul(others))
            self._promoted[key] = got
        return got

    def stored_entries(self):
        return [
            (bag, b, s) for (bag, b), s in self._cache.items() if not s.is_empty
        ]

    @classmethod
    def from_entries(cls, dom: SemSet, cod: SemSet, entries: Mapping) -> "TropMatrix":
        table = {}
        for (bag, b), v in entries.items():
            table[(tuple(sorted(bag)), b)] = (
                v if isinstance(v, TropSeries) else TropSeries.constant(v)
            )

        def gen(fixed, free):
            out: Dict[object, set] = {}
            for (bag, b), s in table.items():
                if not s.is_empty and _within(bag, fixed, free):
                    out.setdefault(b, set()).add(bag)
            return out

        return cls(dom, cod, lambda bag, b: table.get((bag, b), EMPTY_SERIES), gen=gen)

    @classmethod
    def empty(cls, dom: SemSet, cod: SemSet) -> "TropMatrix":
        return cls(dom, cod, lambda bag, b: EMPTY_SERIES, gen=lambda fixed, free: {})


def _fits(bag: tuple, free: tuple) -> bool:
    """Whether the context bag holds at most cap points of each free
    component (i, cap, points), each one of its points."""
    for i, cap, points in free:
        held = [p[2] for p in bag if p[1] == i]
        if len(held) > cap or (points is not None and not all(q in points for q in held)):
            return False
    return True


def _within(bag: tuple, fixed: tuple, free: tuple) -> bool:
    """Whether bag is fixed plus a bag over the free components that fits
    their caps."""
    if not free:
        return bag == fixed
    comps = {i for i, _, _ in free}
    return tuple(p for p in bag if p[1] not in comps) == fixed and _fits(bag, free)


def identity(x: SemSet) -> TropMatrix:
    """Dereliction: the coKleisli identity, 0 exactly at ([b], b)."""

    def fn(bag, b):
        return ZERO_SERIES if bag == (b,) else EMPTY_SERIES

    return TropMatrix(x, x, fn)


@functools.lru_cache(maxsize=1024, typed=True)
def weight_series(w: T.Weight) -> TropSeries:
    """The series of a scalar weight, built once per weight (typed, so a
    float never shares an entry with an equal Fraction).  Callers share
    the result, which is safe because no code mutates a series' `vars` or
    `coeffs`."""
    if isinstance(w, str):
        return TropSeries.parameter(w)
    return TropSeries.constant(w)


def promotion_sum(m: TropMatrix, b, t: TropMatrix, mu: tuple, k: int) -> TropSeries:
    """The coKleisli sum of application: the min over mu = mu0 + rho and
    bags abag of at most k points of m_{mu0, <abag, b>} + t^!(rho, abag).
    It walks m's candidate heads at mu0 (`heads`), and lets the empty abag
    promote only the empty rho.

    The sum is returned reduced (`TropSeries.reduced`): the same function
    without its dominated monomials.  Reduction commutes with min and +, so
    every entry built on reduced entries equals the reduced formal one."""
    best = EMPTY_SERIES
    for mu0, rho in sub_bags(mu):
        for pt in m.heads(mu0, b):
            abag = pt[1]
            if len(abag) > k or (rho and not abag):
                continue
            # a one-point promotion is the argument's entry at rho: a point
            # it does not generate there is INF, so skip the head's entry
            if len(abag) == 1 and t.generates and not t.generate(rho).get(abag[0]):
                continue
            h = m.entry(mu0, pt)
            if h.is_empty:
                continue
            promo = t.promoted(rho, abag)
            if not promo.is_empty:
                best = best.tmin(h.tmul(promo))
    return best.reduced()


def linear_sum(
    head: Callable[[tuple, object], TropSeries], t: TropMatrix, mu: tuple
) -> TropSeries:
    """The promotion sum with a one-point abag: the min over mu = mu0 + rho
    and points a of head(mu0, a) + t_{rho,a}.  Promoting rho onto one point
    sends all of rho there, so it walks t's support at rho; the sum is
    returned reduced, as `promotion_sum`'s is."""
    best = EMPTY_SERIES
    for mu0, rho in sub_bags(mu):
        for a, arg in t.finite_points(rho):
            h = head(mu0, a)
            if not h.is_empty:
                best = best.tmin(h.tmul(arg))
    return best.reduced()


# ------------------------------------------------------------ CCC combinators


def curry(f: TropMatrix, k: int, live: Optional[SemSet] = None) -> TropMatrix:
    """Rebracket !(X_0+...+X_n) -> B into !(X_0+...+X_{n-1}) -> (X_n => B):
    the last component of f's (flat context) domain becomes the arrow slot,
    which holds bags of at most k points.  ``live`` is the result's live
    points (by default its codomain)."""
    if not isinstance(f.dom, SumSet) or not f.dom.components:
        raise ShapeMismatch("curry needs a context domain")
    *xs, a = f.dom.components
    n = len(xs)
    cod = ArrowSet(a, f.cod, k)
    live = cod if live is None else live

    def fn(bag, pt):
        tag, abag, b = pt
        if len(abag) > k:
            return EMPTY_SERIES
        return f.entry(bag_add(bag, tag_bag(n, abag)), b)

    def gen(fixed, free):
        # the slot is one more free component, capped by the live points
        out: Dict[object, set] = {}
        for b, bags in f.generate(fixed, free + ((n, live.k, None),)).items():
            for bag in bags:
                rest, abag = split_component(bag, n)
                out.setdefault(("=>", abag, b), set()).add(rest)
        return out

    return TropMatrix(
        SumSet(xs), cod, fn, None if live == cod else live, gen if f.generates else None
    )


def uncurry(f: TropMatrix) -> TropMatrix:
    """The inverse of `curry`: !X -> (A => B), X a context, into !(X+A) -> B."""
    if not isinstance(f.dom, SumSet) or not isinstance(f.cod, ArrowSet):
        raise ShapeMismatch("uncurry needs a context domain and an arrow codomain")
    n = len(f.dom.components)

    def fn(bag, b):
        xs, abag = split_component(bag, n)
        return f.entry(xs, ("=>", abag, b))

    return TropMatrix(SumSet(f.dom.components + (f.cod.dom,)), f.cod.cod, fn)


# ------------------------------------------------------------- interpretation


def _apply(fm: TropMatrix, fa: TropMatrix, arrow_cap: int) -> TropMatrix:
    """Context-sharing application: fm : !G -> (A => B), fa : !G -> A;
    (fm fa)_{mu0+mu1,b} = inf over abag of fm_{mu0,<abag,b>} + fa^!_{mu1,abag}."""
    if not isinstance(fm.cod, ArrowSet):
        raise ShapeMismatch(f"applying a non-arrow matrix {fm.cod!r}")

    def fn(mu, b):
        return promotion_sum(fm, b, fa, mu, arrow_cap)

    def gen(fixed, free):
        # the head's rows times the argument's promotion at their abag
        out: Dict[object, set] = {}
        for f0, f1 in sub_bags(fixed):
            for (_, abag, b), heads in fm.generate(f0, free).items():
                if len(abag) > arrow_cap:
                    continue
                rhos = fa.generate_promoted(f1, free, abag)
                if rhos:
                    _add_sums(out.setdefault(b, set()), heads, rhos, free)
        return out

    generates = fm.generates and fa.generates
    return TropMatrix(fm.dom, fm.cod.cod, fn, gen=gen if generates else None)


def _dapp(fm: TropMatrix, fa: TropMatrix) -> TropMatrix:
    """D[M,N] for fm : !G -> (A => B), fa : !G -> A;
    D_{mu0+mu1,<rho,b>} = inf over a of fm_{mu0,<rho+[a],b>} + fa_{mu1,a}."""
    if not isinstance(fm.cod, ArrowSet):
        raise ShapeMismatch("differentiating a non-arrow matrix")
    cap = fm.cod.k

    def fn(mu, pt):
        tag, rho, b = pt
        if len(rho) + 1 > cap:
            return EMPTY_SERIES
        return linear_sum(lambda mu0, a: fm.entry(mu0, ("=>", bag_add(rho, (a,)), b)), fa, mu)

    def gen(fixed, free):
        # the head's rows at rho + [a] times the argument's rows at a
        out: Dict[object, set] = {}
        for f0, f1 in sub_bags(fixed):
            heads = fm.generate(f0, free)
            args = fa.generate(f1, free) if heads else {}
            for (_, abag, b), mu0s in heads.items():
                for i, a in enumerate(abag):
                    mu1s = args.get(a)
                    if mu1s and (i == 0 or abag[i - 1] != a):
                        pt = ("=>", abag[:i] + abag[i + 1:], b)
                        _add_sums(out.setdefault(pt, set()), mu0s, mu1s, free)
        return out

    generates = fm.generates and fa.generates
    return TropMatrix(fm.dom, fm.cod, fn, gen=gen if generates else None)


def _ifz(cm: TropMatrix, tm: TropMatrix, em: TropMatrix) -> TropMatrix:
    """ifz for cm : !G -> Nat and branches tm, em : !G -> B;
    ifz_{mu0+mu1,b} = inf over n of (tm if n == 0 else em)_{mu0,b} + cm_{mu1,n}."""

    def fn(mu, b):
        return linear_sum(lambda mu0, n: (tm if n == 0 else em).entry(mu0, b), cm, mu)

    def gen(fixed, free):
        # the condition's rows at each numeral times its branch's rows
        out: Dict[object, set] = {}
        for f0, f1 in sub_bags(fixed):
            for n, conds in cm.generate(f1, free).items():
                for b, heads in (tm if n == 0 else em).generate(f0, free).items():
                    _add_sums(out.setdefault(b, set()), heads, conds, free)
        return out

    generates = cm.generates and tm.generates and em.generates
    return TropMatrix(cm.dom, tm.cod, fn, gen=gen if generates else None)


def _add_sums(out: set, lefts: Iterable, rights: Iterable, free: tuple) -> None:
    """Add to out every sum of a left and a right bag that fits the caps."""
    for left in lefts:
        for right in rights:
            mu = bag_add(left, right)
            if _fits(mu, free):
                out.add(mu)


def weighted_min(parts: List[Tuple[TropMatrix, Optional[T.Weight]]]) -> TropMatrix:
    """The entrywise min of the parts, folded left to right, where a part
    (m, w) contributes m's entry times the weight's series and (m, None)
    m's entry.  An empty entry is multiplied too, so its `vars` still name
    the weight's variables."""
    scaled = [(m, None if w is None else weight_series(w)) for m, w in parts]

    def fn(bag, b):
        out = None
        for m, ws in scaled:
            s = m.entry(bag, b) if ws is None else m.entry(bag, b).tmul(ws)
            out = s if out is None else out.tmin(s)
        return out

    def gen(fixed, free):
        out: Dict[object, set] = {}
        for m, _ in parts:
            for b, bags in m.generate(fixed, free).items():
                out.setdefault(b, set()).update(bags)
        return out

    generates = all(m.generates for m, _ in parts)
    return TropMatrix(parts[0][0].dom, parts[0][0].cod, fn, gen=gen if generates else None)


def _ctx_types(ctx: list, dialect: str) -> list:
    if dialect == "bstlc":
        return [(x, ty) for x, g, ty in ctx]
    return list(ctx)


def interpret(term: T.Term, ctx=None, dialect: str = "stlc", caps: Caps = DEFAULT_CAPS) -> TropMatrix:
    """Denotation of a typed term as a matrix !(sem of context) -> sem of type.

    ``ctx`` is a list of (var, type) pairs ((var, grade, type) for the
    graded dialect).  The term must typecheck first.
    """
    return _interpret(term, ctx or [], dialect, caps, {})


def _interpret(term: T.Term, ctx: list, dialect: str, caps: Caps, memo: dict) -> TropMatrix:
    """`interpret` over a memo of subterm matrices that the caller may share
    between terms (see `_interp`)."""
    T_ctx = _ctx_types(ctx, dialect)
    T.typecheck(ctx if dialect == "bstlc" else dict(T_ctx), term, dialect)
    return _interp(term, T_ctx, dialect, caps, memo)


def _ctx_set(ctx: list, caps: Caps) -> SumSet:
    return SumSet(sem_of_type(ty, caps) for _, ty in ctx)


def _copies(t: T.Term, x: str):
    """An upper bound on the copies of the variable x in the bag of a finite
    entry of t's matrix (math.inf when there is none); a Lam rebinding x
    hides it.  Each rule follows one entry function of `_interp`: an
    application promotes up to k parts of its argument, D[M,N] one, and ifz
    splits its bag between the condition and one branch."""
    if isinstance(t, T.Var):
        return 1 if t.name == x else 0
    if isinstance(t, T.Lam):
        return 0 if t.var == x else _copies(t.body, x)
    if isinstance(t, T.App):
        return _copies(t.fn, x) if _copies(t.arg, x) == 0 else math.inf
    if isinstance(t, T.DApp):
        return _copies(t.fn, x) + _copies(t.arg, x)
    if isinstance(t, T.Ifz):
        return _copies(t.cond, x) + max(_copies(t.then, x), _copies(t.other, x))
    if isinstance(t, T.Fix):
        return 0 if _copies(t.body, x) == 0 else math.inf
    return max((_copies(s, x) for s in T.children(t)), default=0)


def _interp(term: T.Term, ctx: list, dialect: str, caps: Caps, memo: Optional[dict] = None) -> TropMatrix:
    """The matrix of term in ctx, built once per memo: a dict from (term,
    context, dialect, caps) to matrices (a fresh one when None).  The key is
    sound because terms cache their structural hash and `Scalar` equality
    compares the weight's type."""
    if memo is None:
        memo = {}
    key = (term, tuple(ctx), dialect, caps)
    got = memo.get(key)
    if got is None:
        got = memo[key] = _build(term, ctx, dialect, caps, memo)
    return got


def _build(term: T.Term, ctx: list, dialect: str, caps: Caps, memo: dict) -> TropMatrix:
    dom = _ctx_set(ctx, caps)

    if isinstance(term, T.Var):
        # the innermost binding of the name
        i = max(j for j, (x, _) in enumerate(ctx) if x == term.name)
        cod = sem_of_type(ctx[i][1], caps)

        def var_fn(bag, b):
            return ZERO_SERIES if bag == (("@", i, b),) else EMPTY_SERIES

        def var_gen(fixed, free):
            if fixed:
                return {fixed[0][2]: {fixed}} if len(fixed) == 1 and fixed[0][1] == i else {}
            for j, cap, points in free:
                if j == i and cap >= 1:
                    return {b: {(("@", i, b),)} for b in (cod.points() if points is None else points)}
            return {}

        return TropMatrix(dom, cod, var_fn, gen=var_gen)

    if isinstance(term, T.Lam):
        body = _interp(term.body, ctx + [(term.var, term.ann)], dialect, caps, memo)
        if dialect == "bstlc":
            cap = T._infer_graded(dict(ctx), term)[0].grade
        else:
            cap = caps.k_max
        # an entry is finite only at a live body point and at an abag of
        # no more points than the body holds copies of the variable
        live = ArrowSet(body.dom.components[-1], body.live, min(cap, _copies(term.body, term.var)))
        return curry(body, cap, live)

    if isinstance(term, T.App):
        fm = _interp(term.fn, ctx, dialect, caps, memo)
        fa = _interp(term.arg, ctx, dialect, caps, memo)
        return _apply(fm, fa, fm.live.k)

    if isinstance(term, T.DApp):
        return _dapp(_interp(term.fn, ctx, dialect, caps, memo), _interp(term.arg, ctx, dialect, caps, memo))

    if isinstance(term, T.ZeroTerm):
        # the zero term: all-INF at every type; give it a throwaway shape
        return TropMatrix.empty(dom, UnitSet())

    if isinstance(term, T.Sum):
        live = [s for s in term.terms if not isinstance(s, T.ZeroTerm)]
        if not live:
            return TropMatrix.empty(dom, UnitSet())
        return weighted_min([(_interp(s, ctx, dialect, caps, memo), None) for s in live])

    if isinstance(term, T.Scalar):
        return weighted_min([(_interp(term.body, ctx, dialect, caps, memo), term.weight)])

    if isinstance(term, T.Choice):
        sides = [(term.left, term.w_left), (term.right, term.w_right)]
        return weighted_min([(_interp(s, ctx, dialect, caps, memo), w) for s, w in sides])

    if isinstance(term, T.Numeral):
        if term.n > caps.n_max:
            raise ValueError(f"numeral {term.n} exceeds the Nat cap {caps.n_max}")
        cod = NatSet(caps.n_max)

        def num_fn(bag, m):
            return ZERO_SERIES if (bag == () and m == term.n) else EMPTY_SERIES

        def num_gen(fixed, free):
            return {} if fixed else {term.n: {()}}

        return TropMatrix(dom, cod, num_fn, gen=num_gen)

    if isinstance(term, T.Succ):
        sub = _interp(term.arg, ctx, dialect, caps, memo)
        nmax = caps.n_max

        def succ_fn(bag, m):
            if m == 0:
                return EMPTY_SERIES
            return sub.entry(bag, m - 1)

        def succ_gen(fixed, free):
            return {m + 1: bags for m, bags in sub.generate(fixed, free).items() if m < nmax}

        return TropMatrix(dom, sub.cod, succ_fn, gen=succ_gen if sub.generates else None)

    if isinstance(term, T.Pred):
        sub = _interp(term.arg, ctx, dialect, caps, memo)
        nmax = caps.n_max

        def pred_fn(bag, m):
            out = EMPTY_SERIES
            if m + 1 <= nmax:
                out = out.tmin(sub.entry(bag, m + 1))
            if m == 0:
                out = out.tmin(sub.entry(bag, 0))
            return out

        def pred_gen(fixed, free):
            out: Dict[object, set] = {}
            for m, bags in sub.generate(fixed, free).items():
                out.setdefault(max(m - 1, 0), set()).update(bags)
            return out

        return TropMatrix(dom, sub.cod, pred_fn, gen=pred_gen if sub.generates else None)

    if isinstance(term, T.Ifz):
        return _ifz(*(_interp(s, ctx, dialect, caps, memo) for s in (term.cond, term.then, term.other)))

    if isinstance(term, T.Fix):
        fm = _interp(term.body, ctx, dialect, caps, memo)
        if not isinstance(fm.cod, ArrowSet):
            raise ShapeMismatch("Y needs an arrow-typed body")
        cap = fm.live.k
        cod = fm.cod.cod
        levels = [TropMatrix.empty(dom, cod)]
        stop: Dict[tuple, TropMatrix] = {}

        def climb(fixed, rows_at):
            """The first level whose rows_at(level, part) at every part of
            fixed equal the level below's, or level f_max: each level reads
            only those rows of the level below, so once they repeat, every
            higher level's do too."""
            parts = [part for part, _ in sub_bags(fixed)]
            rows = [rows_at(levels[0], part) for part in parts]
            for i in range(1, caps.f_max + 1):
                if i == len(levels):
                    levels.append(_apply(fm, levels[-1], cap))
                below, rows = rows, [rows_at(levels[i], part) for part in parts]
                if rows == below:
                    break
            return levels[i]

        def fix_fn(mu, b):
            # filling the finite rows from the bottom up leaves every demand
            # one level deep
            top = stop.get(mu)
            if top is None:
                top = stop[mu] = climb(mu, TropMatrix.finite_points)
            return top.entry(mu, b)

        def fix_gen(fixed, free):
            return climb(fixed, lambda m, part: m.generate(part, free)).generate(fixed, free)

        return TropMatrix(dom, cod, fix_fn, gen=fix_gen if fm.generates else None)

    raise TypeError(f"no interpretation for {type(term).__name__}")


# ----------------------------------------------------------------- analyses


def check_boolean(m: TropMatrix) -> bool:
    """True iff every materialized entry is the constant-0 series."""
    return all(s == ZERO_SERIES for _, _, s in m.stored_entries())


def matrix_apply(
    m: TropMatrix,
    x: Mapping,
    params: Optional[Mapping[str, Trop]] = None,
    max_bag: Optional[int] = None,
) -> Dict[object, Trop]:
    """t^!(x)_b = inf over bags of (entry + bag . x), with parameters
    substituted numerically.

    ``x`` maps base points of the domain to tropical values; absent points
    count as INF (and are never put in a bag).  Each b folds its finite
    entries at the bags of at most max_bag support points in `bags_upto`
    order, so float and Fraction ties resolve the same way at every call.
    """
    params = dict(params or {})
    if max_bag is None:
        max_bag = DEFAULT_CAPS.k_max + 1
    support = tuple(sorted({p for p, v in x.items() if not is_inf(v)}))
    out: Dict[object, Trop] = dict.fromkeys(m.cod.points(), INF)
    for bag, b, s in _applied_rows(m, support, max_bag):
        if b not in out:
            # a variable row at a support point outside its type's points
            continue
        val = s.eval(params) if s.vars else s.constant_value()
        for p in bag:
            val = trop_mul(val, x[p])
        out[b] = trop_add(out[b], val)
    return out


def _applied_rows(m: TropMatrix, support: tuple, max_bag: int) -> list:
    """The finite entries (bag, b, s) at the bags of at most max_bag points
    of the sorted support, in `bags_upto` order (size, then lexicographic),
    memoized on m.  A generating matrix over a context reads them off its
    rows with each support component free at cap max_bag and restricted to
    its support points; any other matrix asks every bag at every point, so
    its rows are in that order per point."""
    key = (support, max_bag)
    rows = m._applied.get(key)
    if rows is not None:
        return rows
    if m.generates and isinstance(m.dom, SumSet):
        points: Dict[int, list] = {}
        for p in support:
            points.setdefault(p[1], []).append(p[2])
        free = tuple((i, max_bag, tuple(pts)) for i, pts in sorted(points.items()))
        asked = sorted(
            (len(bag), bag, b)
            for b, bags in m.generate((), free).items()
            for bag in bags
            if len(bag) <= max_bag
        )
        rows = [(bag, b, m.entry(bag, b)) for _, bag, b in asked]
    else:
        bags = bags_upto(support, max_bag)
        rows = [(bag, b, m.entry(bag, b)) for b in m.cod.points() for bag in bags]
    rows = m._applied[key] = [row for row in rows if not row[2].is_empty]
    return rows


# ------------------------------------------------------------- serialization


def _point_json(p):
    if isinstance(p, tuple) and p and p[0] == "=>":
        return {"bag": [_point_json(q) for q in p[1]], "pt": _point_json(p[2])}
    if isinstance(p, tuple) and p and p[0] == "@":
        return {"tag": p[1], "pt": _point_json(p[2])}
    return p


def matrix_to_json_dict(m: TropMatrix) -> dict:
    entries = [
        {
            "mset": [_point_json(p) for p in bag],
            "point": _point_json(b),
            "series": s.to_json_dict(),
        }
        for bag, b, s in sorted(m.stored_entries(), key=lambda e: (repr(e[0]), repr(e[1])))
    ]
    return {"domain": repr(m.dom), "codomain": repr(m.cod), "entries": entries}

