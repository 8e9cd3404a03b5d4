"""Law checks for the graded multiset structure, stated on the model's own
code: promotion (`TropMatrix.promoted`) and coKleisli composition
(`kleisli_compose`, a brute-force sum over promotions kept here as the
oracle for application) for the functor and digging, `identity` for the counit,
`sub_bags` for contraction, and the tagging of context bags (`tag_bag`,
`split_component`) for the monoidal unit and multiplication."""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from tropcalc.model import (
    EMPTY_SERIES,
    ZERO_SERIES,
    NatSet,
    SemSet,
    SumSet,
    TropMatrix,
    UnitSet,
    bag_add,
    bags_upto,
    identity,
    split_component,
    sub_bags,
    tag_bag,
)
from tropcalc.series import TropSeries

A = NatSet(1)
a, b = A.points()


@dataclass(frozen=True)
class BagSet(SemSet):
    """!_s X: the bags of at most s points of X, as points."""

    base: SemSet
    s: int

    def points(self):
        return tuple(self.base.bags(self.s))


def kleisli_compose(s, t, k):
    """(s o_! t)_{mu,c}: the min over bags rho of at most k points of t's
    codomain of s_{rho,c} + t^!_{mu,rho}, reduced as the model stores its
    coKleisli sums."""
    rhos = bags_upto(t.cod.points(), k)

    def fn(mu, c):
        best = EMPTY_SERIES
        for rho in rhos:
            head = s.entry(rho, c)
            if not head.is_empty:
                best = best.tmin(head.tmul(t.promoted(mu, rho)))
        return best.reduced()

    return TropMatrix(t.dom, s.cod, fn)


def dig(x, s):
    """The bag-forming matrix !X -> !_s X, 0 exactly at (beta, beta): its
    promotion is digging, delta_{r,s}(alpha, [beta_1..beta_r]) = 0 exactly
    when the beta_i sum to alpha."""
    return TropMatrix(x, BagSet(x, s), lambda mu, beta: ZERO_SERIES if mu == beta else EMPTY_SERIES)


def linear(x, y, table):
    """A linear map X -> Y as a matrix finite only at singleton bags."""
    return TropMatrix.from_entries(x, y, {((p,), q): v for (p, q), v in table.items()})


def splits(alpha, r, s):
    """Contraction !_{r+s} X -> !_r X (x) !_s X: the splits of alpha into a
    part of at most r points and one of at most s."""
    return sorted((x, y) for x, y in sub_bags(alpha) if len(x) <= r and len(y) <= s)


def flatten(bags):
    return tuple(sorted(p for bag in bags for p in bag))


def test_entry_conditions():
    assert ((a,), (b,)) in splits((a, b), 1, 1)
    assert ((b,), (a,)) in splits((a, b), 1, 1)
    assert ((a,), (a,)) not in splits((a, b), 1, 1)
    # the counit is dereliction
    e = identity(A)
    assert e.entry((a,), a) == ZERO_SERIES
    assert e.entry((a,), b).is_empty and e.entry((), a).is_empty
    # weakening: grade 0 holds only the empty bag
    assert A.bags(0) == [()]
    d = dig(A, 2)
    assert d.promoted((a, a, b), ((a,), (a, b))) == ZERO_SERIES
    assert d.promoted((a,), ((), (a,))) == ZERO_SERIES
    assert d.promoted((a,), ((), (b,))).is_empty


def test_bang_functorial():
    # the functor's action on a linear map is its promotion: a min-cost
    # perfect matching between bags
    f = linear(A, A, {(a, b): Fraction(1), (b, a): Fraction(2)})
    assert f.promoted((a, b), (a, b)) == TropSeries.constant(3)  # swap both
    assert f.promoted((a, a), (b, b)) == TropSeries.constant(2)
    assert f.promoted((a,), (a,)).is_empty  # f has no (a, a) entry
    # composition is preserved on grade <= 2: (h o f)^! = h^! o f^!
    h = linear(A, A, {(a, a): Fraction(0), (b, a): Fraction(1)})
    hf = kleisli_compose(h, f, 1)
    for alpha in A.bags(2):
        for gamma in A.bags(2):
            want = EMPTY_SERIES
            for beta in A.bags(2):
                want = want.tmin(f.promoted(alpha, beta).tmul(h.promoted(beta, gamma)))
            assert hf.promoted(alpha, gamma) == want, (alpha, gamma)
    assert hf.promoted((a, b), (a, a)) == TropSeries.constant(4)
    # and identities: id^! = id
    for alpha in A.bags(2):
        for beta in A.bags(2):
            want = ZERO_SERIES if alpha == beta else EMPTY_SERIES
            assert identity(A).promoted(alpha, beta) == want


def test_contraction_coassociative():
    # (c_{r,s} x id_t) . c_{r+s,t}  =  (id_r x c_{s,t}) . c_{r,s+t}
    for r, s, t in [(1, 1, 1), (2, 1, 2), (3, 3, 3)]:
        for alpha in A.bags(r + s + t):
            left = sorted((x, y, z) for xy, z in splits(alpha, r + s, t) for x, y in splits(xy, r, s))
            right = sorted((x, y, z) for x, yz in splits(alpha, r, s + t) for y, z in splits(yz, s, t))
            assert left and left == right, alpha


def test_contraction_counit():
    # discarding the grade-0 half of a contraction is the identity
    for alpha in A.bags(2):
        assert splits(alpha, 2, 0) == [(alpha, ())]
        assert splits(alpha, 0, 2) == [((), alpha)]


def test_comultiplication_counits():
    r = 2
    ident = identity(A)
    # digging into one bag, then the counit: eps . delta_{1,r} = id
    d = dig(A, r)
    counit_after = kleisli_compose(identity(d.cod), d, 1)
    for alpha in A.bags(r):
        for beta in A.bags(r):
            assert counit_after.entry(alpha, beta) == ident.promoted(alpha, beta)
    # digging into bags of at most one point, then the counit inside:
    # !eps . delta_{r,1} = (eps o d)^! = id
    d1 = dig(A, 1)
    eps = linear(d1.cod, A, {((p,), p): Fraction(0) for p in A.points()})
    inside = kleisli_compose(eps, d1, 1)
    for alpha in A.bags(r):
        for beta in A.bags(r):
            assert inside.promoted(alpha, beta) == ident.promoted(alpha, beta)


def test_comultiplication_coassociative():
    r, s, t = 2, 1, 1
    # delta_{r,s,!t} . delta_{rs,t} = !(delta_{s,t}) . delta_{r,st}, each
    # side the promotion of a coKleisli composite; both relate alpha to the
    # bags of bags of bags whose double sum is alpha
    inner = dig(A, t)
    lhs = kleisli_compose(dig(inner.cod, s), inner, s)
    # delta_{s,t} as a linear map !_{st} A -> !_s !_t A
    d_st = TropMatrix(
        BagSet(A, s * t),
        lhs.cod,
        lambda bag, big: inner.promoted(bag[0], big) if len(bag) == 1 else EMPTY_SERIES,
    )
    rhs = kleisli_compose(d_st, dig(A, s * t), 1)
    for alpha in A.bags(r * s * t):
        for big in lhs.cod.bags(r):
            want = ZERO_SERIES if flatten(flatten(c) for c in big) == alpha else EMPTY_SERIES
            assert lhs.promoted(alpha, big) == rhs.promoted(alpha, big) == want, (alpha, big)


def test_weakening_digging():
    # w_A = w_{!_s A} . delta_{0,s}: digging into no bags is weakening
    d = dig(A, 2)
    assert d.promoted((), ()) == ZERO_SERIES
    for alpha in A.bags(2)[1:]:
        assert d.promoted(alpha, ()).is_empty


# the monoidal structure !(X & Y) = !X (x) !Y: a bag over a context is the
# bags over its components, each tagged with its index; the unit is the
# empty context, whose only bag is the empty one
UNIT = SumSet(())


def untag(bag, n):
    """The per-component bags of a bag over an n-component context."""
    return tuple(split_component(bag, i)[1] for i in range(n))


def tag(parts):
    out = ()
    for i, part in enumerate(parts):
        out = bag_add(out, tag_bag(i, part))
    return out


def check_round_trip(ctx, k):
    """untag and tag are inverse bijections between the bags of at most k
    points over ctx and the tuples of component bags of total size <= k."""
    n = len(ctx.components)
    bags = ctx.bags(k)
    tuples = [
        parts
        for parts in itertools.product(*(c.bags(k) for c in ctx.components))
        if sum(map(len, parts)) <= k
    ]
    assert sorted(untag(bag, n) for bag in bags) == sorted(tuples)
    for bag in bags:
        assert tag(untag(bag, n)) == bag
    return bags


def test_lax_monoidal_unit_laws():
    assert check_round_trip(UNIT, 3) == [()]
    # the unit on either side adds nothing to a bag
    for ctx, i in [(SumSet((A, UNIT)), 0), (SumSet((UNIT, A)), 1)]:
        bags = check_round_trip(ctx, 2)
        assert sorted(bags) == sorted(tag_bag(i, alpha) for alpha in A.bags(2))
        for bag in bags:
            assert untag(bag, 2)[1 - i] == ()


def test_lax_monoidal_associativity():
    B, C = UnitSet(), NatSet(0)
    left = SumSet((SumSet((A, B)), C))
    right = SumSet((A, SumSet((B, C))))
    flat = SumSet((A, B, C))
    k = 3
    # re-associating the nested contexts gives the same triples of bags
    lt = sorted((*untag(ab, 2), c) for ab, c in (untag(bag, 2) for bag in check_round_trip(left, k)))
    rt = sorted((x, *untag(bc, 2)) for x, bc in (untag(bag, 2) for bag in check_round_trip(right, k)))
    ft = sorted(untag(bag, 3) for bag in check_round_trip(flat, k))
    assert lt == rt == ft
    assert len(ft) == 35
