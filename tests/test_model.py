"""Relational-model matrices, combinators and interpretation."""

import functools
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as hst

from tropcalc.series import MultiDegree, TropSeries
from tropcalc.values import INF, is_inf, trop_add, trop_mul
from tropcalc import model
from tropcalc.terms import (
    Arrow, DApp, Fix, GradedArrow, Lam, NAT, O, Scalar, Sum, Term, children, parse, typecheck,
)
from tropcalc.model import (
    ArrowSet,
    Caps,
    EMPTY_SERIES,
    NatSet,
    SumSet,
    TropMatrix,
    UnitSet,
    ZERO_SERIES,
    _apply,
    _dapp,
    _ifz,
    _interp,
    bag_add,
    bag_splits,
    bags_upto,
    check_boolean,
    curry,
    identity,
    interpret,
    linear_sum,
    matrix_apply,
    matrix_to_json_dict,
    sem_of_type,
    split_component,
    sub_bags,
    tag_bag,
    uncurry,
    weight_series,
    weighted_min,
)
from tests.test_graded import kleisli_compose

TERMS = Path(__file__).resolve().parent.parent / "terms"
STAR = "*"
ID_PT = ("=>", (STAR,), STAR)


# ------------------------------------------------------------------- bags


def test_bag_helpers():
    assert bag_add((1, 3), (2,)) == (1, 2, 3)
    assert ((), (1, 2)) in sub_bags((1, 2))
    assert ((1,), (2,)) in sub_bags((1, 2))
    assert len(bags_upto([STAR], 3)) == 4
    parts = bag_splits((1, 1, 2), 2)
    assert ((1, 1), (2,)) in parts
    assert all(bag_add(*p) == (1, 1, 2) for p in parts)


@given(hst.lists(hst.sampled_from("abc"), max_size=7).map(lambda xs: tuple(sorted(xs))))
def test_sub_bags_matches_index_subsets(bag):
    import itertools

    n = len(bag)
    want = {
        (tuple(bag[i] for i in idx), tuple(bag[i] for i in range(n) if i not in idx))
        for r in range(n + 1)
        for idx in itertools.combinations(range(n), r)
    }
    got = sub_bags(bag)
    assert len(got) == len(set(got)) and set(got) == want
    for sub, rest in got:
        assert list(sub) == sorted(sub) and list(rest) == sorted(rest)
        assert bag_add(sub, rest) == bag


# -------------------------------------------------------------- composition


def brute_compose_entry(s, t, mu, c, ys, kmax):
    import itertools

    best = TropSeries.empty()
    for k in range(kmax + 1):
        for parts in bag_splits(mu, k):
            for bs in itertools.product(ys, repeat=k):
                rho = tuple(sorted(bs))
                acc = s.entry(rho, c)
                for part, b in zip(parts, bs):
                    acc = acc.tmul(t.entry(part, b))
            # note: all orderings enumerated; duplicates collapse under min
                best = best.tmin(acc)
    return best


def pareto(s):
    """s without the monomials that another one dominates (degree <= in
    every variable and coefficient <=): the same function on [0, INF], and
    what the coKleisli sums store."""
    mons = list(s.coeffs.items())

    def dominated(d, c):
        return any(
            d2 != d and c2 <= c and all(n <= d.get(v) for v, n in d2.items())
            for d2, c2 in mons
        )

    return TropSeries(s.vars, [(d, c) for d, c in mons if not dominated(d, c)])


def test_compose_example():
    X, Y, Z = UnitSet(), NatSet(0), NatSet(1)
    a, y, z = STAR, 0, 1
    t = TropMatrix.from_entries(X, Y, {((a,), y): Fraction(1), ((a, a), y): Fraction(0)})
    s = TropMatrix.from_entries(Y, Z, {((y,), z): Fraction(2), ((y, y), z): Fraction(0)})
    st = kleisli_compose(s, t, 4)
    assert st.entry((a, a), z).constant_value() == 2
    assert st.entry((a, a), z) == brute_compose_entry(s, t, (a, a), z, Y.points(), 4)


def sparse_entries(dom, cod, max_bag=3, points=None, max_size=10):
    """Random sparse entry tables over `points` (default: all of cod):
    constant or one-parameter monomial entries."""
    keys = [(bag, b) for bag in dom.bags(max_bag) for b in points or cod.points()]
    coeffs = hst.fractions(min_value=0, max_value=5, max_denominator=4)
    values = hst.one_of(
        coeffs,
        hst.builds(lambda n, c: TropSeries.monomial({"a": n}, c), hst.integers(1, 2), coeffs),
    )
    return hst.dictionaries(hst.sampled_from(keys), values, max_size=max_size)


def sparse_matrices(dom, cod, max_bag=3, **kw):
    """Random sparse matrices (see `sparse_entries`)."""
    return sparse_entries(dom, cod, max_bag, **kw).map(lambda d: TropMatrix.from_entries(dom, cod, d))


def brute_promoted(t, rho, abag):
    best = TropSeries.empty()
    for parts in bag_splits(rho, len(abag)):
        acc = ZERO_SERIES
        for part, a in zip(parts, abag):
            acc = acc.tmul(t.entry(part, a))
        best = best.tmin(acc)
    return best


@settings(max_examples=40, deadline=None)
@given(sparse_matrices(NatSet(1), NatSet(2)))
def test_promoted_matches_split_enumeration(t):
    assert t.promoted((), ()) == ZERO_SERIES
    for rho in t.dom.bags(3):
        for abag in t.cod.bags(3):
            assert t.promoted(rho, abag) == brute_promoted(t, rho, abag), (rho, abag)


@settings(max_examples=40, deadline=None)
@given(sparse_matrices(NatSet(1), NatSet(2)), sparse_matrices(NatSet(1), NatSet(2)))
def test_linear_sum_matches_split_enumeration(t, h):
    for mu in t.dom.bags(3):
        want = TropSeries.empty()
        for mu0, mu1 in bag_splits(mu, 2):
            for a in t.cod.points():
                want = want.tmin(h.entry(mu0, a).tmul(t.entry(mu1, a)))
        assert linear_sum(h.entry, t, mu) == pareto(want), mu


# a two-point context, so that a bag splits into two non-empty parts, and
# an arrow-valued argument
APP_CTX = NatSet(1)
APP_ARG = ArrowSet(UnitSet(), UnitSet(), 1)


def check_apply_oracle(fm, fa):
    """`_apply` at arrow caps below and at the head's against bag_splits and
    a brute promotion, demanding the contexts that hold 1 first; the kernel
    never asks for a promotion that must be empty or exceeds the cap."""
    asked = []
    promoted = fa.promoted
    fa.promoted = lambda rho, abag: asked.append((rho, abag)) or promoted(rho, abag)
    mus = sorted(APP_CTX.bags(3), key=lambda mu: 1 not in mu)
    for k in (1, 2):
        app = _apply(fm, fa, k)
        for mu in mus:
            for b in app.cod.points():
                want = TropSeries.empty()
                for mu0, rho in bag_splits(mu, 2):
                    for abag in fa.cod.bags(k):
                        head = fm.entry(mu0, ("=>", abag, b))
                        want = want.tmin(head.tmul(brute_promoted(fa, rho, abag)))
                assert app.entry(mu, b) == pareto(want), (k, mu, b)
        assert all(abag or not rho for rho, abag in asked), k
        assert all(len(abag) <= k for rho, abag in asked), k
        asked.clear()


@settings(max_examples=40, deadline=None)
@given(
    sparse_matrices(APP_CTX, ArrowSet(APP_ARG, NatSet(1), 2), max_bag=2),
    sparse_matrices(APP_CTX, APP_ARG, max_bag=2),
)
def test_apply_matches_split_enumeration(fm, fa):
    check_apply_oracle(fm, fa)


# the application's result is itself arrow-valued, so each head row spans
# 6 argument bags x 4 result points
APP_RES = ArrowSet(UnitSet(), NatSet(1), 1)
APP_FUN = ArrowSet(APP_ARG, APP_RES, 2)
ARG_PTS = APP_ARG.points()


def app_args(case):
    """Arguments over APP_ARG of several densities: "full" is finite at
    every point from the empty bag on; "partial" and "support" at one point
    only; "reuse" at every point exactly when rho holds the context point
    1, so the function's heads at mu0 are reused by a sparser split."""
    full_at = {"full": (), "reuse": (1,)}.get(case)
    points = ARG_PTS if case == "full" else ARG_PTS[:1]

    def build(entries, coeffs):
        if full_at is not None:
            for a, c in zip(ARG_PTS, coeffs):
                entries.setdefault((full_at, a), c)
        return TropMatrix.from_entries(APP_CTX, APP_ARG, entries)

    coeff = hst.fractions(min_value=0, max_value=5, max_denominator=4)
    return hst.builds(
        build,
        sparse_entries(APP_CTX, APP_ARG, max_bag=2, points=points),
        hst.lists(coeff, min_size=len(ARG_PTS), max_size=len(ARG_PTS)),
    )


@pytest.mark.parametrize("case", ["full", "partial", "reuse", "support"])
@settings(max_examples=40, deadline=None)
@given(fm=sparse_matrices(APP_CTX, APP_FUN, max_bag=2, max_size=40), data=hst.data())
def test_apply_head_driven_matches_split_enumeration(case, fm, data):
    if case == "support":
        # another consumer fills the function's support memo first, which
        # must not change what the application computes
        for mu0 in data.draw(hst.lists(hst.sampled_from(APP_CTX.bags(2)), unique=True)):
            fm.finite_points(mu0)
    check_apply_oracle(fm, data.draw(app_args(case)))


@settings(max_examples=30, deadline=None)
@given(sparse_matrices(NatSet(1), NatSet(2)), sparse_matrices(NatSet(2), NatSet(1)))
def test_compose_matches_brute_force(t, s):
    comp = kleisli_compose(s, t, 3)
    for mu in t.dom.bags(3):
        for c in s.cod.points():
            want = brute_compose_entry(s, t, mu, c, t.cod.points(), 3)
            assert comp.entry(mu, c) == pareto(want)


def test_compose_identity_and_empty():
    X = NatSet(2)
    t = TropMatrix.from_entries(X, X, {((0,), 1): Fraction(3), ((1, 2), 0): Fraction(1)})
    left = kleisli_compose(identity(X), t, 4)
    right = kleisli_compose(t, identity(X), 4)
    for bag in X.bags(2):
        for b in X.points():
            assert left.entry(bag, b) == t.entry(bag, b)
            assert right.entry(bag, b) == t.entry(bag, b)
    e = TropMatrix.empty(X, X)
    comp = kleisli_compose(e, t, 4)
    assert all(comp.entry(bag, b).is_empty for bag in X.bags(2) for b in X.points())


# ------------------------------------------------------------------ ev/curry


def ev(a, b, k):
    """Evaluation, the oracle for `_apply`: 0 exactly at
    ([<abag,y>] + abag tagged as arguments, y)."""
    dom = SumSet((ArrowSet(a, b, k), a))

    def fn(bag, y):
        funs, args = split_component(bag, 1)
        if len(funs) != 1:
            return EMPTY_SERIES
        return ZERO_SERIES if funs[0][2] == ("=>", args, y) else EMPTY_SERIES

    return TropMatrix(dom, b, fn)


def pairing(fm, fa):
    """<fm, fa> : !G -> (fm.cod + fa.cod)."""

    def fn(mu, pt):
        _, i, p = pt
        return (fm, fa)[i].entry(mu, p)

    return TropMatrix(fm.dom, SumSet((fm.cod, fa.cod)), fn)


def test_ev_entries():
    e = ev(UnitSet(), UnitSet(), 3)
    # rho = empty: the function point alone
    assert e.entry((("@", 0, ("=>", (), STAR)),), STAR) == ZERO_SERIES
    # rho = [*]: function point expecting one argument, plus that argument
    bag = (("@", 0, ID_PT), ("@", 1, STAR))
    assert e.entry(bag, STAR) == ZERO_SERIES
    # missing the argument
    assert e.entry((("@", 0, ID_PT),), STAR).is_empty


@settings(max_examples=40, deadline=None)
@given(
    sparse_matrices(APP_CTX, ArrowSet(APP_ARG, NatSet(1), 2), max_bag=2),
    sparse_matrices(APP_CTX, APP_ARG, max_bag=2),
)
def test_apply_matches_ev_after_pairing(fm, fa):
    # application at arrow cap k is ev after <fm, fa>, composed over bags
    # of one function point and at most k arguments
    e = ev(fm.cod.dom, fm.cod.cod, fm.cod.k)
    for k in (1, 2):
        app = _apply(fm, fa, k)
        want = kleisli_compose(e, pairing(fm, fa), k + 1)
        for mu in APP_CTX.bags(3):
            for b in app.cod.points():
                assert app.entry(mu, b) == want.entry(mu, b), (k, mu, b)


def test_curry_uncurry_roundtrip():
    X, A, B = NatSet(1), UnitSet(), NatSet(1)
    two = {
        ((("@", 0, 0), ("@", 1, STAR)), 1): Fraction(2),
        ((("@", 1, STAR),), 0): Fraction(1),
    }
    # the shape of a lambda's body: the slot is the last of three components
    three = {
        ((("@", 0, 0), ("@", 1, STAR), ("@", 2, 1)), 1): Fraction(2),
        ((("@", 2, 0), ("@", 2, 1)), 0): Fraction(1),
        ((("@", 1, STAR), ("@", 1, STAR)), 0): Fraction(3),
    }
    for comps, table in [((X, A), two), ((X, A, NatSet(1)), three)]:
        f = TropMatrix.from_entries(SumSet(comps), B, table)
        c = curry(f, k=3)
        assert c.dom == SumSet(comps[:-1]) and c.cod == ArrowSet(comps[-1], B, 3)
        g = uncurry(c)
        assert g.dom == f.dom and g.cod == f.cod
        for (bag, b), v in table.items():
            assert g.entry(bag, b) == TropSeries.constant(v)
        for bag in f.dom.bags(3):
            for b in B.points():
                assert g.entry(bag, b) == f.entry(bag, b), (bag, b)
        back = curry(g, k=3)
        for bag in c.dom.bags(2):
            for pt in c.cod.points():
                assert back.entry(bag, pt) == c.entry(bag, pt), (bag, pt)
    # the arrow slot holds at most k points, whatever the body's entry
    assert curry(f, k=1).entry((), ("=>", (0, 1), 0)).is_empty
    assert c.entry((), ("=>", (0, 1), 0)) == TropSeries.constant(1)


# ------------------------------------------------------------------- diff_op


def diff_op(t):
    """The differential operator, the oracle for D[M,N]: (Dt)_{rho + [a], b}
    = t_{rho + [a], b} over !(X + X) whose second, linear, component holds
    exactly one point a, INF otherwise."""
    dom = SumSet((t.dom, t.dom))

    def fn(bag, b):
        _, rho = split_component(bag, 0)
        _, mu = split_component(bag, 1)
        if len(mu) != 1:
            return EMPTY_SERIES
        return t.entry(bag_add(rho, mu), b)

    return TropMatrix(dom, t.cod, fn)


def test_diff_op():
    X = UnitSet()
    t = TropMatrix.from_entries(X, NatSet(0), {((STAR, STAR), 0): Fraction(0)})
    d = diff_op(t)
    assert d.entry((("@", 0, STAR), ("@", 1, STAR)), 0) == ZERO_SERIES
    # the linear slot must hold exactly one element
    assert d.entry((("@", 0, STAR), ("@", 0, STAR)), 0).is_empty
    de = diff_op(TropMatrix.empty(X, NatSet(0)))
    assert de.entry((("@", 1, STAR),), 0).is_empty


def check_dapp_oracle(fm, fa, bags):
    """D[fm, fa] against diff_op(uncurry fm) followed by the one-point sum
    against fa, enumerated over bag_splits."""
    got = _dapp(fm, fa)
    d = diff_op(uncurry(fm))
    n = len(fm.dom.components)
    for mu in bags:
        for tag, rho, b in got.cod.points():
            want = EMPTY_SERIES
            if len(rho) < fm.cod.k:
                for mu0, mu1 in bag_splits(mu, 2):
                    for a in fa.cod.points():
                        head = bag_add(tag_bag(0, bag_add(mu0, tag_bag(n, rho))), tag_bag(1, (("@", n, a),)))
                        want = want.tmin(d.entry(head, b).tmul(fa.entry(mu1, a)))
            assert got.entry(mu, (tag, rho, b)) == pareto(want), (mu, rho, b)


DAPP_CTX = SumSet((NatSet(1),))


@settings(max_examples=30, deadline=None)
@given(
    sparse_matrices(DAPP_CTX, ArrowSet(NatSet(1), NatSet(1), 2), max_bag=2, max_size=20),
    sparse_matrices(DAPP_CTX, NatSet(1), max_bag=2),
)
def test_dapp_matches_diff_op(fm, fa):
    check_dapp_oracle(fm, fa, DAPP_CTX.bags(2))


def check_generated_cover(m, bags, free=()):
    """Every finite entry of m at the bags is a generated candidate, asked
    with the points of the free components (i, cap, points) left free."""
    comps = {i for i, _, _ in free}
    for bag in bags:
        if not model._fits(bag, free):
            continue
        cands = m.generate(tuple(p for p in bag if p[1] not in comps) if free else bag, free)
        for b in m.cod.points():
            if not m.entry(bag, b).is_empty:
                assert bag in cands.get(b, ()), (bag, b, free)


# a context of two components, so that a curried slot leaves one behind
GEN_CTX = SumSet((NatSet(1), UnitSet()))


@settings(max_examples=40, deadline=None)
@given(
    sparse_matrices(APP_CTX, ArrowSet(APP_ARG, NatSet(1), 2), max_bag=2),
    sparse_matrices(APP_CTX, APP_ARG, max_bag=2),
    sparse_matrices(DAPP_CTX, ArrowSet(NatSet(1), NatSet(1), 2), max_bag=2, max_size=20),
    sparse_matrices(DAPP_CTX, NatSet(1), max_bag=2),
    sparse_matrices(GEN_CTX, NatSet(2), max_bag=2),
    hst.lists(sparse_matrices(GEN_CTX, NatSet(1), max_bag=2), min_size=2, max_size=2),
)
def test_generated_candidates_cover_apply_and_dapp(fm, fa, dm, da, cm, branches):
    for k in (1, 2):
        check_generated_cover(_apply(fm, fa, k), APP_CTX.bags(3))
    check_generated_cover(_dapp(dm, da), DAPP_CTX.bags(3))
    ifz = _ifz(cm, *branches)
    for free in [(), ((1, 2, None),), ((0, 1, None), (1, 1, None))]:
        check_generated_cover(ifz, GEN_CTX.bags(3), free)


@settings(max_examples=40, deadline=None)
@given(
    sparse_matrices(SumSet((NatSet(1), UnitSet(), UnitSet())), NatSet(1), max_bag=3),
    sparse_matrices(GEN_CTX, ArrowSet(UnitSet(), NatSet(1), 2), max_bag=3),
    sparse_matrices(GEN_CTX, UnitSet(), max_bag=3),
)
def test_generated_candidates_cover_curry(f, fm, fa):
    # a curried slot is a free component, for the body's own rule: the
    # entries of a matrix table, of a curried matrix, of an application
    for k in (1, 2):
        check_generated_cover(curry(curry(f, k), k), DAPP_CTX.bags(3))
        check_generated_cover(curry(_apply(fm, fa, 2), k), DAPP_CTX.bags(3))


def check_restricted_rows(m, fixed, free, allowed):
    """The rows with each free component i restricted to allowed[i] are
    the unrestricted rows at bags that hold no other point of i."""
    restricted = tuple((i, cap, allowed[i]) for i, cap, _ in free)
    want = {}
    for b, bags in m.generate(fixed, free).items():
        keep = {bag for bag in bags if all(p[1] not in allowed or p[2] in allowed[p[1]] for p in bag)}
        if keep:
            want[b] = keep
    got = {b: bags for b, bags in m.generate(fixed, restricted).items() if bags}
    assert got == want, (fixed, restricted)


# (source, context, dialect, caps): open terms whose context components the
# restriction draws points from
RESTRICT_TERMS = [
    ("z x x", [("x", O), ("z", Arrow(O, Arrow(O, O)))], "stlc", Caps(k_max=2)),
    ("f (f x)", [("x", O), ("f", Arrow(O, O))], "stlc", Caps(k_max=2)),
    ("g (z x x)", [("x", O), ("g", Arrow(O, O)), ("z", Arrow(O, Arrow(O, O)))], "stlc", Caps(k_max=2)),
    ("\\y:o. z y x", [("x", O), ("z", Arrow(O, Arrow(O, O)))], "stlc", Caps(k_max=2)),
    ("f (f y)", [("f", Arrow(NAT, NAT)), ("y", NAT)], "stlc", Caps(k_max=2, n_max=2)),
    ("ifz x (succ y) (a . pred x) (+p) y", [("x", NAT), ("y", NAT)], "pcfl", Caps(k_max=2, n_max=2)),
    ("Y (\\u:Nat. n (+p) succ u)", [("n", NAT)], "pcfl", Caps(k_max=2, n_max=2, f_max=4)),
    ("\\n:Nat. ifz n 0 (g (pred n))", [("g", Arrow(NAT, NAT))], "pcfl", Caps(k_max=2, n_max=2)),
]


@pytest.mark.parametrize("src,ctx,dialect,caps", RESTRICT_TERMS, ids=[t[0] for t in RESTRICT_TERMS])
@settings(max_examples=15, deadline=None)
@given(data=hst.data())
def test_restricted_rows_are_unrestricted_rows_over_allowed_points(src, ctx, dialect, caps, data):
    m = interpret(parse(src, dialect), ctx, dialect, caps)
    comps = m.dom.components
    free_comps = data.draw(hst.lists(hst.sampled_from(range(len(comps))), min_size=1, unique=True))
    free = tuple((i, data.draw(hst.integers(1, 3)), None) for i in sorted(free_comps))
    allowed = {
        i: tuple(sorted(data.draw(hst.lists(hst.sampled_from(comps[i].points()), max_size=3, unique=True))))
        for i, _, _ in free
    }
    others = [p for p in m.dom.points() if p[1] not in allowed]
    fixed = tuple(sorted(data.draw(hst.lists(hst.sampled_from(others), max_size=2)))) if others else ()
    check_restricted_rows(m, fixed, free, allowed)


@settings(max_examples=30, deadline=None)
@given(sparse_matrices(GEN_CTX, NatSet(1), max_bag=3, max_size=20), hst.data())
def test_restricted_rows_of_a_table(m, data):
    allowed = {
        i: tuple(sorted(data.draw(hst.lists(hst.sampled_from(c.points()), max_size=2, unique=True))))
        for i, c in enumerate(GEN_CTX.components)
    }
    check_restricted_rows(m, (), ((0, 2, None), (1, 3, None)), allowed)
    # and the generated rows still cover every finite entry over the allowed points
    check_generated_cover(m, [bag for bag in GEN_CTX.bags(3) if all(p[2] in allowed[p[1]] for p in bag)],
                          ((0, 2, allowed[0]), (1, 3, allowed[1])))


def test_dapp_matches_diff_op_on_ddf():
    caps = Caps(k_max=2)
    found = list(_subterms(parse(DDF, "stdlc"), [], DApp))
    assert len(found) == 2
    for dapp, ctx in found:
        fm = _interp(dapp.fn, ctx, "stdlc", caps)
        fa = _interp(dapp.arg, ctx, "stdlc", caps)
        check_dapp_oracle(fm, fa, fm.dom.bags(2))


# ------------------------------------------------------------- interpretation


def test_identity_term():
    m = interpret(parse("\\x:o. x"), [], "stlc")
    assert m.entry((), ID_PT) == ZERO_SERIES
    assert m.entry((), ("=>", (), STAR)).is_empty
    assert check_boolean(m)


ZXX_CTX = [("x", O), ("z", Arrow(O, Arrow(O, O)))]


def zpoint(n, np):
    return ("=>", (STAR,) * n, ("=>", (STAR,) * np, STAR))


def test_zxx_entries():
    m = interpret(parse("z x x"), ZXX_CTX, "stlc")
    for n in range(5):
        for np in range(5 - n):
            bag = tuple(sorted((("@", 0, STAR),) * (n + np) + (("@", 1, zpoint(n, np)),)))
            assert m.entry(bag, STAR) == ZERO_SERIES, (n, np)
    # wrong multiplicity of x
    bad = (("@", 0, STAR), ("@", 1, zpoint(1, 1)))
    assert m.entry(bad, STAR).is_empty
    assert check_boolean(m)


def test_beta_invariance():
    pairs = [
        ("(\\x:o. x) y", "y", [("y", O)]),
        ("(\\f:o->o. f y) g", "g y", [("y", O), ("g", Arrow(O, O))]),
        ("(\\x:o. z x x) y", "z y y", ZXX_CTX[1:] + [("y", O)]),
    ]
    for redex, reduct, ctx in pairs:
        a = interpret(parse(redex), ctx, "stlc")
        b = interpret(parse(reduct), ctx, "stlc")
        dom = a.dom
        for bag in dom.bags(2):
            for pt in a.cod.points():
                assert a.entry(bag, pt) == b.entry(bag, pt), (redex, bag, pt)


def test_discreteness_stlc_bstlc():
    samples = [
        ("\\x:o. x", [], "stlc"),
        ("z x x", ZXX_CTX, "stlc"),
        ("\\f:o->o. \\x:o. f (f x)", [], "stlc"),
    ]
    for src, ctx, dialect in samples:
        m = interpret(parse(src, dialect), ctx, dialect, Caps(k_max=2))
        for bag in m.dom.bags(2):
            for pt in m.cod.points():
                m.entry(bag, pt)
        assert check_boolean(m)


def test_bstlc_graded_interpretation():
    zt = GradedArrow(1, O, GradedArrow(1, O, O))
    m = interpret(parse("\\x:o. z x x", "bstlc"), [("z", 1, zt)], "bstlc")
    # the inferred grade on x is 2, so the arrow slot holds bags of size <= 2
    pt = ("=>", (STAR, STAR), STAR)
    fnpt = ("=>", (STAR,), ("=>", (STAR,), STAR))
    bag = (("@", 0, fnpt),)
    assert m.entry(bag, pt) == ZERO_SERIES
    # a bag exceeding the grade is outside the denotation
    over = ("=>", (STAR, STAR, STAR), STAR)
    assert m.entry(bag, over).is_empty


BSTLC_TWICE = "\\f:!2 o -o o. \\x:o. f (f x)"


def test_bstlc_lambda_codomain_is_inferred_grade():
    # each graded lambda's arrow cap is its variable's inferred grade (3 for
    # f, 4 for x), whatever --kmax says
    term = parse(BSTLC_TWICE, "bstlc")
    for k_max in (1, 5):
        caps = Caps(k_max=k_max)
        m = interpret(term, [], "bstlc", caps)
        assert (m.cod.k, m.cod.cod.k) == (3, 4)
        assert m.cod == sem_of_type(typecheck([], term, "bstlc"), caps)


# --------------------------------------------------------------- pcfl terms


def test_weighted_sum_of_numerals():
    m = interpret(parse("2 . 3 + 1 . 5", "pcfl"), [], "pcfl")
    assert m.entry((), 3).constant_value() == 2
    assert m.entry((), 5).constant_value() == 1
    assert m.entry((), 4).is_empty
    assert not check_boolean(m)


def test_scalar_symbolic():
    m = interpret(parse("a . 3", "pcfl"), [], "pcfl")
    assert m.entry((), 3) == TropSeries.parameter("a")


def weight_oracle(w):
    return TropSeries.parameter(w) if isinstance(w, str) else TropSeries.constant(w)


WEIGHTS = hst.one_of(
    hst.sampled_from(["p", "p'", "a"]),
    hst.fractions(min_value=0, max_value=3, max_denominator=4),
)


@settings(max_examples=40, deadline=None)
@given(
    hst.lists(sparse_matrices(NatSet(1), NatSet(2)), min_size=2, max_size=3),
    WEIGHTS,
    WEIGHTS,
)
def test_weighted_min_matches_pairwise_formula(children, wl, wr):
    """Scalar, choice and sum entries, empty ones included, equal the
    products and mins of the scaled and summed matrices, `vars` too."""
    L, R = children[:2]
    cases = [
        (weighted_min([(L, wl)]), lambda e: e(L).tmul(weight_oracle(wl))),
        (
            weighted_min([(L, wl), (R, wr)]),
            lambda e: e(L).tmul(weight_oracle(wl)).tmin(e(R).tmul(weight_oracle(wr))),
        ),
        (
            weighted_min([(c, None) for c in children]),
            lambda e: functools.reduce(TropSeries.tmin, map(e, children)),
        ),
    ]
    for got, formula in cases:
        for bag in L.dom.bags(3):
            for b in L.cod.points():
                want = formula(lambda m: m.entry(bag, b))
                assert got.entry(bag, b) == want, (bag, b)
                assert got.entry(bag, b).vars == want.vars, (bag, b)


def test_weight_series_built_once_per_weight():
    assert weight_series("a") is weight_series("a")
    assert weight_series("a") == TropSeries.parameter("a")
    assert weight_series(Fraction(1, 2)) is weight_series(Fraction(1, 2))
    # a float weight never shares an entry with the equal Fraction
    half = weight_series(0.5).constant_value()
    assert half == Fraction(1, 2) and isinstance(half, float)
    assert isinstance(weight_series(Fraction(1, 2)).constant_value(), Fraction)


def test_succ_pred_ifz():
    m = interpret(parse("succ 3", "pcfl"), [], "pcfl")
    assert m.entry((), 4) == ZERO_SERIES and m.entry((), 3).is_empty
    p = interpret(parse("pred 0", "pcfl"), [], "pcfl")
    assert p.entry((), 0) == ZERO_SERIES
    i = interpret(parse("ifz 0 1 2", "pcfl"), [], "pcfl")
    assert i.entry((), 1) == ZERO_SERIES and i.entry((), 2).is_empty
    j = interpret(parse("ifz 7 1 2", "pcfl"), [], "pcfl")
    assert j.entry((), 2) == ZERO_SERIES and j.entry((), 1).is_empty


def test_ifz_splits_its_context():
    # the condition and the branch each take their own part of the bag
    m = interpret(parse("\\x:Nat. ifz x (succ x) (a . pred x)", "pcfl"), [], "pcfl")

    def at(bag, b):
        return m.entry((), ("=>", bag, b))

    assert at((0, 0), 1) == ZERO_SERIES
    for bag, b in [((1, 1), 0), ((1, 2), 0), ((1, 2), 1), ((2, 2), 1)]:
        assert at(bag, b) == TropSeries.parameter("a"), (bag, b)
    assert at((0,), 1).is_empty


def test_pcfl_json_independent_of_demand_order():
    # the series and their sorted vars do not depend on which entries
    # were demanded, and memoized, first
    src = "\\x:Nat. (\\y:Nat. ifz (b . y) (c . succ x) (a . pred y)) (d . x)"
    caps = Caps(k_max=2, n_max=3)
    out = []
    for order in (1, -1):
        m = interpret(parse(src, "pcfl"), [], "pcfl", caps)
        for pt in m.cod.points()[::order]:
            m.entry((), pt)
        out.append(matrix_to_json_dict(m))
    assert out[0] == out[1]
    vars_seen = {tuple(e["series"]["vars"]) for e in out[0]["entries"]}
    assert vars_seen and all(list(v) == sorted(v) for v in vars_seen)


def test_fix_collapse():
    # Y (\x. True (+p) x): after one unfolding the True branch wins with
    # weight p; further unfoldings only add dominated monomials
    m = interpret(parse("Y (\\x:Nat. 0 (+p) x)", "pcfl"), [], "pcfl", Caps(f_max=4))
    s = m.entry((), 0)
    assert s.truncate(Fraction(1, 100)) == TropSeries.parameter("p")


def test_fix_needs_iterations():
    m = interpret(parse("Y (\\x:Nat. 0 (+p) x)", "pcfl"), [], "pcfl", Caps(f_max=1))
    assert m.entry((), 0) == TropSeries.parameter("p")


def test_cap_monotonicity():
    src = "Y (\\x:Nat. 0 (+p) x)"
    vals = []
    for fmax in (1, 2, 4):
        m = interpret(parse(src, "pcfl"), [], "pcfl", Caps(f_max=fmax))
        vals.append(m.entry((), 0).eval({"p": Fraction(1), "p'": Fraction(1)}))
    assert vals[0] >= vals[1] >= vals[2]


def _subterms(t, ctx, kind):
    """Every subterm of t of the given class, with its typing context."""
    if isinstance(t, kind):
        yield t, ctx
    if isinstance(t, Lam):
        ctx = ctx + [(t.var, t.ann)]
    for c in children(t):
        yield from _subterms(c, ctx, kind)


# a chain that climbs one numeral per level: up to n_max + 1 levels differ
CLIMB = "Y (\\x:Nat. 0 (+p) succ x)"


@pytest.mark.parametrize("src,caps", [
    ((TERMS / "loop.lam").read_text(), Caps(k_max=2, n_max=2, f_max=3)),
    ((TERMS / "gen.lam").read_text(), Caps(k_max=2, n_max=2, f_max=3)),
    ("(\\n:Nat. Y (\\x:Nat. n (+p) (a . x))) 0", Caps(k_max=2, n_max=2, f_max=3)),
    ("(\\f:Nat->Nat. f 2) (Y (\\g:Nat->Nat. \\n:Nat. ifz n 0 (a . g (pred n))))",
     Caps(k_max=2, n_max=2, f_max=3)),
    # never stabilizes within its cap: the top level's entries are the answer
    (CLIMB, Caps(k_max=2, n_max=4, f_max=4)),
], ids=["loop", "gen", "open", "arrow", "climb"])
def test_fix_matches_lazy_kleene_chain(src, caps):
    # oracle: Y M as f_max nested lazy applications of M, each demand
    # recursing through the whole chain
    found = list(_subterms(parse(src, "pcfl"), [], Fix))
    assert found
    for fix, ctx in found:
        got = _interp(fix, ctx, "pcfl", caps)
        fm = _interp(fix.body, ctx, "pcfl", caps)
        want = TropMatrix.empty(got.dom, got.cod)
        for _ in range(caps.f_max):
            want = _apply(fm, want, fm.cod.k)
        bags = got.dom.bags(2)
        assert len(bags) > 1 or not ctx
        for bag in reversed(bags):
            for b in got.cod.points():
                assert got.entry(bag, b) == want.entry(bag, b), (fix, bag, b)


def count_levels(monkeypatch, src, caps, points):
    """How many Kleene levels interpreting a closed Y builds while its
    entries at `points` are demanded."""
    built = []
    apply = model._apply
    monkeypatch.setattr(model, "_apply", lambda *a: built.append(1) or apply(*a))
    m = interpret(parse(src, "pcfl"), [], "pcfl", caps)
    got = {b: m.entry((), b) for b in points}
    return len(built), got


def test_fix_stops_where_chain_stabilizes(monkeypatch):
    # loop.lam: level 2 is min{p, p+p'} = min{p}, equal to level 1, so no
    # cap above 1 builds more than 2 levels
    for f_max in (2, 1000, 100000):
        n, got = count_levels(monkeypatch, (TERMS / "loop.lam").read_text(), Caps(f_max=f_max), [0])
        assert n == 2 and got[0] == TropSeries.parameter("p"), f_max
    # the climbing chain differs on levels 1..n_max+1 and stops at the next
    climb = [TropSeries.monomial({"p": 1, "p'": i}, 0) for i in range(5)]
    n, got = count_levels(monkeypatch, CLIMB, Caps(n_max=4, f_max=4), range(5))
    assert n == 4 and list(got.values()) == climb[:4] + [TropSeries.empty()]
    n, got = count_levels(monkeypatch, CLIMB, Caps(n_max=4, f_max=1000), range(5))
    assert n == 6 and list(got.values()) == climb


# --------------------------------------------- live points and copy bounds

COPIES = [
    ("x", "pcfl", 1),                          # Var naming x
    ("y", "pcfl", 0),                          # another Var
    ("\\x:Nat. x", "pcfl", 0),                 # a Lam rebinding x
    ("\\y:Nat. ifz x y y", "pcfl", 1),          # a Lam binding another name
    ("f x", "stlc", math.inf),                 # App, x in the argument
    ("x y", "stlc", 1),                        # App, x in the function only
    ("D[D[f,x],x]", "stdlc", 2),               # DApp: both sides add
    ("ifz x (succ x) (pred x)", "pcfl", 2),    # Ifz: condition + larger branch
    ("ifz 0 x (ifz x x 1)", "pcfl", 2),
    ("ifz x 0 1", "pcfl", 1),
    ("Y (\\y:Nat. y)", "pcfl", 0),             # Fix without x
    ("Y (\\y:Nat. x)", "pcfl", math.inf),      # Fix with x
    ("a . x", "pcfl", 1),                      # scalar: its child
    ("x + D[x,x]", "stdlc", 2),                # sum: the larger child
    ("1 (+p) succ x", "pcfl", 1),              # choice, succ: max
    ("pred x", "pcfl", 1),                     # pred: its child
    ("3", "pcfl", 0),                          # numeral
    ("0", "stdlc", 0),                         # the zero term
]


@pytest.mark.parametrize("src,dialect,want", COPIES)
def test_copies_rules(src, dialect, want):
    assert model._copies(parse(src, dialect), "x") == want


FLIP = "\\f:o->o->o. \\x:o. \\y:o. f y x"
DDF = "\\f:o->o->o. \\x:o. D[D[f,x],x] 0"
SMALL_CAPS = Caps(k_max=2, n_max=3)
STEP = "\\g:Nat->Nat. \\n:Nat. ifz n 0 (g (pred n))"
# (source, dialect, caps, whether the term's live points are fewer than its
# codomain's)
LIVE_TERMS = [
    pytest.param(FLIP, "stlc", Caps(k_max=2), True, id="flip"),
    pytest.param(DDF, "stdlc", Caps(k_max=2), True, id="ddf"),
    pytest.param("\\f:o->o. \\g:o->o. \\x:o. f (g x)", "stlc", Caps(k_max=2), True, id="compose"),
    pytest.param("\\f:o->o->o. \\x:o. f x x", "stlc", Caps(k_max=2), True, id="dup"),
    pytest.param("\\x:o. \\y:o. x", "stlc", Caps(k_max=2), True, id="k"),
    pytest.param("\\f:(o->o)->o. f (\\x:o. x)", "stlc", Caps(k_max=2), True, id="apply-id"),
    pytest.param("\\f:o->o. \\x:o. f (f x)", "stlc", Caps(k_max=2), False, id="church2"),
    pytest.param("\\x:Nat. ifz (b . x) (c . succ x) (a . pred x)", "pcfl", Caps(k_max=3, n_max=3), True, id="ifz"),
    pytest.param("\\x:Nat. \\y:Nat. ifz x y (succ y)", "pcfl", SMALL_CAPS, True, id="ifz-xy"),
    pytest.param("\\x:Nat. 2 (+p) succ x", "pcfl", SMALL_CAPS, True, id="succ-body"),
    pytest.param("\\x:Nat. 1 (+p) (a . pred x)", "pcfl", SMALL_CAPS, True, id="pred-body"),
    pytest.param("\\n:Nat. Y (\\x:Nat. n (+p) x)", "pcfl", SMALL_CAPS, False, id="open-y"),
    pytest.param("\\x:Nat. \\x:Nat. x", "pcfl", SMALL_CAPS, True, id="shadowed"),
    pytest.param("\\f:!1 o -o o. \\g:!2 o -o o. \\x:o. f (g x)", "bstlc", Caps(), False,
                 id="bstlc-compose"),
    pytest.param((TERMS / "twice.lam").read_text(), "stlc", Caps(k_max=4), False, id="twice"),
    pytest.param(FLIP, "stlc", Caps(k_max=3), True, id="flip-k3"),
    pytest.param(DDF, "stdlc", Caps(k_max=3), True, id="ddf-k3"),
    pytest.param("\\f:!2 o -o o. \\x:o. f (f x)", "bstlc", Caps(), False, id="bstlc-church2"),
    pytest.param("\\x:Nat. ifz x 0 1", "pcfl", SMALL_CAPS, True, id="ifz-01"),
    pytest.param(STEP, "pcfl", SMALL_CAPS, True, id="step"),
    pytest.param("\\x:Nat. Y (\\y:Nat. x)", "pcfl", SMALL_CAPS, False, id="y-free"),
    pytest.param("(\\n:Nat. Y (\\x:Nat. n (+p) (a . x)))", "pcfl", SMALL_CAPS, False, id="open-y-a"),
    pytest.param("Y (\\x:Nat. 1 (+p) succ x)", "pcfl", SMALL_CAPS, False, id="counter"),
]


def probed_supports(monkeypatch, term, ctx, dialect, caps, bags):
    """The oracle for `finite_points` at each of the bags: an
    interpretation whose binders have no copy bound and whose matrices
    generate nothing, so every matrix asks every point of its codomain; its
    finite points come in sorted order, as a generating support lists
    them."""
    with monkeypatch.context() as mp:
        mp.setattr(model, "_copies", lambda t, x: math.inf)
        mp.setattr(TropMatrix, "generates", property(lambda self: False))
        brute = interpret(term, ctx, dialect, caps)
        assert brute.live == brute.cod
        wants = [[(b, brute.entry(bag, b)) for b in brute.cod.points()] for bag in bags]
    return brute, [sorted((e for e in want if not e[1].is_empty), key=lambda e: e[0]) for want in wants]


def check_support(got, want):
    assert [b for b, _ in got] == [b for b, _ in want]
    for (b, s), (_, w) in zip(got, want):
        assert s == w and s.vars == w.vars, b


@pytest.mark.parametrize("src,dialect,caps,bounded", LIVE_TERMS)
def test_finite_points_match_scan_of_every_point(monkeypatch, src, dialect, caps, bounded):
    term = parse(src, dialect)
    m = interpret(term, [], dialect, caps)
    brute, (want,) = probed_supports(monkeypatch, term, [], dialect, caps, [()])
    assert m.cod == brute.cod and (m.live != m.cod) == bounded
    assert want
    check_support(m.finite_points(()), want)


NAT_TO_NAT = Arrow(NAT, NAT)
# (source, context, dialect, caps, largest context bag): the pcfl terms are
# the bodies of the closed lambdas above, open in their bound variables
OPEN_TERMS = [
    pytest.param("z x x", ZXX_CTX, "stlc", Caps(k_max=2), 3, id="z x x"),
    pytest.param("\\y:o. z y x", ZXX_CTX, "stlc", Caps(k_max=2), 3, id="\\y:o. z y x"),
    pytest.param("ifz x 0 1", [("x", NAT)], "pcfl", SMALL_CAPS, 3, id="ifz-01"),
    pytest.param("\\n:Nat. ifz n 0 (g (pred n))", [("g", NAT_TO_NAT)], "pcfl", SMALL_CAPS, 2,
                 id="step"),
    pytest.param("Y (\\y:Nat. x)", [("x", NAT)], "pcfl", SMALL_CAPS, 3, id="y-free"),
    pytest.param("Y (\\x:Nat. n (+p) (a . x))", [("n", NAT)], "pcfl", SMALL_CAPS, 3, id="open-y-a"),
    pytest.param("Y (\\x:Nat. n (+p) succ x)", [("n", NAT)], "pcfl", SMALL_CAPS, 3, id="counter"),
]


@pytest.mark.parametrize("src,ctx,dialect,caps,max_bag", OPEN_TERMS)
def test_open_finite_points_match_scan_at_context_bags(monkeypatch, src, ctx, dialect, caps, max_bag):
    term = parse(src, dialect)
    m = interpret(term, ctx, dialect, caps)
    assert m.generates
    bags = m.dom.bags(max_bag)
    _, wants = probed_supports(monkeypatch, term, ctx, dialect, caps, bags)
    for bag, want in zip(bags, wants):
        check_support(m.finite_points(bag), want)
    assert any(wants)


@pytest.mark.parametrize("src,generates", [
    ("\\x:Nat. succ (pred x)", True),
    ("\\x:Nat. 1 (+p) (a . x)", True),
    ("(\\f:Nat->Nat. f 1) (\\n:Nat. succ n)", True),
])
def test_generators_only_over_generating_children(src, generates):
    m = interpret(parse(src, "pcfl"), [], "pcfl", SMALL_CAPS)
    assert m.generates == generates


@pytest.mark.parametrize("src", [
    pytest.param("\\x:Nat. ifz x 0 1", id="ifz"),
    pytest.param("\\x:Nat. Y (\\y:Nat. x)", id="y-free"),
    pytest.param(STEP, id="step"),
    pytest.param(f"(\\f:Nat->Nat. f 1) (Y ({STEP}))", id="f1"),
    pytest.param("\\x:Nat. succ (ifz x 0 1) (+p) x", id="over-ifz"),
])
def test_every_interpreted_matrix_generates(src):
    # ifz and Y have rules, so every subterm's matrix generates
    for sub, ctx in _subterms(parse(src, "pcfl"), [], Term):
        assert _interp(sub, ctx, "pcfl", SMALL_CAPS).generates, sub


def test_live_points_are_a_prefix_of_the_codomain():
    m = interpret(parse(FLIP), [], "stlc", Caps(k_max=3))
    # f is used once, so its arrow slot holds bags of at most one point
    assert m.live.k == 1 and m.cod.k == 3 and repr(m.cod).endswith("k=3)")
    live = m.live.points()
    assert m.cod.points()[: len(live)] == live


# ------------------------------------------------------------- matrix_apply


def probe_apply(m, x, params=None, max_bag=None):
    """The brute-force oracle for `matrix_apply`: at every codomain point,
    the min over every bag of at most max_bag support points, in
    `bags_upto` order, of the entry plus the bag's cost."""
    params = dict(params or {})
    if max_bag is None:
        max_bag = Caps().k_max + 1
    support = [p for p, v in x.items() if not is_inf(v)]
    out = {}
    for b in m.cod.points():
        best = INF
        for bag in bags_upto(support, max_bag):
            s = m.entry(bag, b)
            if s.is_empty:
                continue
            val = s.eval(params) if s.vars else s.constant_value()
            for p in bag:
                val = trop_mul(val, x[p])
            best = trop_add(best, val)
        out[b] = best
    return out


def check_apply(build, x, params=None, max_bag=None):
    """matrix_apply on one matrix equals probe_apply on a fresh one, value
    for value and type for type, and again once its rows are memoized."""
    m = build()
    want = probe_apply(build(), x, params, max_bag)
    for _ in range(2):
        got = matrix_apply(m, x, params, max_bag)
        assert list(got) == list(want)
        assert [(v, type(v)) for v in got.values()] == [(v, type(v)) for v in want.values()], (x, max_bag)


def resource(head, *bags):
    """A resource term: the variable head applied to each bag in turn, a
    bag's elements variable names or resource terms."""
    from tropcalc.taylor import RBagApp, RVar

    t = RVar(head)
    for bag in bags:
        t = RBagApp(t, tuple(RVar(v) if isinstance(v, str) else v for v in bag))
    return t


def _apply_cases():
    from tropcalc.taylor import interpret_resource

    zxx = [("x", O), ("z", Arrow(O, Arrow(O, O)))]
    ffx = [("x", O), ("f", Arrow(O, O))]
    gzxx = [("x", O), ("g", Arrow(O, O)), ("z", Arrow(O, Arrow(O, O)))]
    caps = Caps(k_max=2)
    return {
        "z x x": lambda: interpret(parse("z x x"), zxx, "stlc", caps),
        "f (f x)": lambda: interpret(parse("f (f x)"), ffx, "stlc", caps),
        "g (z x x)": lambda: interpret(parse("g (z x x)"), gzxx, "stlc", caps),
        "z<x,x><x>": lambda: interpret_resource(resource("z", "xx", "x"), zxx, caps),
        "f<f<x>>": lambda: interpret_resource(resource("f", [resource("f", "x")]), ffx, caps),
        "g<z<x><>,z<><x>>": lambda: interpret_resource(
            resource("g", [resource("z", "x", ""), resource("z", "", "x")]), gzxx, caps),
    }


APPLY_CASES = _apply_cases()
FINITE_VALUES = hst.one_of(
    hst.fractions(min_value=0, max_value=5, max_denominator=4),
    hst.floats(min_value=0, max_value=5, allow_nan=False, allow_infinity=False),
)
# equal floats and Fractions make ties, which the fold must meet in
# `bags_upto` order
TROP_VALUES = hst.one_of(FINITE_VALUES, hst.sampled_from([Fraction(0), 0.0, Fraction(1), 1.0]), hst.just(INF))


@pytest.mark.parametrize("case", list(APPLY_CASES))
@settings(max_examples=25, deadline=None)
@given(data=hst.data())
def test_matrix_apply_matches_probe(case, data):
    build = APPLY_CASES[case]
    points = build().dom.points()
    support = data.draw(hst.lists(hst.sampled_from(points), min_size=1, max_size=3, unique=True))
    x = {p: data.draw(TROP_VALUES) for p in support}
    check_apply(build, x, max_bag=data.draw(hst.integers(1, 5)))


PCFL_APPLY = "ifz (b . x) (c . succ y) (a . pred x) (+p) y"


@settings(max_examples=25, deadline=None)
@given(
    hst.lists(hst.sampled_from([("@", i, n) for i in range(2) for n in range(3)]), min_size=1, max_size=3,
              unique=True),
    hst.data(),
)
def test_matrix_apply_matches_probe_with_params(support, data):
    ctx = [("x", NAT), ("y", NAT)]
    caps = Caps(k_max=2, n_max=2)
    x = {p: data.draw(TROP_VALUES) for p in support}
    params = {v: data.draw(FINITE_VALUES) for v in ("a", "b", "c", "p", "p'")}
    check_apply(lambda: interpret(parse(PCFL_APPLY, "pcfl"), ctx, "pcfl", caps), x, params,
                data.draw(hst.integers(1, 5)))


@settings(max_examples=25, deadline=None)
@given(sparse_matrices(GEN_CTX, NatSet(1), max_bag=3, max_size=20), hst.data())
def test_matrix_apply_matches_probe_on_a_table(m, data):
    support = data.draw(hst.lists(hst.sampled_from(GEN_CTX.points()), min_size=1, max_size=3, unique=True))
    x = {p: data.draw(TROP_VALUES) for p in support}
    check_apply(lambda: m, x, {"a": Fraction(1, 2)}, data.draw(hst.integers(1, 4)))


@pytest.mark.parametrize("x", [
    {("@", 1, 1): Fraction(1), ("@", 0, ("=>", (1,), 2)): Fraction(1, 2), ("@", 0, ("=>", (2,), 3)): 2.0},
    {("@", 1, 0): Fraction(1), ("@", 0, ("=>", (0,), 0)): Fraction(1), ("@", 0, ("=>", (0, 0), 1)): INF},
    {("@", 0, ("=>", (), 4)): Fraction(0), ("@", 0, ("=>", (4,), 8)): Fraction(3), ("@", 1, 7): 0.5},
], ids=["chain", "loop", "constant"])
def test_matrix_apply_f_f_y_restricts_free_points(x):
    # every point of Nat->Nat free at the default caps makes this term's
    # rows blow up; restricted to the support, they are a handful
    ctx = [("f", Arrow(NAT, NAT)), ("y", NAT)]
    check_apply(lambda: interpret(parse("f (f y)"), ctx, "stlc", Caps()), x, max_bag=3)


@pytest.mark.parametrize("first", [1.0, Fraction(1)])
def test_matrix_apply_ties_keep_the_first_bag(first):
    # x and y at numeral 0 give the same value; the earlier bag's type wins
    other = Fraction(1) if isinstance(first, float) else 1.0
    m = interpret(parse("x + y", "pcfl"), [("x", NAT), ("y", NAT)], "pcfl", Caps(n_max=2))
    out = matrix_apply(m, {("@", 1, 0): other, ("@", 0, 0): first}, max_bag=2)
    assert out[0] == 1 and type(out[0]) is type(first)


def test_matrix_apply_identity():
    X = NatSet(2)
    m = identity(X)
    out = matrix_apply(m, {0: Fraction(3), 1: Fraction(7)})
    assert out[0] == 3 and out[1] == 7 and out[2] == INF


def test_matrix_apply_zxx():
    m = interpret(parse("z x x"), ZXX_CTX, "stlc")
    x = {("@", 0, STAR): Fraction(1), ("@", 1, zpoint(1, 1)): Fraction(0)}
    out = matrix_apply(m, x)
    assert out[STAR] == 2


def test_matrix_apply_fix_neglog():
    import math

    m = interpret(parse("Y (\\x:Nat. 0 (+p) x)", "pcfl"), [], "pcfl", Caps(f_max=4))
    m.entry((), 0)
    out = matrix_apply(m, {}, params={"p": -math.log(0.5), "p'": -math.log(0.5)})
    assert abs(out[0] - (-math.log(0.5))) < 1e-9


# ------------------------------------------------- shared interpretation


class NoMemo(dict):
    """A memo that stores nothing, so every node builds a fresh matrix."""

    def __setitem__(self, key, value):
        pass


def weighted_pcfl(w1, w2, w3):
    """A pcfl term over x, y : Nat whose scalars may carry a float and an
    equal Fraction weight on equal bodies, which a memo must keep apart."""
    x = parse("x", "pcfl")
    return Sum((
        Scalar(w1, x),
        Scalar(w2, x),
        Scalar(w3, parse("ifz x (succ y) (a . pred x)", "pcfl")),
        parse("Y (\\u:Nat. y (+p) succ u)", "pcfl"),
    ))


# (term or builder from three weights, context, dialect, caps)
SHARED_TERMS = [
    ("z (f x) (f x)", [("x", O), ("f", Arrow(O, O)), ("z", Arrow(O, Arrow(O, O)))], "stlc", Caps(k_max=2)),
    ("g (z x x)", [("x", O), ("g", Arrow(O, O)), ("z", Arrow(O, Arrow(O, O)))], "stlc", Caps(k_max=2)),
    ((TERMS / "twice.lam").read_text(), [], "stlc", Caps(k_max=2)),
    ("\\f:!2 o -o o. \\x:o. f (f x)", [], "bstlc", Caps()),
    ("f (f x)", [("x", 1, O), ("f", 2, GradedArrow(1, O, O))], "bstlc", Caps()),
    (weighted_pcfl, [("x", NAT), ("y", NAT)], "pcfl", Caps(k_max=2, n_max=2, f_max=4)),
]
WEIGHTS = hst.sampled_from([Fraction(1, 2), 0.5, Fraction(1), 1.0, "a"])


@pytest.mark.parametrize("src,ctx,dialect,caps", SHARED_TERMS, ids=["zfxfx", "gzxx", "twice", "bstlc-church2",
                                                                    "bstlc-open", "weighted"])
@settings(max_examples=10, deadline=None)
@given(weights=hst.tuples(WEIGHTS, WEIGHTS, WEIGHTS))
def test_shared_interpretation_matches_fresh_one(src, ctx, dialect, caps, weights):
    term = src(*weights) if callable(src) else parse(src, dialect)
    shared = interpret(term, ctx, dialect, caps)
    fresh = model._interpret(term, ctx, dialect, caps, NoMemo())
    assert shared.dom == fresh.dom and shared.cod == fresh.cod
    for bag in shared.dom.bags(2):
        for b in shared.cod.points()[:200]:
            s, w = shared.entry(bag, b), fresh.entry(bag, b)
            assert s == w and s.vars == w.vars and s.to_json_dict() == w.to_json_dict(), (bag, b)


def test_interpretation_memo_shares_equal_subterms():
    # the two copies of f x, and of f, are one matrix each
    ctx = [("x", O), ("f", Arrow(O, O)), ("z", Arrow(O, Arrow(O, O)))]
    memo = {}
    model._interpret(parse("z (f x) (f x)"), ctx, "stlc", Caps(k_max=2), memo)
    assert len(memo) == 6  # x, f, z, f x, z (f x), z (f x) (f x)
    # a float weight and the equal Fraction stay two matrices
    memo = {}
    model._interpret(weighted_pcfl(0.5, Fraction(1, 2), 0.5), [("x", NAT), ("y", NAT)], "pcfl",
                     Caps(k_max=2, n_max=2), memo)
    assert sum(isinstance(key[0], Scalar) for key in memo) == 4


# ------------------------------------------------------ substitution lemma


def test_substitution_lemma_samples():
    from tropcalc.terms import subst, Var

    cases = [
        ("z x x", "x", "y", [("y", O), ("z", Arrow(O, Arrow(O, O)))]),
        ("f (f x)", "f", "g", [("x", O), ("g", Arrow(O, O))]),
    ]
    for src, var, rep, ctx in cases:
        t = parse(src)
        lhs = interpret(subst(t, var, Var(rep)), ctx, "stlc")
        # independently: interpret the redex (\var. t) rep
        vty = dict(ctx)[rep]
        redex = f"(\\{var}:{vty}. {src}) {rep}"
        rhs = interpret(parse(redex), ctx, "stlc")
        for bag in lhs.dom.bags(2):
            for pt in lhs.cod.points():
                assert lhs.entry(bag, pt) == rhs.entry(bag, pt)
