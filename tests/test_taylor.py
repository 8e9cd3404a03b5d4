"""Taylor expansion, the star operator, and Lipschitz estimation."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

from tropcalc.values import INF, trop_dist
from tropcalc.series import MultiDegree, TropSeries
from tropcalc.terms import Arrow, O, parse
from tropcalc.model import (
    _apply,
    ArrowSet,
    Caps,
    EMPTY_SERIES,
    SumSet,
    TropMatrix,
    UnitSet,
    ZERO_SERIES,
    bag_add,
    bag_splits,
    identity,
    interpret,
    matrix_apply,
    sub_bags,
)
from tropcalc.taylor import (
    InfiniteAtBall,
    RBagApp,
    RLam,
    RVar,
    elaborate,
    empirical_lipschitz,
    interpret_resource,
    lipschitz_estimate,
    matrix_fn,
    pretty_resource,
    taylor_expand,
    taylor_gap,
    taylor_term,
)

STAR = "*"
ZXX_CTX = [("x", O), ("z", Arrow(O, Arrow(O, O)))]


def zpoint(n, m):
    return ("=>", (STAR,) * n, ("=>", (STAR,) * m, STAR))


def taylor_sum(t, s, n_cap):
    """Entrywise min of the Taylor approximants up to n_cap: the semantic
    Taylor route, which the tests compare against application."""
    mats = [taylor_term(t, s, n) for n in range(n_cap + 1)]

    def fn(bag, y):
        best = EMPTY_SERIES
        for m in mats:
            best = best.tmin(m.entry(bag, y))
        return best

    return TropMatrix(mats[0].dom, mats[0].cod, fn)


# ----------------------------------------------------------------- expansion


def test_expand_base_cases():
    assert taylor_expand(parse("x"), 3) == [RVar("x")]
    assert taylor_expand(parse("\\x:o. x"), 3) == [RLam("x", O, RVar("x"))]


def test_expand_zxx():
    out = taylor_expand(parse("z x x"), 2)
    names = {pretty_resource(t) for t in out}
    for n in range(3):
        for m in range(3):
            bag_n = ",".join(["x"] * n)
            bag_m = ",".join(["x"] * m)
            assert f"z<{bag_n}><{bag_m}>" in names
    assert len(out) == 9
    # deterministic order
    assert [pretty_resource(t) for t in out] == sorted(pretty_resource(t) for t in out)


def test_elaborate():
    t = RBagApp(RVar("f"), (RVar("a"), RVar("a")))
    assert str(elaborate(t)) == "D[D[f,a],a] 0"


# ------------------------------------------------------ resource denotations


def test_resource_dereliction():
    m = interpret_resource(RVar("x"), [("x", O)])
    assert m.entry((("@", 0, STAR),), STAR) == ZERO_SERIES
    assert m.entry((), STAR).is_empty


def test_resource_znm():
    # z<x,x><x>: the bag multiplicities pin the entry exactly
    t = RBagApp(RBagApp(RVar("z"), (RVar("x"),) * 2), (RVar("x"),))
    m = interpret_resource(t, ZXX_CTX)
    bag = tuple(sorted((("@", 0, STAR),) * 3 + (("@", 1, zpoint(2, 1)),)))
    assert m.entry(bag, STAR) == ZERO_SERIES
    wrong = tuple(sorted((("@", 0, STAR),) * 2 + (("@", 1, zpoint(2, 1)),)))
    assert m.entry(wrong, STAR).is_empty
    # applied value: y_{[2,1]} + 3x
    out = matrix_apply(m, {("@", 0, STAR): Fraction(1), ("@", 1, zpoint(2, 1)): Fraction(5)})
    assert out[STAR] == 8


def test_resource_nested():
    # y<y<x>>: composition through the middle point
    ctx = [("y", Arrow(O, O)), ("x", O)]
    t = RBagApp(RVar("y"), (RBagApp(RVar("y"), (RVar("x"),)),))
    m = interpret_resource(t, ctx)
    ypt = ("=>", (STAR,), STAR)
    bag = tuple(sorted((("@", 0, ypt),) * 2 + (("@", 1, STAR),)))
    assert m.entry(bag, STAR) == ZERO_SERIES


# -------------------------------------------------------------- star/Taylor


def random_pair(seed, caps):
    """Random f : !C -> (A => B), g : !C -> A on singleton ground sets."""
    rng = random.Random(seed)
    A = B = UnitSet()
    C = SumSet((UnitSet(),))  # a one-variable context
    arrow = ArrowSet(A, B, caps.k_max)
    fe = {}
    for bag in C.bags(2):
        for pt in arrow.points():
            if rng.random() < 0.5:
                fe[(bag, pt)] = Fraction(rng.randint(0, 5))
    ge = {}
    for bag in C.bags(2):
        if rng.random() < 0.6:
            ge[(bag, STAR)] = Fraction(rng.randint(0, 5))
    return TropMatrix.from_entries(C, arrow, fe), TropMatrix.from_entries(C, A, ge)


def partition_oracle(f, g, chi, y, n_cap):
    """Independent enumeration of f_{chi',<[x_1..x_m],y>} + sum g_{chi_i,x_i}."""
    best = INF
    for m in range(n_cap + 1):
        for parts in bag_splits(chi, m + 1):
            chi_p, rest = parts[0], parts[1:]
            args = tuple(sorted([STAR] * m))
            head = f.entry(chi_p, ("=>", args, y))
            if head.is_empty:
                continue
            total = head.constant_value()
            dead = False
            for part in rest:
                s = g.entry(part, STAR)
                if s.is_empty:
                    dead = True
                    break
                total += s.constant_value()
            if not dead:
                best = min(best, total)
    return best


@pytest.mark.parametrize("seed", range(8))
def test_taylor_equation(seed):
    caps = Caps(k_max=3)
    f, g = random_pair(seed, caps)
    direct = _apply(f, g, f.cod.k)
    approx = taylor_sum(f, g, 3)
    for chi in f.dom.bags(3):
        d = direct.entry(chi, STAR)
        a = approx.entry(chi, STAR)
        o = partition_oracle(f, g, chi, STAR, 3)
        dval = INF if d.is_empty else d.constant_value()
        aval = INF if a.is_empty else a.constant_value()
        assert dval == o
        assert aval == o


def test_taylor_term_zero_is_plain_uncurry():
    caps = Caps(k_max=3)
    f, g = random_pair(3, caps)
    t0 = taylor_term(f, g, 0)
    for chi in f.dom.bags(2):
        assert t0.entry(chi, STAR) == f.entry(chi, ("=>", (), STAR))


def test_star_with_empty_argument():
    caps = Caps(k_max=3)
    f, _ = random_pair(1, caps)
    g_empty = TropMatrix.empty(f.dom, UnitSet())
    t1 = taylor_term(f, g_empty, 1)
    for chi in f.dom.bags(2):
        assert t1.entry(chi, STAR).is_empty


# ---------------------------------------------------------------- taylor_gap


ZXX_POINT = {("@", 0, STAR): Fraction(1), ("@", 1, zpoint(1, 1)): Fraction(0)}


def test_taylor_gap_zxx():
    direct, expanded = taylor_gap(parse("z x x"), ZXX_POINT, STAR, 4, ZXX_CTX)
    assert (direct, expanded) == (2, 2)


def test_taylor_gap_identity():
    m = {("@", 0, STAR): Fraction(3)}
    t = parse("(\\y:o. y) x")
    direct, expanded = taylor_gap(t, m, STAR, 2, [("x", O)])
    assert direct == expanded == 3


def test_taylor_gap_monotone_in_cap():
    prev = INF
    for cap in range(1, 5):
        direct, expanded = taylor_gap(parse("z x x"), ZXX_POINT, STAR, cap, ZXX_CTX)
        assert expanded >= direct
        assert expanded <= prev
        prev = expanded


GZXX_CTX = [("x", O), ("g", Arrow(O, O)), ("z", Arrow(O, Arrow(O, O)))]
GZXX_POINTS = [
    ("@", 0, STAR),
    ("@", 1, ("=>", (STAR,), STAR)),
    ("@", 1, ("=>", (STAR, STAR), STAR)),
    ("@", 2, zpoint(1, 1)),
    ("@", 2, zpoint(2, 0)),
]


def test_taylor_gap_gzxx_at_degree_3():
    x = dict(zip(GZXX_POINTS, [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1), Fraction(3, 2)]))
    assert taylor_gap(parse("g (z x x)"), x, STAR, 3, GZXX_CTX, Caps(k_max=3)) == (Fraction(7, 2), Fraction(7, 2))


@settings(max_examples=8, deadline=None)
@given(hst.lists(hst.one_of(hst.fractions(min_value=0, max_value=3, max_denominator=4), hst.just(INF)),
                 min_size=len(GZXX_POINTS), max_size=len(GZXX_POINTS)))
def test_taylor_gap_gzxx_property_up_to_degree_3(values):
    # the Taylor formula: direct <= expanded at every degree cap, and the
    # expansion does not increase as the cap grows
    x = dict(zip(GZXX_POINTS, values))
    gaps = [taylor_gap(parse("g (z x x)"), x, STAR, d, GZXX_CTX, Caps(k_max=3)) for d in (1, 2, 3)]
    assert len({direct for direct, _ in gaps}) == 1
    assert all(direct <= expanded for direct, expanded in gaps)
    assert gaps[0][1] >= gaps[1][1] >= gaps[2][1]


# ----------------------------------------------------------------- Lipschitz


def test_lipschitz_worked_example():
    t = RBagApp(RBagApp(RVar("z"), (RVar("x"),) * 2), (RVar("x"),))
    m = interpret_resource(t, ZXX_CTX)
    center = {("@", 0, STAR): Fraction(1), ("@", 1, zpoint(2, 1)): Fraction(5)}
    fn = matrix_fn(m, STAR)
    K = lipschitz_estimate(fn, center, Fraction(1))
    assert K == 20
    emp = empirical_lipschitz(
        fn, Fraction(1, 2), Fraction(3, 2), 100, seed=7, vars=[("@", 0, STAR)]
    )
    # only x varies inside the ball; hold the z coordinate at its center
    fn_x = lambda p: fn({**p, ("@", 1, zpoint(2, 1)): Fraction(5)})
    emp = empirical_lipschitz(
        fn_x, Fraction(1, 2), Fraction(3, 2), 200, seed=7, vars=[("@", 0, STAR)]
    )
    assert emp <= K


def test_lipschitz_constant_series():
    f = TropSeries.constant(Fraction(4), ("x",))
    K = lipschitz_estimate(f, {"x": Fraction(1)}, Fraction(2))
    assert K == 2
    assert empirical_lipschitz(f, 1, 3, 50, seed=1) == 0


def test_lipschitz_monomial():
    n = 3
    f = TropSeries.monomial({"x": n}, Fraction(1))
    K = lipschitz_estimate(f, {"x": Fraction(1)}, Fraction(1))
    emp = empirical_lipschitz(f, Fraction(1, 4), 2, 300, seed=11)
    assert emp <= n <= K


def test_lipschitz_2delta_variant():
    f = TropSeries.monomial({"x": 1}, Fraction(0))
    assert lipschitz_estimate(f, {"x": Fraction(1)}, Fraction(1)) == 4
    assert lipschitz_estimate(f, {"x": Fraction(1)}, Fraction(1), radius_mult=2) == 3


def test_lipschitz_infinite_ball():
    f = TropSeries.empty(("x",))
    with pytest.raises(InfiniteAtBall):
        lipschitz_estimate(f, {"x": Fraction(1)}, Fraction(1))


def test_linear_matrix_nonexpansive():
    from tropcalc.model import NatSet

    m = identity(NatSet(2))
    fn = lambda p: matrix_apply(m, p, max_bag=1)[1]
    emp = empirical_lipschitz(fn, 1, 4, 200, seed=3, vars=[0, 1, 2])
    assert emp <= 1


def test_resource_term_bag_bound_lipschitz():
    # z<x,x><x> uses x three times: 3-Lipschitz in x
    t = RBagApp(RBagApp(RVar("z"), (RVar("x"),) * 2), (RVar("x"),))
    m = interpret_resource(t, ZXX_CTX)
    zfix = {("@", 1, zpoint(2, 1)): Fraction(0)}
    fn = lambda p: matrix_fn(m, STAR)({**p, **zfix})
    emp = empirical_lipschitz(fn, 1, 3, 200, seed=5, vars=[("@", 0, STAR)])
    assert emp <= 3


def test_estimate_dominates_empirical():
    rng = random.Random(0)
    for trial in range(20):
        mons = {
            MultiDegree({"x": rng.randint(0, 3), "y": rng.randint(0, 3)}): Fraction(
                rng.randint(0, 6)
            )
            for _ in range(rng.randint(1, 5))
        }
        f = TropSeries(("x", "y"), mons)
        center = {"x": Fraction(rng.randint(1, 3)), "y": Fraction(rng.randint(1, 3))}
        delta = Fraction(1)
        K = lipschitz_estimate(f, center, delta)
        lo = {v: center[v] - delta for v in center}
        # sample inside the ball only
        best = Fraction(0)
        for _ in range(50):
            u = {v: lo[v] + Fraction(rng.randint(0, 16), 8) for v in center}
            w = {v: lo[v] + Fraction(rng.randint(0, 16), 8) for v in center}
            gap = max(trop_dist(u[c], w[c]) for c in center)
            if gap == 0:
                continue
            fu, fw = f.eval(u), f.eval(w)
            best = max(best, trop_dist(fu, fw) / gap)
        assert best <= K
