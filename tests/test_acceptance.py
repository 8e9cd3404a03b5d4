"""Acceptance checks: one test per headline result, at the stated tolerances.

 1. univariate roots of the geometric polynomial
 2. epsilon-truncation and pointwise agreement away from zero
 3. tropicalization under both valuations
 4. higher-order interpretation of z x x
 5. nondeterministic best case collapses to min{2a+b, 3a}
 6. probabilistic outcome series and maximum-likelihood bias
 7. recursive choice collapses to a single monomial, both semantics
 8. denotational = operational weight on the fixture suite
 9. Taylor expansion equation, semantic and syntactic
10. local Lipschitz constant of the worked resource term
11. order/concavity/Lipschitz properties on random polynomials
"""

import math
import random
from fractions import Fraction

import pytest

from tropcalc.values import INF, is_inf, trop_dist
from tropcalc.series import (
    MultiDegree,
    NEG_LOG,
    TRIVIAL,
    TropSeries,
    tropicalize,
    univariate_roots,
)
from tropcalc.terms import Arrow, O, parse
from tropcalc.model import (
    _apply,
    ArrowSet,
    Caps,
    SumSet,
    TropMatrix,
    UnitSet,
    ZERO_SERIES,
    bag_splits,
    check_boolean,
    interpret,
    matrix_apply,
)
from tropcalc.taylor import (
    empirical_lipschitz,
    interpret_resource,
    lipschitz_estimate,
    matrix_fn,
    taylor_gap,
    RBagApp,
    RVar,
)
from tropcalc.reduction import adequacy_check, best_case, mle, outcome_series
from tests.test_reduction import ADEQUACY_SUITE, M_GEN, M_PROB
from tests.test_taylor import taylor_sum

STAR = "*"
EPS = Fraction(1, 100)


def geometric(n):
    return TropSeries(
        ("x",), {MultiDegree({"x": d} if d else {}): Fraction(1, 2**d) for d in range(n + 1)}
    )


def mono(degrees, c=0):
    return TropSeries.monomial(degrees, Fraction(c))


# 1 ---------------------------------------------------------------------


def test_acceptance_roots():
    assert univariate_roots(geometric(4)) == [
        (Fraction(1, 2), 1),
        (Fraction(1, 4), 1),
        (Fraction(1, 8), 1),
        (Fraction(1, 16), 1),
    ]


# 2 ---------------------------------------------------------------------


def test_acceptance_truncation():
    f = geometric(20)
    t = f.truncate(Fraction(1, 4))
    assert t == TropSeries(
        ("x",), {MultiDegree(): Fraction(1), MultiDegree({"x": 1}): Fraction(1, 2)}
    )
    for k in range(200):
        x = Fraction(1, 4) + Fraction(10, 4) * Fraction(k, 199)
        assert t.eval({"x": x}) == f.eval({"x": x})


# 3 ---------------------------------------------------------------------


def test_acceptance_tropicalization():
    classical = {
        MultiDegree({"x": 2}): 1,
        MultiDegree({"x": 1, "y": 2}): 1,
        MultiDegree({"y": 3}): 1,
    }
    assert tropicalize(classical, TRIVIAL) == TropSeries(
        ("x", "y"), {d: Fraction(0) for d in classical}
    )
    q_true = {
        MultiDegree({"a": 2}): 1,
        MultiDegree({"a": 2, "b": 1}): 1,
        MultiDegree({"b": 3}): 1,
    }
    t = tropicalize(q_true, NEG_LOG)
    assert set(t.coeffs) == set(q_true)
    assert all(v == 0 for v in t.coeffs.values())


# 4 ---------------------------------------------------------------------


def test_acceptance_higher_order_interpretation():
    ctx = [("x", O), ("z", Arrow(O, Arrow(O, O)))]
    m = interpret(parse("z x x"), ctx, "stlc")
    for n in range(5):
        for np in range(5 - n):
            zp = ("=>", (STAR,) * n, ("=>", (STAR,) * np, STAR))
            bag = tuple(sorted((("@", 0, STAR),) * (n + np) + (("@", 1, zp),)))
            assert m.entry(bag, STAR) == ZERO_SERIES, (n, np)
    assert check_boolean(m)


# 5 ---------------------------------------------------------------------


def test_acceptance_best_case_nondeterministic():
    s = best_case(M_GEN, 0, 12).truncate(EPS)
    assert s == mono({"a": 2, "b": 1}).tmin(mono({"a": 3}))


# 6 ---------------------------------------------------------------------


def test_acceptance_probabilistic_mle():
    t = outcome_series(M_PROB, True)
    assert t == mono({"p": 2}).tmin(mono({"p": 2, "p'": 1})).tmin(mono({"p'": 3}))
    p, active = mle(mono({"a": 2, "b": 1}))
    assert abs(p - 2 / 3) < 1e-4
    assert active == MultiDegree({"a": 2, "b": 1})


# 7 ---------------------------------------------------------------------


def test_acceptance_recursive_collapse():
    t = parse("Y (\\x:Nat. True (+p) x)", "pcfl")
    den = interpret(t, [], "pcfl", Caps(f_max=4)).entry((), 0)
    oper = best_case(t, 0, 20)
    assert den.truncate(EPS) == TropSeries.parameter("p")
    assert oper.truncate(EPS) == TropSeries.parameter("p")
    w = -math.log(0.5)
    for s in (den, oper):
        assert abs(s.eval({"p": w, "p'": w}) - w) < 1e-9


# 8 ---------------------------------------------------------------------


def test_acceptance_adequacy_suite():
    assert len(ADEQUACY_SUITE) == 20
    for src, target in ADEQUACY_SUITE:
        _, _, ok = adequacy_check(parse(src, "pcfl"), target, Caps(f_max=4))
        assert ok, (src, target)


# 9 ---------------------------------------------------------------------


def _random_pair(seed, caps):
    rng = random.Random(seed)
    A = B = UnitSet()
    C = SumSet((UnitSet(),))  # a one-variable context
    arrow = ArrowSet(A, B, caps.k_max)
    fe = {
        (bag, pt): Fraction(rng.randint(0, 5))
        for bag in C.bags(2)
        for pt in arrow.points()
        if rng.random() < 0.5
    }
    ge = {
        (bag, STAR): Fraction(rng.randint(0, 5))
        for bag in C.bags(2)
        if rng.random() < 0.6
    }
    return TropMatrix.from_entries(C, arrow, fe), TropMatrix.from_entries(C, A, ge)


def _partition_oracle(f, g, chi, y, n_cap):
    best = INF
    for m in range(n_cap + 1):
        for parts in bag_splits(chi, m + 1):
            head = f.entry(parts[0], ("=>", (STAR,) * m, y))
            if head.is_empty:
                continue
            total = head.constant_value()
            for part in parts[1:]:
                s = g.entry(part, STAR)
                if s.is_empty:
                    break
                total += s.constant_value()
            else:
                best = min(best, total)
    return best


def test_acceptance_taylor():
    caps = Caps(k_max=3)
    for seed in range(4):
        f, g = _random_pair(seed, caps)
        direct = _apply(f, g, f.cod.k)
        approx = taylor_sum(f, g, 3)
        for chi in f.dom.bags(3):
            o = _partition_oracle(f, g, chi, STAR, 3)
            for side in (direct, approx):
                s = side.entry(chi, STAR)
                assert (INF if s.is_empty else s.constant_value()) == o
    ctx = [("x", O), ("z", Arrow(O, Arrow(O, O)))]
    point = {
        ("@", 0, STAR): Fraction(1),
        ("@", 1, ("=>", (STAR,), ("=>", (STAR,), STAR))): Fraction(0),
    }
    assert taylor_gap(parse("z x x"), point, STAR, 4, ctx) == (2, 2)


# 10 --------------------------------------------------------------------


def test_acceptance_lipschitz():
    ctx = [("x", O), ("z", Arrow(O, Arrow(O, O)))]
    zp = ("=>", (STAR, STAR), ("=>", (STAR,), STAR))
    t = RBagApp(RBagApp(RVar("z"), (RVar("x"),) * 2), (RVar("x"),))
    m = interpret_resource(t, ctx)
    fn = matrix_fn(m, STAR)
    center = {("@", 0, STAR): Fraction(1), ("@", 1, zp): Fraction(5)}
    K = lipschitz_estimate(fn, center, Fraction(1))
    assert K == 20
    # sample inside the ball, z held near its center
    rng = random.Random(42)
    worst = Fraction(0)
    for _ in range(500):
        pts = []
        for _ in range(2):
            pts.append(
                {
                    ("@", 0, STAR): Fraction(rng.randint(0, 16), 8),
                    ("@", 1, zp): Fraction(5) + Fraction(rng.randint(-8, 8), 8),
                }
            )
        u, v = pts
        gap = max(trop_dist(u[c], v[c]) for c in u)
        if gap == 0:
            continue
        fu, fv = fn(u), fn(v)
        if is_inf(fu) or is_inf(fv):
            continue
        worst = max(worst, trop_dist(fu, fv) / gap)
    assert worst <= K


# 11 --------------------------------------------------------------------


def _random_poly(rng):
    k = rng.randint(1, 5)
    return TropSeries(
        ("x", "y"),
        {
            MultiDegree({"x": rng.randint(0, 3), "y": rng.randint(0, 3)}): Fraction(
                rng.randint(0, 8), rng.randint(1, 4)
            )
            for _ in range(k)
        },
    )


def test_acceptance_property_suites():
    rng = random.Random(2024)
    for _ in range(200):
        f = _random_poly(rng)
        u = {v: Fraction(rng.randint(0, 12), 4) for v in ("x", "y")}
        w = {v: u[v] + Fraction(rng.randint(0, 8), 4) for v in ("x", "y")}
        # monotone in each coordinate
        assert f.eval(u) <= f.eval(w)
        # midpoint concavity
        mid = {v: (u[v] + w[v]) / 2 for v in u}
        assert 2 * f.eval(mid) >= f.eval(u) + f.eval(w)
        # Lipschitz with constant = total degree
        gap = max(trop_dist(u[v], w[v]) for v in u)
        assert trop_dist(f.eval(u), f.eval(w)) <= f.degree * gap


def test_acceptance_matrix_lipschitz_classes():
    from tropcalc.model import NatSet, identity

    # linear (dereliction) matrices are non-expansive
    m = identity(NatSet(2))
    fn = lambda p: matrix_apply(m, p, max_bag=1)[0]
    assert empirical_lipschitz(fn, 1, 4, 200, seed=9, vars=[0, 1, 2]) <= 1
    # a bag-size-bounded matrix is n-Lipschitz for n = the bound
    rng = random.Random(5)
    for n in (1, 2, 3):
        entries = {
            ((STAR,) * k, STAR): Fraction(rng.randint(0, 4))
            for k in range(n + 1)
        }
        mm = TropMatrix.from_entries(UnitSet(), UnitSet(), entries)
        fn = lambda p: matrix_apply(mm, p, max_bag=n)[STAR]
        assert empirical_lipschitz(fn, 1, 3, 200, seed=n, vars=[STAR]) <= n
