"""Weighted reduction, best-case search, likelihood monomials, MLE."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

from tropcalc.values import INF, is_inf
from tropcalc.series import MultiDegree, TropSeries
from tropcalc.terms import (
    NAT,
    Choice,
    Fix,
    Lam,
    Numeral,
    Pred,
    Scalar,
    Succ,
    Sum,
    Var,
    parse,
    translate_prob,
)
from tropcalc.model import Caps
from tropcalc.reduction import (
    ZERO_W,
    BadAddress,
    WeightedStep,
    _choice_leaves,
    _cmp_log,
    _log_bounds,
    _num,
    adequacy_check,
    best_case,
    mle,
    outcome_series,
    path_likelihood,
    step,
)

# the three-level biased coin tree: True-vs-False at every leaf
M_PROB = parse(
    "(True (+p) False) (+p) ((True (+p) False) (+p) (False (+p) True))", "pcfl"
)

# a generator loop: each unfolding costs b, each branch selection costs a
GEN = "Y (\\g:Nat. b . (a . True + a . g))"
M_GEN = parse(f"a . ({GEN}) + a . (a . (a . True + a . True) + a . ({GEN}))", "pcfl")


def mono(degrees, c=0):
    return TropSeries.monomial(degrees, Fraction(c))


# ------------------------------------------------------------------- step


def test_step_scalar_and_sum():
    [(t, ws)] = step(parse("a . 3", "pcfl"))
    assert t == Numeral(3) and ws.weight == TropSeries.parameter("a")
    out = step(parse("3 + 5", "pcfl"))
    assert [(t, ws.weight.constant_value()) for t, ws in out] == [
        (Numeral(3), 0),
        (Numeral(5), 0),
    ]


def test_step_normal_forms():
    assert step(parse("3", "pcfl")) == []
    assert step(parse("\\x:Nat. succ x", "pcfl")) == []


def test_step_choice_desugars():
    [(t, ws)] = step(parse("True (+p) False", "pcfl"))
    assert t == translate_prob(parse("True (+p) False", "pcfl"))
    assert ws.weight.constant_value() == 0


def test_step_congruence_positions():
    [(t, ws)] = step(parse("succ (a . 1)", "pcfl"))
    assert str(t) == "succ 1" and ws.address == ("arg",)
    [(t, ws)] = step(parse("ifz (b . 0) 1 2", "pcfl"))
    assert str(t) == "ifz 0 1 2" and ws.address == ("cond",)
    [(t, ws)] = step(parse("(\\x:Nat. x) 3", "pcfl"))
    assert t == Numeral(3) and ws.rule == "beta"


# -------------------------------------------------------------- best_case


def test_best_case_trivial():
    assert best_case(parse("3", "pcfl"), 3, 0).constant_value() == 0
    m = parse("2 . 3 + 1 . 5", "pcfl")
    assert best_case(m, 3, 4).constant_value() == 2
    assert best_case(m, 5, 4).constant_value() == 1
    assert best_case(m, 4, 10).is_empty


def naive_paths(t, goal, depth):
    """Per-path recursion, no state merging: an independent enumeration."""
    best = TropSeries.empty()
    if t == goal:
        best = best.tmin(TropSeries.constant(Fraction(0)))
    if depth > 0:
        for t2, ws in step(t):
            best = best.tmin(ws.weight.tmul(naive_paths(t2, goal, depth - 1)))
    return best


@pytest.mark.parametrize(
    "src,target",
    [
        ("2 . 3 + 1 . 5", 3),
        ("(True (+p) False) (+q) 2", 0),
        ("succ (a . (1 + b . 2))", 3),
        ("ifz (True (+p) False) 4 5", 5),
        # fix, beta and constant-scalar steps: best_case skips the product
        # by the unit weight, the naive oracle always multiplies
        ("Y (\\x:Nat. 0 (+p) (a . x))", 0),
        ("(\\n:Nat. succ n) (b . 1)", 2),
        ("(\\n:Nat. 1/2 . succ n) (0 . 1 + 0.25 . (3/2 . 2))", 2),
    ],
)
def test_best_case_matches_naive(src, target):
    t = translate_prob(parse(src, "pcfl"))
    assert best_case(t, target, 8) == naive_paths(t, Numeral(target), 8)


def reference_best_case(term, target, depth_cap):
    """The layered sweep over TropSeries labels: states keyed by term,
    each stepped once, weights multiplied by tmul (the unit skipped) and
    merged by tmin."""
    goal = Numeral(_num(target))
    frontier = {translate_prob(term): ZERO_W}
    succ = {}
    best = TropSeries.empty()
    for _ in range(depth_cap + 1):
        nxt = {}
        for t, w in frontier.items():
            if t == goal:
                best = best.tmin(w)
                continue
            steps = succ.get(t)
            if steps is None:
                steps = succ[t] = step(t)
            for t2, ws in steps:
                acc = w if ws.weight is ZERO_W else w.tmul(ws.weight)
                nxt[t2] = acc.tmin(nxt[t2]) if t2 in nxt else acc
        if not nxt:
            break
        frontier = nxt
    return best


def typed(s):
    """Everything a caller can see of a series: its monomials in order,
    their coefficients with their types, and its vars."""
    return [(d, c, type(c)) for d, c in s.coeffs.items()], s.vars


# library-built weights: parameters, exact constants (zero among them),
# floats, a float sum that overflows to INF, and INF itself
weights = hst.one_of(
    hst.sampled_from(["a", "b", "p"]),
    hst.fractions(0, 3, max_denominator=4),
    hst.sampled_from([Fraction(0), 0.0, 0.5, 1.0, 1.7e308, math.inf]),
)


def bodies(x):
    """Terms over the numerals 0-2 and, when x is given, the variable x."""
    leaves = hst.integers(0, 2).map(Numeral)
    if x:
        leaves = leaves | hst.just(Var(x))
    return hst.recursive(
        leaves,
        lambda kids: hst.one_of(
            hst.tuples(weights, kids).map(lambda wt: Scalar(*wt)),
            hst.tuples(hst.sampled_from("pq"), kids, kids).map(lambda lr: Choice(*lr)),
            hst.tuples(kids, kids).map(Sum),
            kids.map(Succ),
            kids.map(Pred),
        ),
        max_leaves=6,
    )


# choice trees, and Y generators whose body may loop back through x
search_terms = bodies(None) | bodies("x").map(lambda b: Fix(Lam("x", NAT, b)))


@settings(max_examples=300, deadline=None)
@given(search_terms, hst.integers(0, 2), hst.integers(0, 40))
def test_best_case_matches_reference_sweep(t, target, depth):
    assert typed(best_case(t, target, depth)) == typed(reference_best_case(t, target, depth))


def test_best_case_deep_exponents():
    # five steps per turn of the loop: past depth 1280 its exponents outgrow a byte
    t = parse("Y (\\x:Nat. 0 (+p) (a . x))", "pcfl")
    got = best_case(t, 0, 1300)
    assert typed(got) == typed(reference_best_case(t, 0, 1300))
    assert max(n for d in got.coeffs for _, n in d.items()) > 255


def test_float_and_fraction_weights_are_different_terms():
    # each branch's path keeps its own weight's type, whichever comes first;
    # a state merged with the equal weight of the other type would not
    fl, fr = Scalar(1.0, Numeral(0)), Scalar(Fraction(1), Numeral(0))
    assert fl != fr and hash(fl) == hash(fr)
    for left, right in [(fl, fr), (fr, fl)]:
        t = Choice("p", left, right)
        for got in (best_case(t, 0, 10), outcome_series(t, 0, 10)):
            types = {d.vars(): type(c) for d, c in got.coeffs.items()}
            assert types == {("p",): type(left.weight), ("p'",): type(right.weight)}


def test_best_case_depth_monotone():
    t = parse("Y (\\x:Nat. 0 (+p) x)", "pcfl")
    point = {"p": Fraction(1), "p'": Fraction(1)}
    vals = []
    for depth in (2, 4, 8, 16):
        s = best_case(t, 0, depth)
        vals.append(INF if s.is_empty else s.eval(point))
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_best_case_generator():
    s = best_case(M_GEN, 0, 12)
    expected = mono({"a": 2, "b": 1}).tmin(mono({"a": 3}))
    assert s.truncate(Fraction(1, 100)) == expected
    # every enumerated behavior is dominated by one of the two optima
    assert s.eval({"a": Fraction(1), "b": Fraction(1)}) == 3


def test_best_case_steps_each_state_once(monkeypatch):
    from tropcalc import reduction

    stepped = []
    monkeypatch.setattr(reduction, "step", lambda t: stepped.append(t) or step(t))
    assert best_case(M_GEN, 0, 24) == best_case(M_GEN, 0, 24)
    # the generator's loop comes back to the same states at many depths
    half = len(stepped) // 2
    assert len(set(stepped[:half])) == half and stepped[half:] == stepped[:half]


# -------------------------------------------------- likelihoods & outcomes


def test_path_likelihood_monomials():
    assert path_likelihood(M_PROB, "rll") == mono({"p": 2, "p'": 1})
    assert path_likelihood(M_PROB, "rrr") == mono({"p'": 3})
    assert path_likelihood(M_PROB, "ll") == mono({"p": 2})
    assert path_likelihood(Numeral(0), "").constant_value() == 0


def test_path_likelihood_bad_addresses():
    with pytest.raises(BadAddress):
        path_likelihood(M_PROB, "r")  # stops at an inner choice
    with pytest.raises(BadAddress):
        path_likelihood(M_PROB, "lll")  # overruns a leaf
    with pytest.raises(BadAddress):
        path_likelihood(M_PROB, "lx")


def test_outcome_series_true_false():
    t = outcome_series(M_PROB, True)
    assert t == mono({"p": 2}).tmin(mono({"p": 2, "p'": 1})).tmin(mono({"p'": 3}))
    f = outcome_series(M_PROB, False)
    assert f == mono({"p": 1, "p'": 1}).tmin(mono({"p": 1, "p'": 2}))


def test_outcome_series_recursive_collapse():
    t = parse("Y (\\x:Nat. True (+p) x)", "pcfl")
    s = outcome_series(t, True, depth_cap=20)
    assert s.truncate(Fraction(1, 100)) == TropSeries.parameter("p")


def test_outcome_series_steps_each_distinct_leaf_once(monkeypatch):
    from tropcalc import reduction

    stepped = []
    monkeypatch.setattr(reduction, "step", lambda t: stepped.append(t) or step(t))
    t = parse("(a . 1) (+p) ((a . 1) (+q) ((a . 1) (+p) 0))", "pcfl")
    s = outcome_series(t, 1)
    paths = [{"p": 1}, {"p'": 1, "q": 1}, {"p'": 1, "q'": 1, "p": 1}]
    assert s == functools.reduce(TropSeries.tmin, (mono({"a": 1, **d}) for d in paths))
    # the leaf a . 1 is searched once, not once per occurrence
    assert len(stepped) == 2 and set(stepped) == {parse("a . 1", "pcfl"), Numeral(0)}


def random_choice_tree(rng, depth, labels="p"):
    if depth == 0 or rng.random() < 0.3:
        return Numeral(rng.randint(0, 1))
    return Choice(
        rng.choice(labels) if len(labels) > 1 else labels,  # one label draws nothing
        random_choice_tree(rng, depth - 1, labels),
        random_choice_tree(rng, depth - 1, labels),
    )


def brute_neg_log(t, outcome_n, p):
    """Min over paths of the summed -log step probabilities."""
    if isinstance(t, Choice):
        return min(
            -math.log(p) + brute_neg_log(t.left, outcome_n, p),
            -math.log(1 - p) + brute_neg_log(t.right, outcome_n, p),
        )
    return 0.0 if t == Numeral(outcome_n) else math.inf


@pytest.mark.parametrize("seed", range(10))
def test_choice_leaves_carry_path_monomials(seed):
    rng = random.Random(seed)
    t = random_choice_tree(rng, 4, labels="pq")
    leaves = _choice_leaves(t)
    for omega, leaf, degrees in leaves:
        assert mono(degrees) == path_likelihood(t, omega)
        node = t
        for d in omega:
            node = node.left if d == "l" else node.right
        assert node is leaf
    omegas = [omega for omega, _, _ in leaves]
    assert omegas == sorted(omegas)  # left to right


@pytest.mark.parametrize("seed", range(10))
def test_min_neg_log_probability(seed):
    rng = random.Random(seed)
    t = random_choice_tree(rng, 3)
    for outcome in (0, 1):
        s = outcome_series(t, outcome)
        for p in (0.3, 0.5, 0.7):
            want = brute_neg_log(t, outcome, p)
            if s.is_empty:
                assert math.isinf(want)
                continue
            got = s.eval({"p": -math.log(p), "p'": -math.log(1 - p)})
            assert abs(float(got) - want) < 1e-9


# ---------------------------------------------------------------- adequacy


ADEQUACY_SUITE = [
    ("3", 3),
    ("(\\x:Nat. x) 3", 3),
    ("succ 3", 4),
    ("pred 0", 0),
    ("pred 4", 3),
    ("pred (succ 0)", 0),
    ("ifz 0 1 2", 1),
    ("ifz 7 1 2", 2),
    ("ifz (pred 1) 5 6", 5),
    ("2 . 3 + 1 . 5", 3),
    ("2 . 3 + 1 . 5", 5),
    ("1/2 . 0 + 1/3 . 0", 0),
    ("True (+p) False", 0),
    ("True (+p) False", 1),
    ("a . ((\\x:Nat. succ x) 1)", 2),
    ("(\\f:Nat->Nat. f 2) (\\x:Nat. succ x)", 3),
    ("succ (succ (a . 0))", 2),
    ("(\\x:Nat. ifz x 1 0) (True (+q) False)", 1),
    ("(\\x:Nat. ifz x 1 0) (True (+q) False)", 0),
    ("Y (\\x:Nat. 0 (+p) x)", 0),
]


@pytest.mark.parametrize("src,target", ADEQUACY_SUITE)
def test_adequacy(src, target):
    den, oper, ok = adequacy_check(parse(src, "pcfl"), target, Caps(f_max=4))
    assert ok, (src, den, oper)


# --------------------------------------------------------------------- mle


def test_mle_rll_path():
    # min of 2(-log p) + (-log(1-p)): stationarity of p^2(1-p) at p = 2/3
    p, active = mle(mono({"a": 2, "b": 1}))
    assert abs(p - 2 / 3) < 1e-4
    assert p == Fraction(2, 3)
    assert active == MultiDegree({"a": 2, "b": 1})


def test_mle_single_variable_boundary():
    p, active = mle(TropSeries.parameter("a"))
    assert p > 0.99
    assert active == MultiDegree({"a": 1})


def test_mle_crossing():
    s = mono({"a": 2}).tmin(mono({"b": 3}))
    p, active = mle(s)
    # the optimum pushes p toward whichever side is active; at the argmin
    # the reported monomial really attains the min
    va = 2 * -math.log(p)
    vb = 3 * -math.log(1 - p)
    if active == MultiDegree({"a": 2}):
        assert va <= vb + 1e-9
    else:
        assert vb <= va + 1e-9
    # crossing point oracle: 2(-log p) = 3(-log(1-p)) has a root in (0,1)
    g = lambda q: 2 * -math.log(q) - 3 * -math.log(1 - q)
    lo, hi = 0.01, 0.99
    assert g(lo) > 0 > g(hi)


def test_mle_shift_invariance():
    s = mono({"a": 2, "b": 1}, 0).tmin(mono({"a": 3}, 2))
    p1, a1 = mle(s)
    p2, a2 = mle(s.shift(Fraction(5)))
    assert a1 == a2
    assert abs(p1 - p2) < 1e-4


def test_mle_empty():
    p, active = mle(TropSeries.empty())
    assert math.isnan(p) and active is None


@pytest.mark.parametrize(
    "c,p_star,active",
    [
        # log(27/4) = 1.90954250488443845...: its float ties with both
        # constants, so only an exact comparison orders them
        (Fraction(19095425048844386, 10**16), Fraction(1, 3), {"p": 1, "p'": 2}),
        (Fraction(19095425048844384, 10**16), Fraction(1, 2), {}),
    ],
)
def test_mle_compares_optima_exactly(c, p_star, active):
    s = mono({}, c).tmin(mono({"p": 1, "p'": 2}))
    assert mle(s) == (p_star, MultiDegree(active))


def test_mle_exact_tie_goes_to_first_degree():
    # p + 2p' and 2p + p' both attain log(27/4)
    s = mono({"p": 2, "p'": 1}).tmin(mono({"p": 1, "p'": 2}))
    assert mle(s) == (Fraction(1, 3), MultiDegree({"p": 1, "p'": 2}))


positive_rationals = hst.fractions(min_value=Fraction(1, 10**6), max_value=10**6)


@settings(max_examples=200, deadline=None)
@given(positive_rationals, hst.sampled_from([1, 4, 16]))
def test_log_bounds_bracket_log(q, terms):
    lo, hi = _log_bounds(q, terms)
    assert lo <= hi
    assert float(lo) <= math.log(q) + 1e-12 and math.log(q) - 1e-12 <= float(hi)
    lo2, hi2 = _log_bounds(q, 2 * terms)
    assert lo <= lo2 and hi2 <= hi


@settings(max_examples=200, deadline=None)
@given(hst.fractions(-20, 20), positive_rationals)
def test_cmp_log_sign(x, q):
    gap = float(x) - math.log(q)
    sign = _cmp_log(x, q)
    if abs(gap) > 1e-9:
        assert sign == (1 if gap > 0 else -1)
    if q == 1:
        assert sign == (x > 0) - (x < 0)
    else:
        assert sign != 0


# brute-force oracle: the objective along p -> (-log p, -log(1-p)) over a
# uniform grid of (0, 1), for series in {p, p'}
MLE_GRID = [k / 2001 for k in range(1, 2001)]


def mono_at(d, c, q):
    return float(c) + d.get("p") * -math.log(q) + d.get("p'") * -math.log(1 - q)


def series_at(s, q):
    return min(mono_at(d, c, q) for d, c in s.coeffs.items())


# constant (0, 0), one-sided (i, 0) / (0, j) and two-sided monomials
pp_series = hst.lists(
    hst.tuples(hst.integers(0, 4), hst.integers(0, 4), hst.fractions(0, 10)),
    min_size=1,
    max_size=6,
).map(
    lambda mons: functools.reduce(
        TropSeries.tmin,
        (TropSeries.monomial({"p": i, "p'": j}, c, ("p", "p'")) for i, j, c in mons),
    )
)


@settings(max_examples=100, deadline=None)
@given(pp_series)
def test_mle_against_grid_oracle(s):
    p, active = mle(s)
    assert 0 < p < 1
    q = float(p)
    floor = min(series_at(s, x) for x in MLE_GRID)
    i, j = active.get("p"), active.get("p'")
    c = s.coeffs[active]
    if i and j:
        assert p == Fraction(i, i + j)
        assert series_at(s, q) <= floor + 1e-9
    if (i and j) or not (i or j):
        assert mono_at(active, c, q) <= series_at(s, q) + 1e-9
    else:
        # a one-sided monomial only reaches its infimum c in the limit;
        # at the edge point another monomial may lie less than
        # (i + j) log(1001/1000) above c and so dip under it there
        assert float(c) <= min(series_at(s, q), floor) + 1e-9
