"""Tropical scalars and series, checked against brute-force oracles."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tropcalc.values import FLOAT_TOL, INF, as_trop, is_inf, trop_add, trop_dist, trop_mul
from tropcalc.series import (
    NEG_LOG,
    TRIVIAL,
    BadEpsilon,
    EmptySeries,
    MissingAssignment,
    MultiDegree,
    TropSeries,
    deriv_eval,
    plot_rows,
    tropicalize,
    univariate_roots,
)


# ---------------------------------------------------------------- scalars

rationals = st.fractions(min_value=0, max_value=100)
trops = st.one_of(rationals, st.just(INF))


def test_scalar_units():
    assert trop_add(Fraction(3), INF) == 3
    assert trop_mul(Fraction(2), Fraction(3)) == 5
    assert trop_dist(INF, INF) == 0


@given(trops, trops, trops)
def test_semiring_laws(a, b, c):
    assert trop_add(a, b) == trop_add(b, a)
    assert trop_add(trop_add(a, b), c) == trop_add(a, trop_add(b, c))
    assert trop_add(a, a) == a
    assert trop_add(a, INF) == a
    assert trop_mul(a, b) == trop_mul(b, a)
    assert trop_mul(trop_mul(a, b), c) == trop_mul(a, trop_mul(b, c))
    assert trop_mul(a, Fraction(0)) == a
    assert trop_mul(a, trop_add(b, c)) == trop_add(trop_mul(a, b), trop_mul(a, c))


# ---------------------------------------------------------------- evaluation


def geometric(n):
    """min over 0<=i<=n of i*x + 2^-i."""
    return TropSeries(
        ("x",), {MultiDegree({"x": i}): Fraction(1, 2**i) for i in range(n + 1)}
    )


def brute_eval(f, point):
    best = INF
    for deg, c in f.coeffs.items():
        v = c
        for var, n in deg.items():
            if point[var] == INF:
                v = INF
                break
            v = v + n * point[var]
        best = min(best, v)
    return best


def test_eval_examples():
    assert geometric(10).eval({"x": Fraction(1)}) == 1
    assert TropSeries.empty(("x",)).eval({"x": Fraction(5)}) == INF
    f = TropSeries(
        ("a", "b"),
        {
            MultiDegree({"a": 2}): Fraction(0),
            MultiDegree({"a": 2, "b": 1}): Fraction(0),
            MultiDegree({"b": 3}): Fraction(0),
        },
    )
    assert f.eval({"a": Fraction(1), "b": Fraction(1)}) == 2


def test_eval_missing_assignment():
    with pytest.raises(MissingAssignment):
        geometric(3).eval({})


small_series = st.builds(
    lambda mons: TropSeries(
        ("x", "y"),
        [(MultiDegree({"x": i, "y": j}), c) for (i, j, c) in mons],
    ),
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), rationals), max_size=8
    ),
)
points = st.fixed_dictionaries({"x": trops, "y": trops})
finite_points = st.fixed_dictionaries({"x": rationals, "y": rationals})


@given(small_series, points)
def test_eval_matches_bruteforce(f, p):
    assert f.eval(p) == brute_eval(f, p)


@given(small_series, small_series, points)
def test_min_mul_commute_with_eval(f, g, p):
    assert f.tmin(g).eval(p) == trop_add(f.eval(p), g.eval(p))
    assert f.tmul(g).eval(p) == trop_mul(f.eval(p), g.eval(p))


def test_min_mul_examples():
    f = TropSeries.monomial({"x": 1}, Fraction(0))
    assert f.tmin(TropSeries.empty(("x",))) == f
    sq = f.tmul(f)
    assert sq == TropSeries.monomial({"x": 2}, Fraction(0))
    ab = TropSeries(
        ("a", "b"),
        {MultiDegree({"a": 1}): Fraction(0), MultiDegree({"b": 1}): Fraction(0)},
    )
    assert ab.tmul(ab) == TropSeries(
        ("a", "b"),
        {
            MultiDegree({"a": 2}): Fraction(0),
            MultiDegree({"a": 1, "b": 1}): Fraction(0),
            MultiDegree({"b": 2}): Fraction(0),
        },
    )


# The operations build their results without re-validating.  Each result
# must equal its validating rebuild and the validating formula for it.

mixed_coeffs = st.one_of(
    rationals, st.floats(min_value=0, allow_nan=False, allow_infinity=False)
)


@st.composite
def mixed_series(draw):
    vs = draw(st.lists(st.sampled_from("xyz"), unique=True))
    mons = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 3), min_size=len(vs), max_size=len(vs)),
                mixed_coeffs,
            ),
            max_size=6,
        )
    )
    return TropSeries(vs, [(MultiDegree(dict(zip(vs, es))), c) for es, c in mons])


any_series = st.one_of(small_series, mixed_series())
epsilons = st.one_of(
    st.fractions(min_value=Fraction(1, 100), max_value=5),
    st.floats(min_value=0.01, max_value=5),
)


def assert_valid(r):
    rebuilt = TropSeries(r.vars, r.coeffs)
    assert rebuilt.coeffs == r.coeffs and rebuilt.vars == r.vars
    assert list(r.vars) == sorted(set(r.vars))
    assert all(v in r.vars for d in r.coeffs for v in d.vars())
    assert not any(c == INF for c in r.coeffs.values())


def union(*fs):
    return tuple(sorted({v for f in fs for v in f.vars}))


@given(any_series, any_series, mixed_coeffs, epsilons)
def test_trusted_results_match_validating_rebuild(f, g, c, eps):
    for r in (f.tmin(g), f.tmul(g), f.shift(c), f.truncate(eps)):
        assert_valid(r)
    assert f.tmin(g).vars == f.tmul(g).vars == union(f, g)
    assert f.shift(c).vars == f.truncate(eps).vars == f.vars
    # the validating formulas, monomials in the same order
    old_min = TropSeries(
        f.vars + g.vars, list(f.coeffs.items()) + list(g.coeffs.items())
    )
    old_mul = TropSeries(
        f.vars + g.vars,
        [
            (MultiDegree(d1.items() + d2.items()), trop_mul(c1, c2))
            for d1, c1 in f.coeffs.items()
            for d2, c2 in g.coeffs.items()
        ],
    )
    old_shift = TropSeries(f.vars, [(d, trop_mul(cc, c)) for d, cc in f.coeffs.items()])
    assert list(f.tmin(g).coeffs.items()) == list(old_min.coeffs.items())
    assert list(f.tmul(g).coeffs.items()) == list(old_mul.coeffs.items())
    assert list(f.shift(c).coeffs.items()) == list(old_shift.coeffs.items())


@given(any_series)
def test_trusted_units_and_empty(f):
    one = f.tmul(TropSeries.constant(0))
    assert one == f and one.vars == f.vars
    e = TropSeries.empty(("w",))
    assert f.tmin(e) == f and f.tmin(e).vars == union(f, e)
    assert f.tmul(e).is_empty and f.tmul(e).vars == union(f, e)
    assert e.tmin(f).vars == e.tmul(f).vars == union(f, e)


def test_float_overflow_drops_monomial():
    # finite floats can sum to INF, which a series never stores
    big = TropSeries.monomial({"x": 1}, 1e308)
    assert big.tmul(big).is_empty and big.tmul(big).vars == ("x",)
    assert big.shift(1e308).is_empty
    assert big.tmin(big.shift(1e308)) == big


# Pareto reduction: dropping dominated monomials keeps the function, since
# every variable ranges over [0, INF].  Each series draws its coefficients
# of one kind, exact or float: a float sum rounds, so 0.5 + q can exceed the
# exact 1/2 + q, and a series mixing the two kinds is ordered only up to
# that rounding.


@st.composite
def crowded_series(draw, coeff):
    """Series over up to three variables whose monomials often compare."""
    vs = draw(st.lists(st.sampled_from("xyz"), unique=True))
    mons = draw(
        st.lists(
            st.tuples(st.lists(st.integers(0, 2), min_size=len(vs), max_size=len(vs)), coeff),
            max_size=10,
        )
    )
    return TropSeries(vs, [(MultiDegree(dict(zip(vs, es))), c) for es, c in mons])


reducible = st.one_of(
    small_series,
    crowded_series(st.fractions(min_value=0, max_value=3, max_denominator=2)),
    crowded_series(
        st.one_of(st.sampled_from([0.5, 1.0, 2.5]), st.floats(min_value=0, allow_infinity=False))
    ),
)


@given(reducible, reducible, st.data())
def test_reduced_is_the_same_function_as_an_antichain(f, g, data):
    r = f.reduced()
    corners = [
        dict(zip(f.vars, xs))
        for xs in itertools.product((Fraction(0), INF), repeat=len(f.vars))
    ]
    samples = data.draw(
        st.lists(st.fixed_dictionaries({v: rationals for v in f.vars}), max_size=5)
    )
    for point in corners + samples:
        assert r.eval(point) == f.eval(point), point
    # a sub-series of f in which no monomial dominates another
    assert all(f.coeffs[d] == c for d, c in r.coeffs.items())
    for (d, c), (d2, c2) in itertools.permutations(r.coeffs.items(), 2):
        assert not (c2 <= c and d2.preceq(d)), (d2, d)
    assert r.vars == f.vars and r.reduced() is r
    # reduction commutes with min and +
    assert f.tmin(g).reduced() == f.reduced().tmin(g.reduced()).reduced()
    assert f.tmul(g).reduced() == f.reduced().tmul(g.reduced()).reduced()


def test_reduced_examples():
    chain = TropSeries(
        ("p", "p'"), {MultiDegree({"p": 1, "p'": i}): Fraction(0) for i in range(4)}
    )
    assert chain.reduced() == TropSeries.parameter("p")
    assert chain.reduced().vars == ("p", "p'")
    # incomparable monomials stay, and so does the series itself
    f = TropSeries(("a", "b"), {MultiDegree({"a": 1}): Fraction(1), MultiDegree({"b": 1}): 0})
    assert f.reduced() is f
    g = f.tmin(TropSeries.constant(Fraction(1, 2), ("a", "b")))
    assert g.reduced() == TropSeries(("a", "b"), {MultiDegree(): Fraction(1, 2), MultiDegree({"b": 1}): 0})
    assert TropSeries.empty().reduced().is_empty


@pytest.mark.parametrize(
    "a",
    [Fraction(0), Fraction(7, 3), 0, 5, 0.0, 1e308, math.inf, float("inf"), -math.inf],
)
def test_is_inf_table(a):
    assert is_inf(a) is (a == INF)


def test_public_constructors_validate():
    with pytest.raises(ValueError, match="unknown variable"):
        TropSeries(("x",), {MultiDegree({"y": 1}): 0})
    with pytest.raises(ValueError):
        MultiDegree({"x": -1})
    with pytest.raises(ValueError):
        as_trop(-1)


@given(small_series, rationals)
def test_shift(f, c):
    p = {"x": Fraction(1), "y": Fraction(2)}
    assert f.shift(c).eval(p) == trop_mul(f.eval(p), c)


# ---------------------------------------------------------------- monotone/concave


@given(small_series, finite_points, finite_points)
def test_monotone(f, p, q):
    lo = {v: min(p[v], q[v]) for v in p}
    hi = {v: max(p[v], q[v]) for v in p}
    assert f.eval(lo) <= f.eval(hi)


@given(small_series, finite_points, finite_points)
def test_midpoint_concavity(f, p, q):
    mid = {v: (p[v] + q[v]) / 2 for v in p}
    a, b = f.eval(p), f.eval(q)
    if a == INF or b == INF:
        return
    assert f.eval(mid) >= (a + b) / 2


@given(small_series, finite_points, finite_points)
def test_degree_lipschitz(f, p, q):
    a, b = f.eval(p), f.eval(q)
    if a == INF or b == INF:
        return
    gap = max(abs(p[v] - q[v]) for v in p)
    assert trop_dist(a, b) <= f.degree * gap


@given(small_series, st.lists(finite_points, min_size=1, max_size=5))
def test_scott_chain_surrogate(f, chain):
    # pointwise-increasing finite chain: eval at the top equals the inf of
    # the tail of evals (monotone), i.e. continuity at the top element
    chain = sorted(chain, key=lambda p: (p["x"], p["y"]))
    glue = []
    cur = {"x": Fraction(0), "y": Fraction(0)}
    for p in chain:
        cur = {v: max(cur[v], p[v]) for v in cur}
        glue.append(dict(cur))
    vals = [f.eval(p) for p in glue]
    assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))
    # the top of the chain is its supremum, and eval attains the sup of
    # the value chain there
    assert f.eval(glue[-1]) == max(vals)


# ---------------------------------------------------------------- truncation


def test_epsilon_support_examples():
    f = geometric(20)
    assert {d.get("x") for d in f.epsilon_support(Fraction(1, 4))} == {0, 1}
    g = TropSeries.monomial({"x": 3}, Fraction(7))
    assert g.epsilon_support(Fraction(1)) == {MultiDegree({"x": 3})}
    h = TropSeries(
        ("x",), {MultiDegree(): Fraction(1), MultiDegree({"x": 1}): Fraction(5)}
    )
    assert {d.get("x") for d in h.epsilon_support(Fraction(1))} == {0}


def test_truncate_examples():
    f = geometric(20)
    t = f.truncate(Fraction(1, 4))
    assert t == TropSeries(
        ("x",),
        {MultiDegree(): Fraction(1), MultiDegree({"x": 1}): Fraction(1, 2)},
    )
    g = TropSeries.monomial({"x": 3}, Fraction(7))
    assert g.truncate(Fraction(2)) == g
    assert TropSeries.empty(("x",)).truncate(Fraction(1)).is_empty


def test_truncate_agreement_on_shifted_box():
    f = geometric(20)
    t = f.truncate(Fraction(1, 4))
    for k in range(200):
        x = Fraction(1, 4) + Fraction(k, 80)  # [1/4, 11/4]
        assert f.eval({"x": x}) == t.eval({"x": x})


def test_bad_epsilon():
    for eps in (Fraction(0), INF):
        with pytest.raises(BadEpsilon):
            geometric(3).truncate(eps)


@given(small_series, st.fractions(min_value=Fraction(1, 100), max_value=5))
@settings(max_examples=60)
def test_truncation_sound_on_box(f, eps):
    t = f.truncate(eps)
    for k in range(10):
        p = {
            "x": eps + Fraction(k, 3),
            "y": eps + Fraction(7 * k % 11, 4),
        }
        assert f.eval(p) == t.eval(p)


# ---------------------------------------------------------------- roots


def exact_root_oracle(f):
    """The tropical roots read off the pairwise crossings: each pair of
    monomials (i, c_i), (j, c_j) gives a candidate x = (c_i - c_j)/(j - i),
    which is a root iff at least two monomials attain the min there; its
    multiplicity is the largest attaining degree minus the smallest."""
    mons = [(d.total, c) for d, c in f.coeffs.items()]
    roots = {}
    for (i, ci), (j, cj) in itertools.combinations(mons, 2):
        x = (ci - cj) / (j - i)
        vals = [(c + d * x, d) for d, c in mons]
        best = min(v for v, _ in vals)
        attaining = [d for v, d in vals if v == best]
        if len(attaining) >= 2:
            roots[x] = max(attaining) - min(attaining)
    return sorted(roots.items(), reverse=True)


def test_roots_geometric():
    roots = univariate_roots(geometric(4))
    assert roots == [
        (Fraction(1, 2), 1),
        (Fraction(1, 4), 1),
        (Fraction(1, 8), 1),
        (Fraction(1, 16), 1),
    ]


def test_roots_edge_cases():
    assert univariate_roots(TropSeries.monomial({"x": 2}, Fraction(3))) == []
    f = TropSeries(
        ("x",), {MultiDegree({"x": 1}): Fraction(1), MultiDegree(): Fraction(3)}
    )
    assert univariate_roots(f) == [(Fraction(2), 1)]
    with pytest.raises(EmptySeries):
        univariate_roots(TropSeries.empty(("x",)))


@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.fractions(min_value=0, max_value=4)),
        min_size=1,
        max_size=6,
    )
)
# two roots 1/1000 apart, which a grid of step 1/1000 cannot separate
@example([(1, Fraction(3096101, 774138)), (4, Fraction(1)), (5, Fraction(1, 4005))])
# three monomials attaining the min at x = 1: one root of multiplicity 2
@example([(0, Fraction(2)), (1, Fraction(1)), (2, Fraction(0))])
@settings(max_examples=50)
def test_roots_against_exact_oracle(mons):
    f = TropSeries(("x",), [(MultiDegree({"x": i}), c) for i, c in mons])
    assert univariate_roots(f) == exact_root_oracle(f)


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.fractions(min_value=0, max_value=3)),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=50)
def test_roots_reconstruct_eval(mons):
    # the lower hull determines the function on (0, inf): rebuild the
    # piecewise-linear value from hull segments using the root list
    f = TropSeries(("x",), [(MultiDegree({"x": i}), c) for i, c in mons])
    roots = univariate_roots(f)
    pts = dict(sorted((d.total, c) for d, c in f.coeffs.items()))
    degs = sorted(pts)
    for k in range(100):
        x = Fraction(k + 1, 25)
        # slope active at x: start from the lowest hull degree, climb one
        # hull edge (multiplicity many degrees) per root >= x
        slope = degs[0]
        for r, m in roots:
            if x <= r:
                slope += m
        # the hull vertex with that degree is on the hull, so its line
        # attains the min at x
        direct = min(c + i * x for i, c in pts.items())
        assert f.eval({"x": x}) == direct
        assert pts[slope] + slope * x == direct


# ---------------------------------------------------------------- tropicalize


def test_tropicalize_trivial():
    p = {
        MultiDegree({"x": 2}): Fraction(1),
        MultiDegree({"x": 1, "y": 2}): Fraction(1),
        MultiDegree({"y": 3}): Fraction(1),
    }
    f = tropicalize(p, TRIVIAL)
    assert f == TropSeries(
        ("x", "y"), {d: Fraction(0) for d in p}
    )


def trop_close(a, b, tol=FLOAT_TOL):
    """Equality, exact on rationals, within tol if a float is involved."""
    if is_inf(a) or is_inf(b):
        return is_inf(a) and is_inf(b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return abs(float(a) - float(b)) <= tol


def test_tropicalize_neg_log():
    q = {
        MultiDegree({"a": 2}): Fraction(1),
        MultiDegree({"a": 2, "b": 1}): Fraction(1),
        MultiDegree({"b": 3}): Fraction(1),
    }
    f = tropicalize(q, NEG_LOG)
    assert set(f.coeffs) == set(q)
    assert all(c == 0.0 for c in f.coeffs.values())
    g = tropicalize({MultiDegree({"a": 1}): Fraction(1, 2)}, NEG_LOG)
    assert trop_close(g.coeffs[MultiDegree({"a": 1})], -math.log(0.5))


def test_tropicalize_zero_poly():
    assert tropicalize({MultiDegree({"x": 1}): Fraction(0)}, TRIVIAL).is_empty


# ---------------------------------------------------------------- derivative


def brute_deriv(f, x, y):
    best = INF
    for deg, c in f.coeffs.items():
        if deg.total < 1:
            continue
        for a, _ in deg.items():
            rest = deg.remove_one(a)
            v = c
            if x[a] == INF:
                continue
            v = v + x[a]
            dead = False
            for var, n in rest.items():
                if y[var] == INF:
                    dead = True
                    break
                v = v + n * y[var]
            if not dead:
                best = min(best, v)
    return best


def test_deriv_examples():
    f = TropSeries.monomial({"x": 2}, Fraction(0))
    assert deriv_eval(f, {"x": Fraction(3)}, {"x": Fraction(5)}) == 8
    g = TropSeries.constant(Fraction(4), ("x",))
    assert deriv_eval(g, {"x": Fraction(0)}, {"x": Fraction(0)}) == INF
    h = TropSeries(
        ("x",),
        {MultiDegree({"x": 1}): Fraction(0), MultiDegree({"x": 2}): Fraction(0)},
    )
    assert deriv_eval(h, {"x": Fraction(0)}, {"x": Fraction(10)}) == 0


@given(small_series, points, points)
def test_deriv_matches_bruteforce(f, x, y):
    assert deriv_eval(f, x, y) == brute_deriv(f, x, y)


@given(small_series, finite_points, finite_points, rationals)
def test_deriv_tropically_linear_in_x(f, x, y, c):
    shifted = {v: x[v] + c for v in x}
    base = deriv_eval(f, x, y)
    if base == INF:
        assert deriv_eval(f, shifted, y) == INF
    else:
        assert deriv_eval(f, shifted, y) == base + c


# ---------------------------------------------------------------- serialization


@given(small_series)
def test_json_roundtrip(f):
    assert TropSeries.from_json_dict(f.to_json_dict()) == f


def test_plot_rows():
    rows = plot_rows(geometric(4), steps=10)
    assert len(rows) == 11
    assert rows[-1] == (Fraction(1), Fraction(1))
