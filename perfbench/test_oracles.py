"""Each benchmark oracle reproduces the paper's worked values and rejects a
deliberately corrupted output.

    PYTHONPATH=src python -m pytest -q perfbench/test_oracles.py
"""

import json
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracles as O  # noqa: E402
from workloads import cli  # noqa: E402

STAR = "*"
EPS = Fraction(1, 100)

# terms/coin.lam, terms/gen.lam and terms/loop.lam as tuple ASTs
COIN = ("choice", "p",
        ("choice", "p", ("num", 0), ("num", 1)),
        ("choice", "p", ("choice", "p", ("num", 0), ("num", 1)), ("choice", "p", ("num", 1), ("num", 0))))
GEN_LOOP = ("loop", ("w", "b", ("sum", (("w", "a", ("num", 0)), ("w", "a", ("g",))))))
GEN = ("sum", (("w", "a", GEN_LOOP),
               ("w", "a", ("sum", (("w", "a", ("sum", (("w", "a", ("num", 0)), ("w", "a", ("num", 0))))),
                                   ("w", "a", GEN_LOOP))))))
LOOP_BODY = ("choice", "p", ("num", 0), ("x",))


def repo_file(name):
    return os.path.join(os.path.dirname(HERE), name)


def run_json(argv):
    return json.loads(cli(argv))


def mono(**degrees):
    return {tuple(sorted(degrees.items())): Fraction(0)}


def corrupt(series_json):
    """Raise the first coefficient by one."""
    bad = json.loads(json.dumps(series_json))
    c = Fraction(bad["monomials"][0]["coeff"]) + 1
    bad["monomials"][0]["coeff"] = str(c)
    return bad


def test_church_support_oracle():
    # Church 1 at kmax 1: f is used at [] => * (x dropped) or at [*] => * (x once)
    assert O.church_support(1, 1, 1, 1) == {((0,), 0), ((1,), 1)}
    payload = run_json(["interpret", "--term", "\\f:o->o. \\x:o. f (f x)", "--kmax", "2"])
    want = O.church_support(2, *O.church_caps("stlc", 2, 2, 1))
    assert O.church_points_from_json(payload) == want
    payload["entries"].pop()
    assert O.church_points_from_json(payload) != want


def test_discreteness_oracle():
    payload = run_json(["interpret", "--term", "\\z:o->o->o. \\x:o. z x x", "--kmax", "2"])
    O.expect_discrete(payload)
    payload["entries"][0]["series"] = corrupt(payload["entries"][0]["series"])
    with pytest.raises(O.Mismatch):
        O.expect_discrete(payload)


def test_taylor_gap_oracle():
    from tropcalc import taylor, terms
    from tropcalc.model import Caps

    ctx = [("x", terms.O), ("z", terms.Arrow(terms.O, terms.Arrow(terms.O, terms.O)))]
    point = {("@", 0, STAR): Fraction(1), ("@", 1, ("=>", (STAR,), ("=>", (STAR,), STAR))): Fraction(0)}
    gap = taylor.taylor_gap(terms.parse("z x x"), point, STAR, 2, ctx, Caps(k_max=3), max_bag=3)
    assert gap == (2, 2)
    O.expect_taylor_gap(*gap)
    with pytest.raises(O.Mismatch):
        O.expect_taylor_gap(Fraction(3), Fraction(2))


def test_lipschitz_oracle():
    from tropcalc import taylor, terms

    ctx = [("x", terms.O), ("z", terms.Arrow(terms.O, terms.Arrow(terms.O, terms.O)))]
    zp = ("=>", (STAR, STAR), ("=>", (STAR,), STAR))
    t = taylor.RBagApp(taylor.RBagApp(taylor.RVar("z"), (taylor.RVar("x"),) * 2), (taylor.RVar("x"),))
    fn = taylor.matrix_fn(taylor.interpret_resource(t, ctx), STAR)
    center = {("@", 0, STAR): Fraction(1), ("@", 1, zp): Fraction(5)}
    K = taylor.lipschitz_estimate(fn, center, Fraction(1))
    assert K == 20
    rng = random.Random(7)
    ratio = Fraction(0)
    for _ in range(60):
        u, v = ({c: x + Fraction(rng.randint(-8, 8), 8) for c, x in center.items()} for _ in range(2))
        gap = max(abs(u[c] - v[c]) for c in u)
        if gap:
            ratio = max(ratio, abs(fn(u) - fn(v)) / gap)
    assert ratio > 1
    O.expect_lipschitz(ratio, K)
    with pytest.raises(O.Mismatch):
        O.expect_lipschitz(ratio, 1)


def test_leaf_enumeration_oracle():
    want = O.smin(mono(p=2), mono(p=2, **{"p'": 1}), mono(**{"p'": 3}))
    assert O.tree_outcome(COIN, 0) == want
    payload = run_json(["bestcase", repo_file("terms/coin.lam"), "--target", "0", "--depth", "20"])
    O.expect_series(O.series_from_json(payload["series"]), want, "best case")
    assert [p["omega"] for p in payload["paths"]] == [w for w, _ in O.tree_paths(COIN, 0)]
    with pytest.raises(O.Mismatch):
        O.expect_series(O.series_from_json(corrupt(payload["series"])), want, "best case")


def test_generator_closed_form_oracle():
    want = O.smin(mono(a=2, b=1), mono(a=3))
    assert O.truncate(O.exit_series(GEN, 0), EPS) == want
    payload = run_json(["bestcase", repo_file("terms/gen.lam"), "--target", "0", "--depth", "60", "--eps", "1/100"])
    O.expect_series(O.series_from_json(payload["series"]), want, "truncated best case")
    with pytest.raises(O.Mismatch):
        O.expect_series(O.series_from_json(corrupt(payload["series"])), want, "truncated best case")


def test_mle_oracle():
    s = mono(a=2, b=1)
    value, wheres = O.mle_optimum(s, "a", "b")
    assert wheres == [pytest.approx(2 / 3)]
    payload = run_json(["mle", "--series", "2a+b"])
    O.check_mle(s, payload["p"], "a", "b")
    with pytest.raises(O.Mismatch):
        O.check_mle(s, 0.5, "a", "b")
    # one-sided: a alone is best towards p = 1
    O.check_mle(mono(a=1), 0.99, "a", "b")
    with pytest.raises(O.Mismatch):
        O.check_mle(mono(a=1), 0.2, "a", "b")


def test_fix_closed_form_oracle():
    want = mono(p=1)
    assert O.fix_closed_form(LOOP_BODY, 0, EPS) == want
    payload = run_json(["adequacy", repo_file("terms/loop.lam"), "--target", "0", "--fixmax", "16"])
    assert payload["equal"] is True
    for side in ("denotational", "operational"):
        O.expect_series(O.truncate(O.series_from_json(payload[side]), EPS), want, side)
    bad = O.truncate(O.series_from_json(corrupt(payload["denotational"])), EPS)
    with pytest.raises(O.Mismatch):
        O.expect_series(bad, want, "denotational")


def test_monotone_oracle():
    point = {"p": Fraction(1), "p'": Fraction(1)}
    vals = []
    for f in (4, 8):
        payload = run_json(["adequacy", repo_file("terms/loop.lam"), "--target", "0", "--fixmax", str(f)])
        vals.append((f, O.value_at(O.series_from_json(payload["denotational"]), point)))
    O.expect_non_increasing(vals, "loop.lam")
    with pytest.raises(O.Mismatch):
        O.expect_non_increasing([(4, Fraction(1)), (8, Fraction(2))], "corrupted")
