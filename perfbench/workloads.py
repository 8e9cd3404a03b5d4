"""The benchmark's operations, generated from a seed.

Each workload is a list of operation classes with fixed shares.  A run of
n operations holds round(share * n) operations of each class (largest
remainder), so every seed gives the same mix; the seed draws the sizes
inside each class, the names, weights and shapes of the terms, and the
order.  An operation is one `tropcalc` command run in process through
`tropcalc.cli.main`, or one library call where the CLI has no command.
Each operation carries its own check against the oracles in `oracles.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracles as O

STAR = "*"
EPS = Fraction(1, 100)


class OpError(RuntimeError):
    """The program exited with an error or raised."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # (group, cap, value_fn): the value must not grow with the cap in a group
    monotone: Optional[tuple] = None


def cli(argv: list) -> str:
    """Run one tropcalc command in process; return its stdout."""
    from tropcalc import cli as tc_cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = tc_cli.main(argv)
    if rc != 0:
        raise OpError(f"exit {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def cli_op(label: str, argv: list, check: Callable[[dict], None], **kw) -> Op:
    return Op(label, lambda: cli(argv), lambda out: check(json.loads(out)), **kw)


def allot(classes: list, n: int) -> list:
    """Exact counts per class for n operations, by largest remainder."""
    total = sum(c[0] for c in classes)
    raw = [c[0] * n / total for c in classes]
    counts = [int(r) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: (counts[i] - raw[i], i))
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    return counts


def build(classes: list, n: int, rng: random.Random) -> list:
    """n draws over the classes; a draw makes one operation, or a list of
    operations on one input."""
    ops = []
    for (share, make), count in zip(classes, allot(classes, n)):
        for k in range(count):
            # u spreads the draws of a class evenly over its size range
            got = make(rng, (k + rng.random()) / count)
            ops.extend(got if isinstance(got, list) else [got])
    rng.shuffle(ops)
    return ops


def pick(rng: random.Random, u: float, lo: int, hi: int) -> int:
    """A size in [lo, hi] at quantile u."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


# ================================================================ denote

NAMES = ["f", "g", "h", "k", "u", "v", "w", "y", "z", "a", "b", "c", "s", "t"]


def _names(rng, n):
    return rng.sample(NAMES, n)


def church(rng, n, dialect, kmax=None, grade=1, maxbag=2):
    f, x = _names(rng, 2)
    body = x
    for _ in range(n):
        body = f"{f} ({body})"
    ty = "o->o" if dialect == "stlc" else f"!{grade} o -o o"
    src = f"\\{f}:{ty}. \\{x}:o. {body}"
    argv = ["interpret", "--dialect", dialect, "--term", src, "--maxbag", str(maxbag)]
    if kmax is not None:
        argv += ["--kmax", str(kmax)]
    want = O.church_support(n, *O.church_caps(dialect, n, kmax or 4, grade))

    def check(payload):
        O.expect_discrete(payload)
        got = O.church_points_from_json(payload)
        O.expect(got == want, f"support {sorted(got)} != relational enumeration {sorted(want)}")

    return cli_op(f"interpret {dialect} church n={n} k={kmax} g={grade}", argv, check)


def combinator(rng, shape, dialect, kmax=None, maxbag=2):
    """A closed higher-order term checked for discreteness."""
    f, g, x, y = _names(rng, 4)
    src = shape.format(f=f, g=g, x=x, y=y)
    argv = ["interpret", "--dialect", dialect, "--term", src, "--maxbag", str(maxbag)]
    if kmax is not None:
        argv += ["--kmax", str(kmax)]

    def check(payload):
        O.expect_discrete(payload)
        O.expect(len(payload["entries"]) > 0, "empty denotation")

    return cli_op(f"interpret {dialect} {shape[:24]} k={kmax}", argv, check)


COMPOSE = "\\{f}:o->o. \\{g}:o->o. \\{x}:o. {f} ({g} {x})"
FLIP = "\\{f}:o->o->o. \\{x}:o. \\{y}:o. {f} {y} {x}"
DUP = "\\{f}:o->o->o. \\{x}:o. {f} {x} {x}"
APPLY_ID = "\\{f}:(o->o)->o. {f} (\\{x}:o. {x})"
KCOMB = "\\{x}:o. \\{y}:o. {x}"
B_COMPOSE_12 = "\\{f}:!1 o -o o. \\{g}:!2 o -o o. \\{x}:o. {f} ({g} {x})"
B_COMPOSE_22 = "\\{f}:!2 o -o o. \\{g}:!2 o -o o. \\{x}:o. {f} ({g} {x})"
B_DUP = "\\{f}:!2 o -o !1 o -o o. \\{x}:o. {f} {x} {x}"
SMALL = [KCOMB, APPLY_ID, B_COMPOSE_12, B_DUP]
SMALL_DIALECT = [("stlc", 3), ("stlc", 2), ("bstlc",), ("bstlc",)]


def _rat(rng, lo=0, hi=3):
    return Fraction(rng.randint(lo * 4, hi * 4), 4)


def taylor_gap_op(rng, src, degree, kmax, max_bag, n_fun_points):
    """taylor_gap of z x x or f (f x) at a random point of its context
    whose support holds x and n_fun_points points of the function."""
    from tropcalc import taylor, terms
    from tropcalc.model import Caps

    x = ("@", 0, STAR)
    if src == "z x x":
        ctx = [("x", terms.O), ("z", terms.Arrow(terms.O, terms.Arrow(terms.O, terms.O)))]
        zs = [("=>", (STAR,), ("=>", (STAR,), STAR)), ("=>", (STAR, STAR), ("=>", (), STAR))]
    else:
        ctx = [("x", terms.O), ("f", terms.Arrow(terms.O, terms.O))]
        zs = [("=>", (STAR,), STAR), ("=>", (), STAR)]
    point = {x: _rat(rng, 0, 2)}
    for z in zs[:n_fun_points]:
        point[("@", 1, z)] = _rat(rng)

    def run():
        return taylor.taylor_gap(terms.parse(src), point, STAR, degree, ctx, Caps(k_max=kmax), max_bag=max_bag)

    def check(res):
        O.expect_taylor_gap(*res)

    return Op(f"taylor_gap {src} deg={degree} k={kmax} bag={max_bag}", run, check)


def lipschitz_op(rng, kind, kmax, max_bag, samples):
    """K from lipschitz_estimate against the ratio sampled on the same ball."""
    from tropcalc import model, taylor, terms
    from tropcalc.model import Caps

    zt = terms.Arrow(terms.O, terms.Arrow(terms.O, terms.O))
    ctx = [("x", terms.O), ("z", zt)]
    if kind == "resource":
        zp = ("=>", (STAR, STAR), ("=>", (STAR,), STAR))
    else:
        zp = ("=>", (STAR,), ("=>", (STAR,), STAR))
    coords = [("@", 0, STAR), ("@", 1, zp)]
    c = Fraction(rng.randint(6, 12), 4)
    delta = Fraction(rng.randint(2, 4), 4)
    seed = rng.randint(0, 10**6)

    def run():
        if kind == "resource":
            t = taylor.RBagApp(taylor.RBagApp(taylor.RVar("z"), (taylor.RVar("x"),) * 2), (taylor.RVar("x"),))
            m = taylor.interpret_resource(t, ctx, Caps(k_max=kmax))
        else:
            m = model.interpret(terms.parse("z x x"), ctx, "stlc", Caps(k_max=kmax))
        fn = taylor.matrix_fn(m, STAR, max_bag=max_bag)
        K = taylor.lipschitz_estimate(fn, {v: c for v in coords}, delta)
        emp = taylor.empirical_lipschitz(fn, c - delta, c + delta, samples, seed, vars=coords)
        return K, emp

    def check(res):
        K, emp = res
        O.expect(0 < K < O.INF, f"K = {K} is not a finite positive constant")
        O.expect_lipschitz(emp, K)

    return Op(f"lipschitz {kind} k={kmax} bag={max_bag} n={samples}", run, check)


# Shares are set so that the median and p90 each fall inside a dense
# cluster of operations of about the same cost, never on a gap between
# two cost classes; ranks are given for a 100-operation list.
DENOTE = [
    # ranks 1-40, below 0.07 s: graded and small-cap numerals, tiny
    # combinators, Lipschitz estimates, Taylor gaps of f x and f (f x)
    (10, lambda rng, u: church(rng, pick(rng, u, 2, 6), "bstlc", grade=1)),
    (8, lambda rng, u: church(rng, pick(rng, u, 1, 4), "stlc", kmax=2)),
    (7, lambda rng, u: combinator(rng, SMALL[pick(rng, u, 0, 3)], *SMALL_DIALECT[pick(rng, u, 0, 3)])),
    (7, lambda rng, u: lipschitz_op(rng, "resource" if u < 0.5 else "term", 3, 4, pick(rng, u, 20, 120))),
    (5, lambda rng, u: taylor_gap_op(rng, "f x", pick(rng, u, 1, 3), 3, 3, 2)),
    (3, lambda rng, u: taylor_gap_op(rng, "f (f x)", 1, 3, 3, 2)),
    # ranks 41-60, about 0.1 s, the median: dup at kmax 2, a 7-fold graded
    # numeral, the Taylor gap of f (f x) at degree 2
    (12, lambda rng, u: combinator(rng, DUP, "stlc", kmax=2)),
    (5, lambda rng, u: church(rng, 7, "bstlc", grade=1)),
    (3, lambda rng, u: taylor_gap_op(rng, "f (f x)", 2, 3, 3, 2)),
    # ranks 61-82, 0.15-0.4 s: wider graded numerals, z x x Taylor gaps
    (8, lambda rng, u: church(rng, 2, "bstlc", grade=2, maxbag=pick(rng, u, 1, 3))),
    (4, lambda rng, u: church(rng, 8, "bstlc", grade=1)),
    (10, lambda rng, u: taylor_gap_op(rng, "z x x", 1 + (u >= 0.5), 4, 4, 1)),
    # ranks 83-95, 0.45-0.65 s, p90: kmax 3 identity numeral, compose,
    # graded compose, Taylor gap at degree 3
    (5, lambda rng, u: church(rng, 1, "stlc", kmax=3)),
    (4, lambda rng, u: combinator(rng, COMPOSE, "stlc", kmax=2)),
    (3, lambda rng, u: combinator(rng, B_COMPOSE_22, "bstlc")),
    (1, lambda rng, u: taylor_gap_op(rng, "f (f x)", 3, 3, 3, 2)),
    # ranks 96-100, 0.8-2 s: one each
    (1, lambda rng, u: combinator(rng, FLIP, "stlc", kmax=2)),
    (1, lambda rng, u: church(rng, 2, "stlc", kmax=3)),
    (1, lambda rng, u: church(rng, 3, "stlc", kmax=3)),
    (1, lambda rng, u: taylor_gap_op(rng, "z x x", 2, 4, 4, 2)),
    (1, lambda rng, u: taylor_gap_op(rng, "z x x", 2, 4, None, 1)),
]


def denote_warmup(rng):
    return [
        church(rng, 2, "bstlc", grade=1),
        church(rng, 2, "stlc", kmax=2),
        combinator(rng, KCOMB, "stlc", kmax=2),
        taylor_gap_op(rng, "f x", 1, 3, 3, 1),
        lipschitz_op(rng, "term", 2, 3, 5),
    ]


# ============================================================ operational


def random_tree(rng, n_leaves, height, labels, leaf):
    """A choice tree with exactly n_leaves leaves and height <= height,
    grown by splitting random shallow leaves."""
    slots = [("", 0)]  # (address, depth) of the current leaves
    while len(slots) < n_leaves:
        open_ = [i for i, (_, d) in enumerate(slots) if d < height]
        i = rng.choice(open_)
        a, d = slots.pop(i)
        slots[i:i] = [(a + "l", d + 1), (a + "r", d + 1)]
    leaves = {a for a, _ in slots}

    def grow(addr):
        if addr in leaves:
            return leaf(rng)
        return ("choice", rng.choice(labels), grow(addr + "l"), grow(addr + "r"))

    return grow("")


def _leaf(weights):
    def leaf(rng):
        base = ("num", rng.randint(0, 1))
        w = rng.choice(weights)
        return base if w is None else ("w", w, base)

    return leaf


def bestcase_tree(rng, n_leaves, height):
    target = rng.randint(0, 1)
    t = random_tree(rng, n_leaves, height, ["p", "q", "r"], _leaf([None] * 6 + [Fraction(1, 2), Fraction(2), "a"]))
    src = O.render(t)
    argv = ["bestcase", "--term", src, "--target", str(target), "--depth", str(3 * height + 6)]
    want = O.tree_outcome(t, target)
    want_paths = O.tree_paths(t, target)

    def check(payload):
        O.expect_series(O.series_from_json(payload["series"]), want, "best case")
        got = [(p["omega"], tuple(sorted(O.series_from_json(p["monomial"]).keys()))) for p in payload["paths"]]
        O.expect(got == [(w, (d,)) for w, d in want_paths], "paths differ from the leaf enumeration")

    return cli_op(f"bestcase tree leaves={n_leaves} h={height}", argv, check)


def mle_tree(rng, n_leaves, height):
    """A single-bias tree whose optimum is clear of the search grid.

    Trees where every path to the target turns right are redrawn: `mle`
    then reads the lone variable p' as -log p and answers on the wrong side
    (see CHANGES.md), which would fail on some seeds only.
    """
    while True:
        target = rng.randint(0, 1)
        t = random_tree(rng, n_leaves, height, ["p"], _leaf([None] * 5 + [Fraction(1, 2), Fraction(1)]))
        want = O.tree_outcome(t, target)
        turns_left = any(v == "p" for d in want for v, _ in d)
        if turns_left and O.mle_margin(want, "p", "p'") > 0.05:
            break
    argv = ["mle", "--term", O.render(t), "--target", str(target)]

    def check(payload):
        got = O.series_from_json(payload["series"])
        O.expect_series(got, want, "mle series")
        O.check_mle(want, payload["p"], "p", "p'")

    return cli_op(f"mle tree leaves={n_leaves} h={height}", argv, check)


GEN_WEIGHTS = ["a", "b", Fraction(1, 2), Fraction(1)]


def generator(rng, depth, false_exit):
    """gen.lam-shaped terms: a Y loop that may exit to the target at every
    round, beside a finite branch.  The loop and its recursive call carry
    a parameter, so every round adds a monomial; the seed draws the
    weights."""
    w = lambda: rng.choice(GEN_WEIGHTS)  # noqa: E731
    param = lambda: rng.choice(["a", "b"])  # noqa: E731
    exits = [("w", w(), ("num", 0))] + ([("w", w(), ("num", 1))] if false_exit else [])
    loop = ("loop", ("w", param(), ("sum", tuple(exits) + (("w", param(), ("g",)),))))
    finite = ("sum", (("w", w(), ("num", 0)), ("w", w(), ("num", rng.randint(0, 1)))))
    t = ("sum", (("w", w(), loop), ("w", w(), ("sum", (("w", w(), finite), ("w", w(), loop))))))
    argv = ["bestcase", "--term", O.render(t), "--target", "0", "--depth", str(depth), "--eps", str(EPS)]
    want = O.truncate(O.exit_series(t, 0), EPS)

    def check(payload):
        O.expect_series(O.series_from_json(payload["series"]), want, "truncated best case")

    return cli_op(f"bestcase generator depth={depth}", argv, check)


OPERATIONAL = [
    (14, lambda rng, u: bestcase_tree(rng, pick(rng, u, 8, 60), 6 + int(u * 7))),
    (8, lambda rng, u: bestcase_tree(rng, pick(rng, u, 60, 300), 9 + int(u * 4))),
    (12, lambda rng, u: mle_tree(rng, pick(rng, u, 6, 80), 6 + int(u * 7))),
    (12, lambda rng, u: generator(rng, pick(rng, u, 50, 400), u < 0.5)),
]


def operational_warmup(rng):
    return [bestcase_tree(rng, 6, 4), mle_tree(rng, 6, 4), generator(rng, 20, True)]


# ============================================================== recursive


def fixpoint(rng, kind, c, caps, nested=None):
    """Y (\\x:Nat. exit c (+p) recursive leaf), optionally beside a second
    exit `nested` under a choice on q, at each fixpoint cap in caps.

    The exit numeral, the kind of recursive leaf and the caps set the cost;
    the seed draws the weights, the order of the branches and the target.
    """
    wt = lambda: rng.choice([None, "a", "b", Fraction(1, 2), Fraction(1)])  # noqa: E731
    scale = lambda w, t: t if w is None else ("w", w, t)  # noqa: E731
    rec = ("x",) if kind == "x" else (kind, ("x",))
    leaves = [scale(wt(), ("num", c)), scale(wt(), rec)]
    rng.shuffle(leaves)
    body = ("choice", "p", *leaves)
    if nested is not None:
        leaves = [body, ("num", nested)]
        rng.shuffle(leaves)
        body = ("choice", "q", *leaves)
    target = {"x": c, "pred": rng.randint(0, c), "succ": c + rng.randint(1, 2)}[kind]
    rounds = max(n for _, n in O.fix_witnesses(body, target))
    src = f"Y (\\x:Nat. {O.render(body, 'x')})"
    depth = str(24 + 12 * rounds)
    want = O.fix_closed_form(body, target, EPS)
    point = {v: Fraction(1) for v in ("a", "b", "p", "p'", "q", "q'")}

    def check(payload):
        O.expect(payload["equal"] is True, "denotational and operational sides differ")
        for side in ("denotational", "operational"):
            O.expect_series(O.truncate(O.series_from_json(payload[side]), EPS), want, f"truncated {side}")

    def value(payload):
        return O.value_at(O.series_from_json(payload["denotational"]), point)

    return [
        cli_op(
            f"adequacy {kind} c={c}{'' if nested is None else ' nested'} fixmax={f}",
            ["adequacy", "--term", src, "--target", str(target), "--fixmax", str(f), "--depth", depth],
            check,
            monotone=((src, target), f, value),
        )
        for f in caps
    ]


def two_caps(u, lo, hi):
    """A cap at quantile u of [lo, hi] and one 8 above it, for the
    monotonicity check."""
    f = lo + round(u * (hi - lo - 8))
    return [f, f + 8]


# Ranks are for a 126-operation list; p90 falls inside the cluster of
# pred c=3 pairs at caps 44 and 52, the succ pairs form the tail above it.
RECURSIVE = [
    # ranks 1-101, 0.02-0.25 s: caps drawn over each class's range
    (10, lambda rng, u: fixpoint(rng, "x", rng.randint(0, 1), two_caps(u, 16, 128))),
    (10, lambda rng, u: fixpoint(rng, "pred", 1, two_caps(u, 16, 96))),
    (4, lambda rng, u: fixpoint(rng, "pred", 3, two_caps(u, 16, 40))),
    (8, lambda rng, u: fixpoint(rng, "x", 0, two_caps(u, 16, 64), nested=rng.randint(0, 1))),
    (6, lambda rng, u: fixpoint(rng, "pred", 2, two_caps(u, 16, 48), nested=2)),
    # ranks 102-117, about 0.3 s, p90
    (6, lambda rng, u: fixpoint(rng, "pred", 3, [44, 52])),
    # ranks 118-126, 0.4-1.2 s
    (3, lambda rng, u: fixpoint(rng, "succ", rng.randint(0, 1), [12, 16])),
]


def recursive_warmup(rng):
    return fixpoint(rng, "x", 0, [8]) + fixpoint(rng, "pred", 1, [8]) + fixpoint(rng, "succ", 0, [6])


# classes, warm-up list, operations per draw
WORKLOADS = {
    "denote": (DENOTE, denote_warmup, 1),
    "operational": (OPERATIONAL, operational_warmup, 1),
    "recursive": (RECURSIVE, recursive_warmup, 2),
}
