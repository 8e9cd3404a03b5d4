"""Independent oracles for the benchmark's checks.

Nothing here imports tropcalc.  Each oracle recomputes an answer from the
definitions (leaf enumeration of a choice tree, the relational semantics of
Church numerals by enumerating derivations, closed forms of eps-truncated
loops, the exact maximum-likelihood optimum) or tests a property the method
must have (discreteness, expanded >= direct, sampled ratio <= K, values
non-increasing in the fixpoint cap).

A series is a dict mapping a degree (a sorted tuple of (variable, exponent)
pairs with positive exponents) to its Fraction coefficient; the empty dict
is the constant-infinity series.  A term is a small tuple AST:

  ("num", n)            numeral (True = 0, False = 1)
  ("w", weight, M)      scalar: weight is a Fraction or a parameter name
  ("sum", (M, ...))     formal sum
  ("choice", p, L, R)   binary choice, left charges p, right charges p'
  ("loop", B)           Y (\\g:Nat. B), where ("g",) in B is the recursive call
  ("g",)                the recursive call inside a loop body
  ("x",), ("pred", M), ("succ", M)   first-order fixpoint bodies
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

INF = math.inf


class Mismatch(AssertionError):
    """An output disagrees with its oracle."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


# ------------------------------------------------------------------ series


def deg_add(d1: tuple, d2: tuple) -> tuple:
    acc = dict(d1)
    for v, n in d2:
        acc[v] = acc.get(v, 0) + n
    return tuple(sorted(acc.items()))


def preceq(d1: tuple, d2: tuple) -> bool:
    o = dict(d2)
    return all(n <= o.get(v, 0) for v, n in d1)


def smin(*series: dict) -> dict:
    out: dict = {}
    for s in series:
        for d, c in s.items():
            if d not in out or c < out[d]:
                out[d] = c
    return out


def smul(s1: dict, s2: dict) -> dict:
    return smin(*({deg_add(d1, d2): c1 + c2} for d1, c1 in s1.items() for d2, c2 in s2.items()))


def weight_mono(w) -> dict:
    """The one-monomial series of a scalar weight."""
    if isinstance(w, str):
        return {((w, 1),): Fraction(0)}
    return {(): Fraction(w)}


ZERO = {(): Fraction(0)}


def truncate(s: dict, eps: Fraction) -> dict:
    """eps-truncation: drop n when some m strictly below it in the product
    order has a coefficient at most c_n + eps."""
    return {
        n: cn
        for n, cn in s.items()
        if all(m == n or not preceq(m, n) or cm > cn + eps for m, cm in s.items())
    }


def value_at(s: dict, point: dict):
    return min((c + sum(n * point[v] for v, n in d) for d, c in s.items()), default=INF)


def series_from_json(d: dict) -> dict:
    out: dict = {}
    for m in d["monomials"]:
        deg = tuple(sorted((v, int(n)) for v, n in m["deg"].items() if int(n)))
        c = m["coeff"]
        c = Fraction(c) if isinstance(c, str) else c
        expect(deg not in out, f"monomial {deg} listed twice")
        out[deg] = c
    for deg in out:
        for v, _ in deg:
            expect(v in d["vars"], f"monomial variable {v!r} missing from vars {d['vars']}")
    return out


def fmt(s: dict) -> str:
    if not s:
        return "inf"
    parts = []
    for d, c in sorted(s.items(), key=lambda kv: (sum(n for _, n in kv[0]), kv[0])):
        terms = [f"{n}{v}" if n > 1 else v for v, n in d]
        parts.append("+".join(([str(c)] if c or not terms else []) + terms))
    return "min{" + ", ".join(parts) + "}"


def expect_series(got: dict, want: dict, what: str) -> None:
    expect(got == want, f"{what}: got {fmt(got)}, expected {fmt(want)}")


# -------------------------------------------------------------- rendering


def render(t: tuple, var: str = "g") -> str:
    """pcfl source text of a tuple AST, fully parenthesised."""
    tag = t[0]
    if tag == "num":
        return {0: "True", 1: "False"}.get(t[1], str(t[1]))
    if tag == "w":
        return f"{t[1]} . ({render(t[2], var)})"
    if tag == "sum":
        return " + ".join(f"({render(s, var)})" for s in t[1])
    if tag == "choice":
        return f"({render(t[2], var)}) (+{t[1]}) ({render(t[3], var)})"
    if tag == "loop":
        return f"Y (\\{var}:Nat. {render(t[1], var)})"
    if tag in ("g", "x"):
        return var
    if tag in ("pred", "succ"):
        return f"{tag} ({render(t[1], var)})"
    raise ValueError(f"cannot render {tag!r}")


# ------------------------------------------------- operational: choice trees


def leaves(t: tuple, omega: str = ""):
    """(address, leaf) pairs of a choice tree, left to right."""
    if t[0] == "choice":
        yield from leaves(t[2], omega + "l")
        yield from leaves(t[3], omega + "r")
    else:
        yield omega, t


def path_mono(t: tuple, omega: str) -> tuple:
    """Degree of one resolution: each l charges the label, each r its primed partner."""
    acc: dict = {}
    for d in omega:
        v = t[1] if d == "l" else t[1] + "'"
        acc[v] = acc.get(v, 0) + 1
        t = t[2] if d == "l" else t[3]
    return tuple(sorted(acc.items()))


def leaf_series(leaf: tuple, target: int) -> dict:
    """Weight of reaching the target from a leaf made of scalars over a numeral."""
    acc = ZERO
    while leaf[0] == "w":
        acc = smul(acc, weight_mono(leaf[1]))
        leaf = leaf[2]
    return acc if leaf == ("num", target) else {}


def tree_outcome(t: tuple, target: int) -> dict:
    """Leaf enumeration: min over resolutions reaching the target."""
    return smin(*(smul({path_mono(t, w): Fraction(0)}, leaf_series(leaf, target)) for w, leaf in leaves(t)))


def tree_paths(t: tuple, target: int) -> list:
    """(address, degree) of the leaves that are exactly the target numeral."""
    return [(w, path_mono(t, w)) for w, leaf in leaves(t) if leaf == ("num", target)]


# -------------------------------------------- operational: generator loops


def exit_series(t: tuple, target: int) -> dict:
    """Weights of the paths through sums, scalars and loops that reach the
    target without taking a recursive call.  Every path through a loop's
    call weighs at least as much, in every degree and in the coefficient,
    as the same path with the call removed, so the eps-truncation of all
    paths equals the eps-truncation of these."""
    tag = t[0]
    if tag == "num":
        return dict(ZERO) if t[1] == target else {}
    if tag == "w":
        return smul(weight_mono(t[1]), exit_series(t[2], target))
    if tag == "sum":
        return smin(*(exit_series(s, target) for s in t[1]))
    if tag == "loop":
        return exit_series(t[1], target)
    if tag == "g":
        return {}
    raise ValueError(f"no exit weights for {tag!r}")


# ----------------------------------------------- recursive: Y (\x:Nat. B)


def _body_paths(t: tuple, acc: dict):
    """(weight, leaf) of each resolution of a fixpoint body's choices and scalars."""
    tag = t[0]
    if tag == "choice":
        yield from _body_paths(t[2], smul(acc, weight_mono(t[1])))
        yield from _body_paths(t[3], smul(acc, weight_mono(t[1] + "'")))
    elif tag == "w":
        yield from _body_paths(t[2], smul(acc, weight_mono(t[1])))
    else:
        yield acc, t


def fix_witnesses(body: tuple, target: int) -> list:
    """(weight, rounds) of the cheapest way through each exit of
    Y (\\x:Nat. body) to the target.

    The body has exactly one recursive leaf (x, pred x or succ x); every
    other leaf is a numeral.  Taking the recursive leaf n times and then
    exit c reaches c, max(c - n, 0) or c + n.  The fewest rounds that reach
    the target dominate every larger number of rounds.
    """
    exits, rec = [], []
    for w, leaf in _body_paths(body, ZERO):
        (exits if leaf[0] == "num" else rec).append((w, leaf))
    expect(len(rec) == 1, "fixpoint body needs exactly one recursive leaf")
    w_rec, kind = rec[0][0], rec[0][1][0]
    out = []
    for w, (_, c) in exits:
        if kind == "x":
            n = 0 if c == target else None
        elif kind == "pred":
            n = (c - target if target > 0 else c) if target <= c else None
        else:
            n = target - c if target >= c else None
        if n is not None:
            for _ in range(n):
                w = smul(w, w_rec)
            out.append((w, n))
    return out


def fix_closed_form(body: tuple, target: int, eps: Fraction) -> dict:
    """eps-truncated weight of Y (\\x:Nat. body) reaching the target."""
    return truncate(smin(*(w for w, _ in fix_witnesses(body, target))), eps)


def expect_non_increasing(values: list, what: str) -> None:
    """values: (cap, value) pairs; the value must not grow with the cap."""
    values = sorted(values)
    for (c1, v1), (c2, v2) in zip(values, values[1:]):
        expect(v2 <= v1, f"{what}: value {v2} at cap {c2} exceeds {v1} at cap {c1}")


# ----------------------------------------------------------------- MLE


def mle_optimum(s: dict, logp: str, log1mp: str):
    """Exact optimum of p -> min over monomials of c + i(-log p) + j(-log(1-p)),
    where i is the exponent of the variable logp and j that of log1mp.

    Each monomial is minimised on its own, at p = i/(i+j) when both
    exponents are positive, and towards p = 1 (j = 0) or p = 0 (i = 0)
    otherwise.  Returns (value, wheres): the optimum and every place that
    attains it, each a p in (0,1), "right", "left" or "flat".
    """
    cands = []
    for d, c in s.items():
        dd = dict(d)
        expect(set(dd) <= {logp, log1mp}, f"monomial {d} outside {logp}, {log1mp}")
        i, j = dd.get(logp, 0), dd.get(log1mp, 0)
        if i and j:
            cands.append((float(c) + i * math.log((i + j) / i) + j * math.log((i + j) / j), i / (i + j)))
        else:
            cands.append((float(c), "right" if i else "left" if j else "flat"))
    value = min((v for v, _ in cands), default=INF)
    return value, [w for v, w in cands if v <= value + 1e-12]


def mle_objective(s: dict, p: float, logp: str, log1mp: str) -> float:
    point = {logp: -math.log(p), log1mp: -math.log(1.0 - p)}
    return min(float(c) + sum(n * point[v] for v, n in d) for d, c in s.items())


def mle_margin(s: dict, logp: str, log1mp: str) -> float:
    """Gap between the best interior and the best one-sided value; the
    benchmark only keeps trees where this is clear of the search grid."""
    interior, boundary = INF, INF
    for d, c in s.items():
        value, (where,) = mle_optimum({d: c}, logp, log1mp)
        if isinstance(where, float):
            interior = min(interior, value)
        else:
            boundary = min(boundary, value)
    return abs(interior - boundary)


def check_mle(s: dict, p: float, logp: str, log1mp: str, tol: float = 1e-6) -> None:
    """An interior optimum must be met to tol; a one-sided one only fixes
    the side of p."""
    value, wheres = mle_optimum(s, logp, log1mp)
    expect(0.0 < p < 1.0, f"p* = {p} outside (0, 1)")
    if "flat" in wheres:
        return
    if any(isinstance(w, float) for w in wheres):
        got = mle_objective(s, p, logp, log1mp)
        expect(abs(got - value) <= tol, f"objective {got} at p* = {p}, optimum {value} at {wheres}")
    else:
        side = "right" if p > 0.5 else "left"
        expect(side in wheres, f"optimum lies towards {wheres}, got p* = {p}")


# ------------------------------------------------------------ denotations


def church_support(n: int, arrow_cap: int, fbag_cap: int, xbag_cap: int) -> set:
    """Points of \\f. \\x. f^n x in the relational model, by derivation.

    A point is (sorted tuple of j, m): the bag of f-points [*^j] => * and
    the number m of copies of x.  The body f^n x at * either is x (n = 0,
    one copy of x) or uses one f-point [*^j] => * fed by j independent
    derivations of f^(n-1) x.  Sizes only grow, so derivations beyond the
    caps are dropped as they appear.
    """
    level = {((), 1)}
    for _ in range(n):
        nxt = set()
        for j in range(arrow_cap + 1):
            for parts in itertools.combinations_with_replacement(sorted(level), j):
                fs = tuple(sorted((j,) + tuple(x for f, _ in parts for x in f)))
                m = sum(m for _, m in parts)
                if len(fs) <= fbag_cap and m <= xbag_cap:
                    nxt.add((fs, m))
        level = nxt
    return level


def church_caps(dialect: str, n: int, kmax: int, grade: int):
    """(arrow cap of f-points, cap on the f-bag, cap on the x-bag).

    In stlc every arrow has the cap kmax.  In bstlc, f : !g o -o o is used
    1 + g + ... + g^(n-1) times and x is used g^n times by f^n x, and each
    binder's arrow takes its usage as its grade.
    """
    if dialect == "stlc":
        return kmax, kmax, kmax
    return grade, sum(grade**i for i in range(n)), grade**n


def _o_point(p) -> int:
    """Number of * in the bag of an o -> o point {"bag": [*...], "pt": *}."""
    expect(isinstance(p, dict) and p["pt"] == "*" and all(q == "*" for q in p["bag"]), f"not an o -> o point: {p}")
    return len(p["bag"])


def church_points_from_json(payload: dict) -> set:
    out = set()
    for e in payload["entries"]:
        expect(e["mset"] == [], f"closed term with a context bag {e['mset']}")
        pt = e["point"]
        fs = tuple(sorted(_o_point(q) for q in pt["bag"]))
        out.add((fs, _o_point(pt["pt"])))
    return out


def expect_discrete(payload: dict) -> None:
    """Every entry of an stlc/bstlc denotation is the constant 0."""
    for e in payload["entries"]:
        expect(series_from_json(e["series"]) == ZERO, f"entry {e['point']} is {e['series']}, not 0")


# ------------------------------------------------------------ Taylor, Lipschitz


def expect_taylor_gap(direct, expanded) -> None:
    """The syntactic expansion only keeps finitely many bags, so its value
    can only lie above the direct interpretation."""
    expect(expanded >= direct, f"expanded value {expanded} below direct value {direct}")


def expect_lipschitz(ratio, K) -> None:
    expect(ratio <= K, f"sampled Lipschitz ratio {ratio} exceeds K = {K}")
