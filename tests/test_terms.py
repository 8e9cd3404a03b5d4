"""Parser, printer, typecheckers and translations."""

import dataclasses
import functools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropcalc.reduction import step
from tropcalc.terms import (
    ANY,
    Arrow,
    App,
    Choice,
    DApp,
    FALSE,
    Fix,
    GradeMismatch,
    GradedArrow,
    Ground,
    Ifz,
    Lam,
    NAT,
    Numeral,
    O,
    ParseError,
    Pred,
    Scalar,
    Succ,
    Sum,
    TRUE,
    Term,
    TypeMismatch,
    Var,
    ZERO_TERM,
    _map_children,
    children,
    free_vars,
    make_sum,
    parse,
    pretty,
    subst,
    translate_nondet,
    translate_prob,
    typecheck,
    typecheck_bstlc,
    typecheck_pcfl,
    typecheck_stdlc,
    typecheck_stlc,
)


# ------------------------------------------------------------------ parsing


def test_parse_identity():
    assert parse("\\x:o. x") == Lam("x", O, Var("x"))


def test_parse_left_assoc_app():
    assert parse("z x x") == App(App(Var("z"), Var("x")), Var("x"))


def test_parse_fix_choice():
    t = parse("Y (\\x:Nat. 0 (+p) x)", "pcfl")
    assert t == Fix(Lam("x", NAT, Choice("p", Numeral(0), Var("x"))))


def test_parse_scalar_and_sum():
    t = parse("2 . 3 + 1 . 5", "pcfl")
    assert t == make_sum(Scalar(Fraction(2), Numeral(3)), Scalar(Fraction(1), Numeral(5)))
    u = parse("a . x + b . y", "pcfl")
    assert u == make_sum(Scalar("a", Var("x")), Scalar("b", Var("y")))


def test_parse_dapp_zero():
    t = parse("D[f,a] 0", "stdlc")
    assert t == App(DApp(Var("f"), Var("a")), ZERO_TERM)


def test_parse_graded_type():
    t = parse("\\x:!2 o -o o. x", "bstlc")
    assert t.ann == GradedArrow(2, O, O)


def test_parse_true_false_pcf():
    assert parse("True (+p) False", "pcfl") == Choice("p", TRUE, FALSE)
    assert parse("ifz 0 1 2", "pcfl") == Ifz(Numeral(0), Numeral(1), Numeral(2))


def test_parse_errors():
    for bad in ("\\x:o", "(x", "D[x]", "x )", "1/2", "\\x:o. x x x )"):
        with pytest.raises(ParseError):
            parse(bad, "pcfl")


# ----------------------------------------------------------- print roundtrip

names = st.sampled_from(["x", "y", "z", "f", "g"])


@functools.lru_cache(maxsize=None)
def term_strategy(dialect):
    base = st.one_of(names.map(Var), st.integers(0, 3).map(Numeral) if dialect == "pcfl" else names.map(Var))
    types = st.sampled_from([O, Arrow(O, O), NAT if dialect == "pcfl" else Arrow(O, Arrow(O, O))])

    def extend(sub):
        opts = [
            st.tuples(names, types, sub).map(lambda t: Lam(t[0], t[1], t[2])),
            st.tuples(sub, sub).map(lambda t: App(*t)),
        ]
        if dialect == "pcfl":
            opts += [
                st.tuples(sub, sub).map(lambda t: make_sum(*t)),
                st.tuples(st.sampled_from(["a", "b"]), sub).map(
                    lambda t: Scalar(t[0], t[1])
                ),
                st.tuples(sub, sub).map(lambda t: Choice("p", *t)),
                sub.map(Fix),
                sub.map(Succ),
                sub.map(Pred),
                st.tuples(sub, sub, sub).map(lambda t: Ifz(*t)),
            ]
        if dialect == "stdlc":
            opts += [
                st.tuples(sub, sub).map(lambda t: DApp(*t)),
                st.tuples(sub, sub).map(lambda t: make_sum(*t)),
                st.just(ZERO_TERM),
            ]
        return st.one_of(*opts)

    return st.recursive(base, extend, max_leaves=8)


@pytest.mark.parametrize("dialect", ["stlc", "stdlc", "pcfl"])
@settings(max_examples=200)
@given(data=st.data())
def test_roundtrip(dialect, data):
    t = data.draw(term_strategy(dialect))
    assert parse(pretty(t), dialect) == t


@pytest.mark.parametrize("dialect", ["stlc", "stdlc", "pcfl"])
@settings(max_examples=200)
@given(data=st.data())
def test_cached_hash(dialect, data):
    t = data.draw(term_strategy(dialect))
    before = parse(pretty(t), dialect)  # the same term, built independently
    h = hash(t)
    assert h == hash(before) == hash(t)
    assert hash(parse(pretty(t), dialect)) == h  # after t has been hashed
    assert t == parse(pretty(t), dialect)  # hashed == never hashed
    todo = [t]
    while todo:
        u = todo.pop()
        fields = dataclasses.fields(u)
        # the generated structural hash: the hash of the tuple of the fields
        assert hash(u) == hash(tuple(getattr(u, f.name) for f in fields))
        assert all(not f.name.startswith("_") for f in fields)
        assert "_hash" not in repr(u) and str(hash(u)) not in repr(u)
        todo.extend(children(u))


def field_children(t):
    """Independent of `children`: the Term-valued dataclass fields, in order."""
    out = []
    for f in dataclasses.fields(t):
        v = getattr(t, f.name)
        out.extend(v if isinstance(v, tuple) else [v] if isinstance(v, Term) else [])
    return tuple(out)


@pytest.mark.parametrize("dialect", ["stlc", "stdlc", "pcfl"])
@settings(max_examples=200)
@given(data=st.data())
def test_child_walk(dialect, data):
    t = data.draw(term_strategy(dialect))
    v = data.draw(term_strategy(dialect))
    x = data.draw(names)
    fv = free_vars(t)
    expected = (fv - {x}) | (free_vars(v) if x in fv else set())
    assert free_vars(subst(t, x, v)) == expected
    assert _map_children(t, lambda s: s) == t
    todo = [t]
    while todo:
        u = todo.pop()
        assert children(u) == field_children(u)
        seen = []
        _map_children(u, lambda s: seen.append(s) or s)
        assert tuple(seen) == children(u)
        todo.extend(children(u))


# ------------------------------------------------------------- typecheckers


def test_stlc_examples():
    assert typecheck_stlc({}, parse("\\x:o. x")) == Arrow(O, O)
    ctx = {"x": O, "z": Arrow(O, Arrow(O, O))}
    assert typecheck_stlc(ctx, parse("z x x")) == O
    with pytest.raises(TypeMismatch):
        typecheck_stlc({}, parse("\\x:o. x x"))


def test_bstlc_examples():
    assert typecheck_bstlc([("x", 1, O)], Var("x")) == O
    # z x x uses x twice: contraction forces grade 2 on the binder
    t = parse("\\x:o. z x x", "bstlc")
    zt = GradedArrow(1, O, GradedArrow(1, O, O))
    ty = typecheck_bstlc([("z", 1, zt)], t)
    assert ty == GradedArrow(2, O, O)
    # declared grade 1 on x is exceeded
    with pytest.raises(GradeMismatch):
        typecheck_bstlc([("z", 1, zt), ("x", 1, O)], parse("z x x", "bstlc"))
    # grade-0 weakening: an unused declared variable is fine
    assert typecheck_bstlc([("y", 0, O), ("x", 1, O)], Var("x")) == O


def test_stdlc_examples():
    assert typecheck_stdlc({}, ZERO_TERM) == ANY
    ctx = {"f": Arrow(O, O), "a": O}
    assert typecheck_stdlc(ctx, parse("D[f,a]", "stdlc")) == Arrow(O, O)
    assert typecheck_stdlc(ctx, parse("D[f,a] 0", "stdlc")) == O


def test_pcfl_examples():
    assert typecheck_pcfl({}, parse("Y (\\x:Nat. 0 (+p) x)", "pcfl")) == NAT
    assert typecheck_pcfl({}, parse("2 . 3 + 1 . 5", "pcfl")) == NAT
    with pytest.raises(TypeMismatch):
        typecheck_pcfl({}, parse("succ (\\x:Nat. x)", "pcfl"))


# one row per error the stlc/stdlc/pcfl checker raises; a string is parsed
TYPE_ERRORS = [
    ("stlc", "succ x", "Succ is not part of stlc"),
    ("stdlc", Numeral(2), "Numeral is not part of stdlc"),
    ("pcfl", "D[f,x]", "DApp is not part of pcfl"),
    ("stlc", "\\x:o. y", "unbound variable y"),
    ("pcfl", "\\x. x", "binder x needs a type annotation"),
    ("stlc", "\\x:o. x x", "applying a non-function of type o"),
    ("stdlc", "0 0", "applying a non-function of type _"),
    ("stlc", "(\\x:o. x) (\\y:o. y)", "argument type o -> o does not match o"),
    ("stdlc", "\\f:o->o. D[f,f]", "argument type o -> o does not match o"),
    ("stdlc", "D[0,0]", "cannot differentiate the zero term without a type"),
    ("stdlc", "\\x:o. D[x,x]", "D[-,-] needs a function, got o"),
    ("pcfl", "succ (\\x:Nat. x)", "succ/pred expects a Nat"),
    ("pcfl", "pred (\\x:Nat. x)", "succ/pred expects a Nat"),
    ("pcfl", "ifz (\\x:Nat. x) 1 2", "ifz scrutinee must be a Nat"),
    ("pcfl", "Y (\\x:Nat. \\y:Nat. x)", "Y expects A -> A, got Nat -> Nat -> Nat"),
    ("pcfl", "Y 1", "Y expects A -> A, got Nat"),
    ("pcfl", "1 (+p) \\x:Nat. x", "branches have different types Nat and Nat -> Nat"),
    ("pcfl", "ifz 0 (\\x:Nat. x) 1", "branches have different types Nat -> Nat and Nat"),
    ("stdlc", "0 + (\\x:o. x) + \\y:o->o. y", "branches have different types o -> o and (o -> o) -> o -> o"),
]


@pytest.mark.parametrize("dialect,term,message", TYPE_ERRORS)
def test_type_errors(dialect, term, message):
    t = parse(term, dialect) if isinstance(term, str) else term
    with pytest.raises(TypeMismatch, match=f"^{re.escape(message)}$"):
        typecheck({}, t, dialect)


def test_unknown_dialect():
    with pytest.raises(ValueError, match="unknown dialect 'lc'"):
        typecheck({}, Var("x"), "lc")
    with pytest.raises(ValueError, match="unknown dialect 'lc'"):
        parse("x", "lc")


# ----------------------------------------------------------------- sums


def test_sum_flatten_idempotent():
    a, b, c = Var("a"), Var("b"), Var("c")
    s = make_sum(a, make_sum(b, c))
    assert isinstance(s, Sum) and len(s.terms) == 3
    assert make_sum(a, a) == a
    assert make_sum(b, a, c) == make_sum(c, b, a)
    assert make_sum(s, s) == s


# ----------------------------------------------------------- substitution


def test_subst_capture_avoiding():
    t = Lam("y", O, App(Var("x"), Var("y")))
    r = subst(t, "x", Var("y"))
    assert isinstance(r, Lam) and r.var != "y"
    assert r.body == App(Var("y"), Var(r.var))


# ----------------------------------------------------------- translations


def test_translate_prob():
    t = parse("True (+p) False", "pcfl")
    assert translate_prob(t) == make_sum(
        Scalar("p", TRUE), Scalar("p'", FALSE)
    )
    plain = parse("2 . 3", "pcfl")
    assert translate_prob(plain) == plain


@settings(max_examples=200)
@given(st.from_regex(r"[A-Za-z_][\w']*", fullmatch=True), term_strategy("pcfl"), term_strategy("pcfl"))
def test_choice_sum_in_make_sum_order(label, left, right):
    # translate_prob and the choice step build p.M + p'.N directly; make_sum,
    # which sorts summands by their pretty form, gives the same term
    t = Choice(label, left, right)
    assert step(t)[0][0] == make_sum(Scalar(label, left), Scalar(label + "'", right))
    assert translate_prob(t) == make_sum(
        Scalar(label, translate_prob(left)), Scalar(label + "'", translate_prob(right))
    )


def count_leaf_scalars(t):
    if isinstance(t, Scalar):
        if isinstance(t.body, Numeral):
            return 1
        return count_leaf_scalars(t.body)
    if isinstance(t, Sum):
        return sum(count_leaf_scalars(s) for s in t.terms)
    return 0


def test_translate_prob_nested_leaf_count():
    # a three-level choice tree with 7 outcome leaves
    src = "((True (+p) False) (+p) (True (+p) False)) (+p) ((False (+p) True) (+p) False)"
    t = translate_prob(parse(src, "pcfl"))
    leaves = []

    def walk(u, depth):
        if isinstance(u, Scalar):
            walk(u.body, depth + 1)
        elif isinstance(u, Sum):
            for s in u.terms:
                walk(s, depth)
        elif isinstance(u, Numeral):
            leaves.append(depth)

    walk(t, 0)
    assert len(leaves) == 7 or len(leaves) == 8  # dedup may merge equal subtrees


def test_translate_nondet():
    assert translate_nondet(parse("\\x:Nat. x", "pcfl")) == Lam(
        "x", NAT, Scalar("c", Var("x"))
    )
    assert translate_nondet(Var("x")) == Var("x")
    t = parse("Y (\\x:Nat. x)", "pcfl")
    r = translate_nondet(t)
    assert isinstance(r, Fix) and isinstance(r.body, Scalar)
