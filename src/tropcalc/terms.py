"""ASTs, parser, pretty-printer and typecheckers for the four calculi.

Dialects:
  stlc   simply typed lambda calculus over ground types
  bstlc  bounded/graded arrows ``!n A -o B`` with grade inference
  stdlc  differential terms ``D[M,N]``, formal sums and the zero term
  pcfl   PCF with weighted effects: scalars ``w . M``, sums ``M + N``,
         binary probabilistic choice ``M (+p) N``, numerals and ``Y``

Term nodes are frozen dataclasses compared and hashed by structure.  Each
node keeps its hash after the first call (``_cached_hash``), which is sound
only because nodes are immutable: no code changes a node's fields, not
even through ``object.__setattr__``.  A stored hash includes the hashes
of ``str`` fields, which differ between processes, so it holds within one
process only; nothing pickles terms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

from .values import as_trop, fmt_trop

DIALECTS = ("stlc", "bstlc", "stdlc", "pcfl")

# ---------------------------------------------------------------------- types


class Type:
    pass


@dataclass(frozen=True)
class Ground(Type):
    name: str = "o"

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Arrow(Type):
    src: Type
    tgt: Type

    def __str__(self):
        s = str(self.src)
        if isinstance(self.src, (Arrow, GradedArrow)):
            s = f"({s})"
        return f"{s} -> {self.tgt}"


@dataclass(frozen=True)
class GradedArrow(Type):
    grade: int
    src: Type
    tgt: Type

    def __str__(self):
        s = str(self.src)
        if isinstance(self.src, (Arrow, GradedArrow)):
            s = f"({s})"
        return f"!{self.grade} {s} -o {self.tgt}"


@dataclass(frozen=True)
class NatType(Type):
    def __str__(self):
        return "Nat"


NAT = NatType()
O = Ground("o")


# ---------------------------------------------------------------------- terms

Weight = Union[Fraction, float, str]  # constant or parameter name


def fmt_weight(w: Weight) -> str:
    return w if isinstance(w, str) else fmt_trop(w)


class Term:
    # the structural hash, stored by _cached_hash on first use; a class
    # attribute without an annotation, so never a dataclass field
    _hash = None

    def __str__(self):
        return pretty(self)


def _cached_hash(cls):
    """Keep a node's generated structural hash after its first call.

    The frozen-dataclass ``__hash__`` hashes the tuple of the fields, so it
    walks the whole tree under the node on every dict lookup.  Nodes are
    immutable, so the value never changes; it is stored on the instance,
    outside the fields, so ``repr``, ``==`` and ``dataclasses.fields`` do
    not see it.
    """
    structural = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = structural(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls


@_cached_hash
@dataclass(frozen=True)
class Var(Term):
    name: str


@_cached_hash
@dataclass(frozen=True)
class Lam(Term):
    var: str
    ann: Optional[Type]
    body: Term


@_cached_hash
@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@_cached_hash
@dataclass(frozen=True)
class DApp(Term):
    fn: Term
    arg: Term


@_cached_hash
@dataclass(frozen=True)
class ZeroTerm(Term):
    pass


ZERO_TERM = ZeroTerm()


@_cached_hash
@dataclass(frozen=True)
class Sum(Term):
    terms: Tuple[Term, ...]

    def __post_init__(self):
        assert len(self.terms) >= 2


def make_sum(*terms: Term) -> Term:
    """Flatten nested sums, drop duplicates (idempotent +), sort canonically."""
    flat = []
    for t in terms:
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    seen: Dict[str, Term] = {}
    for t in flat:
        seen.setdefault(pretty(t), t)
    uniq = [seen[k] for k in sorted(seen)]
    if len(uniq) == 1:
        return uniq[0]
    return Sum(tuple(uniq))


@_cached_hash
@dataclass(frozen=True)
class Scalar(Term):
    weight: Weight
    body: Term

    def __eq__(self, other):
        # a float weight is not the equal Fraction: the two give their
        # paths differently typed costs, so caches keyed by terms must not
        # merge them (the hash stays the structural one, equal for both)
        if other.__class__ is not Scalar:
            return NotImplemented
        return (
            self.weight.__class__ is other.weight.__class__
            and self.weight == other.weight
            and self.body == other.body
        )


@_cached_hash
@dataclass(frozen=True)
class Choice(Term):
    label: str
    left: Term
    right: Term

    @property
    def w_left(self) -> Weight:
        return self.label

    @property
    def w_right(self) -> Weight:
        return self.label + "'"


@_cached_hash
@dataclass(frozen=True)
class Numeral(Term):
    n: int


@_cached_hash
@dataclass(frozen=True)
class Succ(Term):
    arg: Term


@_cached_hash
@dataclass(frozen=True)
class Pred(Term):
    arg: Term


@_cached_hash
@dataclass(frozen=True)
class Ifz(Term):
    cond: Term
    then: Term
    other: Term


@_cached_hash
@dataclass(frozen=True)
class Fix(Term):
    body: Term


TRUE = Numeral(0)
FALSE = Numeral(1)


def children(t: Term) -> Tuple[Term, ...]:
    """The immediate subterms, in source order."""
    if isinstance(t, (App, DApp)):
        return (t.fn, t.arg)
    if isinstance(t, (Lam, Scalar, Fix)):
        return (t.body,)
    if isinstance(t, Sum):
        return t.terms
    if isinstance(t, Choice):
        return (t.left, t.right)
    if isinstance(t, (Succ, Pred)):
        return (t.arg,)
    if isinstance(t, Ifz):
        return (t.cond, t.then, t.other)
    return ()


def _map_children(t: Term, f) -> Term:
    """t with f applied to each immediate subterm, in source order."""
    if isinstance(t, Lam):
        return Lam(t.var, t.ann, f(t.body))
    if isinstance(t, App):
        return App(f(t.fn), f(t.arg))
    if isinstance(t, DApp):
        return DApp(f(t.fn), f(t.arg))
    if isinstance(t, Sum):
        return make_sum(*(f(s) for s in t.terms))
    if isinstance(t, Scalar):
        return Scalar(t.weight, f(t.body))
    if isinstance(t, Choice):
        return Choice(t.label, f(t.left), f(t.right))
    if isinstance(t, Succ):
        return Succ(f(t.arg))
    if isinstance(t, Pred):
        return Pred(f(t.arg))
    if isinstance(t, Ifz):
        return Ifz(f(t.cond), f(t.then), f(t.other))
    if isinstance(t, Fix):
        return Fix(f(t.body))
    return t


def free_vars(t: Term) -> set:
    if isinstance(t, Var):
        return {t.name}
    out = set()
    for s in children(t):
        out |= free_vars(s)
    if isinstance(t, Lam):
        out.discard(t.var)
    return out


_fresh_counter = [0]


def fresh(base: str) -> str:
    _fresh_counter[0] += 1
    return f"{base}_{_fresh_counter[0]}"


def subst(t: Term, x: str, v: Term) -> Term:
    """Capture-avoiding substitution t[v/x]."""
    if isinstance(t, Var):
        return v if t.name == x else t
    if isinstance(t, Lam):
        if t.var == x:
            return t
        if t.var in free_vars(v):
            y = fresh(t.var)
            body = subst(t.body, t.var, Var(y))
            return Lam(y, t.ann, subst(body, x, v))
        return Lam(t.var, t.ann, subst(t.body, x, v))
    return _map_children(t, lambda s: subst(s, x, v))


# ---------------------------------------------------------------- pretty print


def _atom(t: Term) -> str:
    s = pretty(t)
    if isinstance(t, (Var, Numeral, ZeroTerm, DApp)):
        return s
    return f"({s})"


def pretty(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Lam):
        ann = f":{t.ann}" if t.ann is not None else ""
        return f"\\{t.var}{ann}. {pretty(t.body)}"
    if isinstance(t, App):
        fn = pretty(t.fn) if isinstance(t.fn, (App, Var, DApp)) else _atom(t.fn)
        return f"{fn} {_atom(t.arg)}"
    if isinstance(t, DApp):
        return f"D[{pretty(t.fn)},{pretty(t.arg)}]"
    if isinstance(t, ZeroTerm):
        return "0"
    if isinstance(t, Sum):
        return " + ".join(_atom(s) if isinstance(s, (Sum, Choice, Lam)) else _scalar_atom(s) for s in t.terms)
    if isinstance(t, Scalar):
        return f"{fmt_weight(t.weight)} . {_scalar_atom(t.body)}"
    if isinstance(t, Choice):
        l = _atom(t.left) if isinstance(t.left, (Choice, Lam)) else pretty(t.left)
        r = _atom(t.right) if isinstance(t.right, (Choice, Lam)) else pretty(t.right)
        return f"{l} (+{t.label}) {r}"
    if isinstance(t, Numeral):
        return str(t.n)
    if isinstance(t, Succ):
        return f"succ {_atom(t.arg)}"
    if isinstance(t, Pred):
        return f"pred {_atom(t.arg)}"
    if isinstance(t, Ifz):
        return f"ifz {_atom(t.cond)} {_atom(t.then)} {_atom(t.other)}"
    if isinstance(t, Fix):
        return f"Y {_atom(t.body)}"
    raise TypeError(f"unknown term {t!r}")


def _scalar_atom(t: Term) -> str:
    if isinstance(t, (Scalar, Sum, Choice, Lam)):
        return f"({pretty(t)})"
    return pretty(t)


# -------------------------------------------------------------------- parser


class ParseError(SyntaxError):
    pass


_TOKEN = re.compile(
    r"""\s*(?:
        (?P<choice>\(\+\s*[A-Za-z_][\w']*\s*\))
      | (?P<arrow>->|-o)
      | (?P<num>\d+(?:/\d+|\.\d+)?)
      | (?P<ident>[A-Za-z_][\w']*)
      | (?P<sym>[\\.():\[\],+!])
    )""",
    re.VERBOSE,
)

_KEYWORDS = {"Y", "succ", "pred", "ifz", "D", "True", "False", "Nat"}


def _tokenize(src: str):
    toks = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            nl = src.count("\n", 0, pos)
            raise ParseError(
                f"line {nl + 1}: unexpected character {stripped[0]!r}"
            )
        pos = m.end()
        kind = m.lastgroup
        text = m.group(kind).strip()
        if kind == "choice":
            text = text[2:-1].strip()
        toks.append((kind, text))
    toks.append(("eof", ""))
    return toks


class _Parser:
    def __init__(self, src: str, dialect: str):
        self.toks = _tokenize(src)
        self.i = 0
        self.dialect = dialect

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind, text=None):
        k, v = self.next()
        if k != kind or (text is not None and v != text):
            raise ParseError(f"expected {text or kind}, got {v or k!r}")
        return v

    # types ----------------------------------------------------------

    def parse_type(self) -> Type:
        if self.peek() == ("sym", "!"):
            self.next()
            k, v = self.next()
            if k != "num" or not v.isdigit():
                raise ParseError(f"expected grade after '!', got {v!r}")
            src = self.parse_type_atom()
            self.expect("arrow", "-o")
            return GradedArrow(int(v), src, self.parse_type())
        left = self.parse_type_atom()
        k, v = self.peek()
        if k == "arrow":
            self.next()
            if v == "-o":
                raise ParseError("'-o' requires a '!n' grade prefix")
            return Arrow(left, self.parse_type())
        return left

    def parse_type_atom(self) -> Type:
        k, v = self.next()
        if k == "sym" and v == "(":
            t = self.parse_type()
            self.expect("sym", ")")
            return t
        if k == "ident" and v == "Nat":
            return NAT
        if k == "ident":
            return Ground(v)
        raise ParseError(f"expected a type, got {v or k!r}")

    # terms ----------------------------------------------------------

    def parse_term(self) -> Term:
        return self.parse_choice()

    def parse_choice(self) -> Term:
        left = self.parse_sum()
        while self.peek()[0] == "choice":
            _, label = self.next()
            right = self.parse_sum()
            left = Choice(label, left, right)
        return left

    def parse_sum(self) -> Term:
        parts = [self.parse_scalar()]
        while self.peek() == ("sym", "+"):
            self.next()
            parts.append(self.parse_scalar())
        if len(parts) == 1:
            return parts[0]
        return make_sum(*parts)

    def parse_scalar(self) -> Term:
        k, v = self.peek()
        if k in ("num", "ident") and v not in _KEYWORDS:
            if self.toks[self.i + 1] == ("sym", "."):
                self.next()
                self.next()
                w: Weight = v if k == "ident" else as_trop(v)
                return Scalar(w, self.parse_scalar())
        return self.parse_app()

    def parse_app(self) -> Term:
        k, v = self.peek()
        if k == "ident" and v == "Y":
            self.next()
            return Fix(self.parse_app())
        if k == "ident" and v == "succ":
            self.next()
            return Succ(self.parse_atom())
        if k == "ident" and v == "pred":
            self.next()
            return Pred(self.parse_atom())
        if k == "ident" and v == "ifz":
            self.next()
            return Ifz(self.parse_atom(), self.parse_atom(), self.parse_atom())
        t = self.parse_atom()
        while True:
            k, v = self.peek()
            if (k == "ident" and v not in ("Y", "succ", "pred", "ifz") or k == "num"
                    or (k == "sym" and v in ("(", "\\"))):
                # an atom follows: application
                if k in ("num", "ident") and self.toks[self.i + 1] == ("sym", "."):
                    break  # scalar weight of an enclosing expression, not an arg
                t = App(t, self.parse_atom())
            else:
                break
        return t

    def parse_atom(self) -> Term:
        k, v = self.next()
        if k == "sym" and v == "(":
            t = self.parse_term()
            self.expect("sym", ")")
            return t
        if k == "sym" and v == "\\":
            name = self.expect("ident")
            ann = None
            if self.peek() == ("sym", ":"):
                self.next()
                ann = self.parse_type()
            self.expect("sym", ".")
            return Lam(name, ann, self.parse_term())
        if k == "ident" and v == "D":
            self.expect("sym", "[")
            fn = self.parse_term()
            self.expect("sym", ",")
            arg = self.parse_term()
            self.expect("sym", "]")
            return DApp(fn, arg)
        if k == "ident" and v == "True":
            return TRUE
        if k == "ident" and v == "False":
            return FALSE
        if k == "ident" and v not in _KEYWORDS:
            return Var(v)
        if k == "num":
            if not v.isdigit():
                raise ParseError(f"non-integer literal {v!r} is not a term")
            if self.dialect == "stdlc":
                if v != "0":
                    raise ParseError("only the zero term is available here")
                return ZERO_TERM
            return Numeral(int(v))
        raise ParseError(f"unexpected token {v or k!r}")


def parse(src: str, dialect: str = "stlc") -> Term:
    if dialect not in DIALECTS:
        raise ValueError(f"unknown dialect {dialect!r}")
    p = _Parser(src, dialect)
    t = p.parse_term()
    if p.peek()[0] != "eof":
        raise ParseError(f"trailing input at token {p.peek()[1]!r}")
    return t


# --------------------------------------------------------------- typecheckers


class TypeMismatch(TypeError):
    pass


class GradeMismatch(TypeError):
    pass


def typecheck_bstlc(ctx, t: Term) -> Type:
    """Graded typing with least-grade inference.

    ``ctx`` is a list of (var, grade, type); each variable's inferred use
    count must not exceed its declared grade.
    """
    declared = {x: (g, ty) for x, g, ty in ctx}
    ty, usage = _infer_graded({x: ty for x, g, ty in ctx}, t)
    for x, n in usage.items():
        g = declared[x][0]
        if n > g:
            raise GradeMismatch(f"{x} used {n} times but declared with grade {g}")
    return ty


def _infer_graded(ctx: Dict[str, Type], t: Term):
    if isinstance(t, Var):
        if t.name not in ctx:
            raise TypeMismatch(f"unbound variable {t.name}")
        return ctx[t.name], {t.name: 1}
    if isinstance(t, Lam):
        if t.ann is None:
            raise TypeMismatch(f"binder {t.var} needs a type annotation")
        inner = dict(ctx)
        inner[t.var] = t.ann
        bty, usage = _infer_graded(inner, t.body)
        n = usage.pop(t.var, 0)
        return GradedArrow(n, t.ann, bty), usage
    if isinstance(t, App):
        fty, fu = _infer_graded(ctx, t.fn)
        aty, au = _infer_graded(ctx, t.arg)
        if not isinstance(fty, GradedArrow):
            raise TypeMismatch(f"applying a non-function of type {fty}")
        if fty.src != aty:
            raise TypeMismatch(f"argument type {aty} does not match {fty.src}")
        usage = dict(fu)
        for x, n in au.items():
            usage[x] = usage.get(x, 0) + fty.grade * n
        return fty.tgt, usage
    raise TypeMismatch(f"{type(t).__name__} is not part of bstlc")


class _Any(Type):
    """Type of the zero term: checks against anything."""

    def __eq__(self, other):
        return isinstance(other, Type)

    def __hash__(self):
        return 0

    def __str__(self):
        return "_"


ANY = _Any()


def _join(a: Type, b: Type) -> Type:
    if isinstance(a, _Any):
        return b
    if isinstance(b, _Any):
        return a
    if a != b:
        raise TypeMismatch(f"branches have different types {a} and {b}")
    return a


# the constructors each ungraded dialect allows; bstlc has its own checker
_NODES = {
    "stlc": (Var, Lam, App),
    "stdlc": (Var, Lam, App, DApp, ZeroTerm, Sum),
    "pcfl": (Var, Lam, App, Numeral, Succ, Pred, Ifz, Fix, Sum, Scalar, Choice),
}


def _check(ctx: Dict[str, Type], t: Term, dialect: str) -> Type:
    """Simple types for stlc, stdlc and pcfl: one rule per constructor."""
    if not isinstance(t, _NODES[dialect]):
        raise TypeMismatch(f"{type(t).__name__} is not part of {dialect}")
    if isinstance(t, Var):
        if t.name not in ctx:
            raise TypeMismatch(f"unbound variable {t.name}")
        return ctx[t.name]
    if isinstance(t, Lam):
        if t.ann is None:
            raise TypeMismatch(f"binder {t.var} needs a type annotation")
        inner = dict(ctx)
        inner[t.var] = t.ann
        return Arrow(t.ann, _check(inner, t.body, dialect))
    if isinstance(t, (App, DApp)):
        fty = _check(ctx, t.fn, dialect)
        aty = _check(ctx, t.arg, dialect)
        deriv = isinstance(t, DApp)
        if deriv and isinstance(fty, _Any):
            raise TypeMismatch("cannot differentiate the zero term without a type")
        if not isinstance(fty, Arrow):
            raise TypeMismatch(
                f"D[-,-] needs a function, got {fty}" if deriv
                else f"applying a non-function of type {fty}"
            )
        if fty.src != aty:
            raise TypeMismatch(f"argument type {aty} does not match {fty.src}")
        # D[M,N] : A -> B keeps M's arrow type
        return fty if deriv else fty.tgt
    if isinstance(t, ZeroTerm):
        return ANY
    if isinstance(t, Numeral):
        return NAT
    if isinstance(t, (Succ, Pred)):
        if _check(ctx, t.arg, dialect) != NAT:
            raise TypeMismatch("succ/pred expects a Nat")
        return NAT
    if isinstance(t, Ifz):
        if _check(ctx, t.cond, dialect) != NAT:
            raise TypeMismatch("ifz scrutinee must be a Nat")
        return _join(_check(ctx, t.then, dialect), _check(ctx, t.other, dialect))
    if isinstance(t, Fix):
        fty = _check(ctx, t.body, dialect)
        if not isinstance(fty, Arrow) or fty.src != fty.tgt:
            raise TypeMismatch(f"Y expects A -> A, got {fty}")
        return fty.tgt
    # Sum, Scalar and Choice: the common type of the children
    ty: Type = ANY
    for s in children(t):
        ty = _join(ty, _check(ctx, s, dialect))
    return ty


def typecheck_stlc(ctx: Dict[str, Type], t: Term) -> Type:
    return _check(ctx, t, "stlc")


def typecheck_stdlc(ctx: Dict[str, Type], t: Term) -> Type:
    return _check(ctx, t, "stdlc")


def typecheck_pcfl(ctx: Dict[str, Type], t: Term) -> Type:
    return _check(ctx, t, "pcfl")


def typecheck(ctx, t: Term, dialect: str) -> Type:
    if dialect == "bstlc":
        return typecheck_bstlc(ctx, t)
    if dialect not in _NODES:
        raise ValueError(f"unknown dialect {dialect!r}")
    return _check(ctx, t, dialect)


# -------------------------------------------------------------- translations


def translate_prob(t: Term) -> Term:
    """Replace each binary choice by a sum of weighted branches.

    ``M (+p) N`` becomes ``p.M + p'.N`` with symbolic weights named after
    the bias label; reading the weights as negative log-probabilities
    turns evaluation into likelihood computation.
    """
    if isinstance(t, Choice):
        # make_sum's order, without printing the subtrees: "p . M" sorts
        # before "p' . N", since the label is a prefix of label' and " " < "'"
        return Sum((
            Scalar(t.w_left, translate_prob(t.left)),
            Scalar(t.w_right, translate_prob(t.right)),
        ))
    return _map_children(t, translate_prob)


def translate_nondet(t: Term, cost: Weight = "c") -> Term:
    """Charge one symbolic cost unit per function body and fix body."""
    if isinstance(t, Lam):
        return Lam(t.var, t.ann, Scalar(cost, translate_nondet(t.body, cost)))
    if isinstance(t, Fix):
        return Fix(Scalar(cost, translate_nondet(t.body, cost)))
    return _map_children(t, lambda s: translate_nondet(s, cost))
