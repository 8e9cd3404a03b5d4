"""Graded multiset comonad: structure maps as plain linear matrices.

A linear morphism X -> Y is a dict (x, y) -> tropical value over explicit
point lists; absent entries are INF.  All maps here are 0/INF relations.
Grades bound multiset sizes: grade(n) applied to X is bags over X of size
at most n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from .values import INF, Trop, trop_add, trop_mul
from .model import TropMatrix, bag_add, bags_upto

ZERO = Fraction(0)
STAR = "*"


# ------------------------------------------------------------ linear algebra


class LinMatrix:
    """Finite linear morphism with explicit domain/codomain enumerations."""

    def __init__(self, dom: List, cod: List, entries: Dict[Tuple, Trop]):
        self.dom = list(dom)
        self.cod = list(cod)
        self.entries = {k: v for k, v in entries.items() if v != INF}

    def at(self, a, b) -> Trop:
        return self.entries.get((a, b), INF)

    def compose(self, other: "LinMatrix") -> "LinMatrix":
        """self after other: (self . other)(a, c) = min_b other(a,b)+self(b,c)."""
        out: Dict[Tuple, Trop] = {}
        for a in other.dom:
            for c in self.cod:
                best: Trop = INF
                for b in other.cod:
                    best = trop_add(best, trop_mul(other.at(a, b), self.at(b, c)))
                if best != INF:
                    out[(a, c)] = best
        return LinMatrix(other.dom, self.cod, out)

    def tensor(self, other: "LinMatrix") -> "LinMatrix":
        dom = [(a, c) for a in self.dom for c in other.dom]
        cod = [(b, d) for b in self.cod for d in other.cod]
        out = {}
        for (a, b), v in self.entries.items():
            for (c, d), w in other.entries.items():
                out[((a, c), (b, d))] = trop_mul(v, w)
        return LinMatrix(dom, cod, out)

    def __eq__(self, other):
        return (
            isinstance(other, LinMatrix)
            and set(self.dom) == set(other.dom)
            and set(self.cod) == set(other.cod)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"LinMatrix({len(self.dom)}x{len(self.cod)}, {len(self.entries)} entries)"


def lin_identity(pts: Iterable) -> LinMatrix:
    pts = list(pts)
    return LinMatrix(pts, pts, {(p, p): ZERO for p in pts})


def graded_points(pts: Iterable, n: int) -> List[tuple]:
    return bags_upto(pts, n)


# ------------------------------------------------------------ structure maps


def bang(f: LinMatrix, n: int) -> LinMatrix:
    """Functorial action on bags: min-cost perfect matching between bags,
    i.e. the promotion of f read as a matrix on singleton bags."""
    dom = graded_points(f.dom, n)
    cod = graded_points(f.cod, n)
    single = TropMatrix.from_entries(None, None, {((x,), y): v for (x, y), v in f.entries.items()})
    out = {
        (alpha, beta): single.promoted(alpha, beta).constant_value()
        for alpha in dom
        for beta in cod
    }
    return LinMatrix(dom, cod, out)


def unit_m(r: int) -> LinMatrix:
    """Lax monoidal unit: the unit point relates to every bag of stars."""
    cod = graded_points([STAR], r)
    return LinMatrix([STAR], cod, {(STAR, bag): ZERO for bag in cod})


def mult_m(a_pts: List, b_pts: List, r: int) -> LinMatrix:
    """Lax monoidal multiplication: zip a pair of equal-size bags into a
    bag of pairs (0 exactly when the projections match)."""
    dom = [
        (alpha, beta)
        for alpha in graded_points(a_pts, r)
        for beta in graded_points(b_pts, r)
    ]
    cod = graded_points([(x, y) for x in a_pts for y in b_pts], r)
    out = {}
    for alpha, beta in dom:
        if len(alpha) != len(beta):
            continue
        for gamma in cod:
            if len(gamma) != len(alpha):
                continue
            if (
                tuple(sorted(x for x, _ in gamma)) == alpha
                and tuple(sorted(y for _, y in gamma)) == beta
            ):
                out[((alpha, beta), gamma)] = ZERO
    return LinMatrix(dom, cod, out)


def weakening(pts: List) -> LinMatrix:
    """grade-0 bags collapse to the unit."""
    return LinMatrix([()], [STAR], {((), STAR): ZERO})


def contraction(pts: List, r: int, s: int) -> LinMatrix:
    """Split a bag of size <= r+s into two halves: 0 iff alpha = beta+gamma."""
    dom = graded_points(pts, r + s)
    cod = [
        (beta, gamma)
        for beta in graded_points(pts, r)
        for gamma in graded_points(pts, s)
    ]
    out = {}
    for alpha in dom:
        for beta, gamma in cod:
            if bag_add(beta, gamma) == alpha:
                out[(alpha, (beta, gamma))] = ZERO
    return LinMatrix(dom, cod, out)


def counit(pts: List) -> LinMatrix:
    """Dereliction at grade 1: [a] relates to a."""
    dom = graded_points(pts, 1)
    return LinMatrix(dom, list(pts), {((p,), p): ZERO for p in pts})


def comultiplication(pts: List, r: int, s: int) -> LinMatrix:
    """Digging: a size <= r*s bag relates to a bag-of-bags summing to it."""
    dom = graded_points(pts, r * s)
    inner = graded_points(pts, s)
    cod = graded_points(inner, r)
    out = {}
    for big in cod:
        total = ()
        for bag in big:
            total = bag_add(total, bag)
        if len(total) <= r * s:
            out[(total, big)] = trop_add(out.get((total, big), INF), ZERO)
    return LinMatrix(dom, cod, out)
