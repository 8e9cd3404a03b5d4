"""Scalars of the min-plus semiring on [0, inf].

A tropical value is an exact nonnegative ``Fraction`` or the absorbing
element ``INF``.  Floats only enter through the negative-log valuation;
once a float is in play, comparisons downstream use ``FLOAT_TOL``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Trop = Union[Fraction, float]

INF: float = math.inf

#: tolerance used when comparing values that went through -log
FLOAT_TOL = 1e-9

ZERO = Fraction(0)


def is_inf(a: Trop) -> bool:
    # only a float can be INF; Fraction.__eq__ against a float is slow
    return a.__class__ is float and a == INF


def as_trop(a) -> Trop:
    """Coerce ints/strings/floats to a tropical value.

    Strings accept "inf", "p/q" and plain decimals.
    """
    if isinstance(a, Fraction):
        v: Trop = a
    elif isinstance(a, bool):
        raise TypeError("bool is not a tropical value")
    elif isinstance(a, int):
        v = Fraction(a)
    elif isinstance(a, float):
        v = INF if math.isinf(a) else Fraction(a)
    elif isinstance(a, str):
        s = a.strip()
        if s in ("inf", "INF", "oo"):
            v = INF
        else:
            v = Fraction(s)
    else:
        raise TypeError(f"cannot interpret {a!r} as a tropical value")
    if not is_inf(v) and v < 0:
        raise ValueError(f"tropical values are nonnegative, got {v}")
    return v


def trop_add(a: Trop, b: Trop) -> Trop:
    """Tropical sum: min.  Unit is INF."""
    return a if a <= b else b


def trop_mul(a: Trop, b: Trop) -> Trop:
    """Tropical product: real addition.  Unit is 0, INF absorbs."""
    if is_inf(a) or is_inf(b):
        return INF
    return a + b


def trop_dist(a: Trop, b: Trop) -> Trop:
    """|a - b| with the conventions |INF-INF| = 0, |INF-finite| = INF."""
    ia, ib = is_inf(a), is_inf(b)
    if ia and ib:
        return ZERO
    if ia or ib:
        return INF
    return abs(a - b)


def fmt_trop(a: Trop) -> str:
    if is_inf(a):
        return "inf"
    if isinstance(a, Fraction):
        return str(a)
    return repr(a)
