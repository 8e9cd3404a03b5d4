"""Command-line front end.

Machine-readable JSON goes to stdout (TSV for plot data with --format tsv);
a one-line human summary goes to stderr.  Exit codes: 0 success, 1 user
error, 2 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import terms as T
from .model import Caps, check_boolean, interpret, matrix_to_json_dict
from .reduction import adequacy_check, best_case, mle, outcome_series, _choice_leaves
from .series import MultiDegree, TropSeries, plot_rows, univariate_roots
from .taylor import elaborate, empirical_lipschitz, lipschitz_estimate, taylor_expand
from .values import INF, as_trop, fmt_trop, is_inf


class UsageError(ValueError):
    pass


# ------------------------------------------------------------ input parsing


def parse_params(text: str) -> dict:
    """``a=0.5,b=1`` -> {"a": 1/2, "b": 1}."""
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise UsageError(f"bad parameter assignment {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = as_trop(v.strip())
    return out


def parse_coeffs(text: str) -> TropSeries:
    """``0:1,1:1/2,...`` -> univariate series in x (degree:coefficient)."""
    items = []
    for item in text.split(","):
        if ":" not in item:
            raise UsageError(f"bad degree:coeff pair {item!r}")
        d, c = item.split(":", 1)
        items.append((MultiDegree({"x": int(d)} if int(d) else {}), as_trop(c.strip())))
    return TropSeries(("x",), items)


_MONO_FACTOR = re.compile(r"(\d+(?:/\d+)?)?([A-Za-z_][\w']*)?")


def parse_series(text: str) -> TropSeries:
    """Mini-grammar for tropical polynomials.

    A monomial is ``+``-joined factors (tropical product), each a rational
    constant or a variable with an optional integer degree prefix: ``2a+b``
    is the monomial with degrees a:2, b:1.  ``min{m1,m2,...}`` takes the
    tropical sum of several monomials.
    """
    text = text.strip()
    if text.startswith("min{") and text.endswith("}"):
        out = TropSeries.empty()
        for part in text[4:-1].split(","):
            out = out.tmin(parse_series(part))
        return out
    coeff = Fraction(0)
    degrees: dict = {}
    for factor in text.split("+"):
        m = _MONO_FACTOR.fullmatch(factor.strip())
        if not m or not factor.strip():
            raise UsageError(f"bad monomial factor {factor!r}")
        num, var = m.groups()
        if var is None:
            coeff += Fraction(num)
        else:
            degrees[var] = degrees.get(var, 0) + (int(num) if num else 1)
    return TropSeries.monomial(degrees, coeff) if degrees else TropSeries.constant(coeff)


def series_from_args(args) -> TropSeries:
    if getattr(args, "coeffs", None):
        return parse_coeffs(args.coeffs)
    if getattr(args, "series", None):
        return parse_series(args.series)
    raise UsageError("need --series or --coeffs")


def term_from_args(args) -> T.Term:
    if getattr(args, "term", None):
        src = args.term
    elif getattr(args, "file", None):
        with open(args.file) as fh:
            src = fh.read()
    else:
        raise UsageError("need a term file or --term")
    return T.parse(src, args.dialect)


def count_arg(least: int):
    """An argparse type: an int of at least `least`."""

    def parse(text: str) -> int:
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {n}")
        return n

    parse.__name__ = "count"
    return parse


def caps_from_args(args) -> Caps:
    return Caps(k_max=args.kmax, n_max=args.nmax, f_max=args.fixmax)


# ----------------------------------------------------------------- output


def emit(payload, summary: str) -> None:
    """Print a list of rows as TSV and anything else as JSON."""
    if isinstance(payload, list):
        for row in payload:
            print("\t".join(str(c) for c in row))
    else:
        print(json.dumps(payload, sort_keys=True))
    print(summary, file=sys.stderr)


# ------------------------------------------------------------- subcommands


def cmd_check(args):
    t = term_from_args(args)
    ty = T.typecheck({} if args.dialect != "bstlc" else [], t, args.dialect)
    emit({"term": str(t), "type": str(ty)}, f"ok: {t} : {ty}")


def cmd_interpret(args):
    t = term_from_args(args)
    caps = caps_from_args(args)
    m = interpret(t, [], args.dialect, caps)
    # a closed term's only context bag is the empty one
    m.finite_points(())
    payload = matrix_to_json_dict(m)
    payload["boolean"] = check_boolean(m)
    emit(payload, f"{len(payload['entries'])} finite entries")


def cmd_eval(args):
    params = parse_params(args.params or "")
    if args.coeffs or args.series:
        s = series_from_args(args)
    else:
        t = term_from_args(args)
        caps = caps_from_args(args)
        s = interpret(t, [], args.dialect, caps).entry((), args.target)
    v = s.eval({k: params.get(k, INF) for k in s.vars})
    emit(
        {
            "series": s.to_json_dict(),
            "params": {k: fmt_trop(w) for k, w in params.items()},
            "value": fmt_trop(v),
        },
        f"value = {fmt_trop(v)}",
    )


def cmd_roots(args):
    s = parse_coeffs(args.coeffs)
    roots = univariate_roots(s)
    payload = {"roots": [{"root": fmt_trop(r), "mult": m} for r, m in roots]}
    emit(payload, " ".join(fmt_trop(r) for r, _ in roots))


def cmd_truncate(args):
    s = series_from_args(args)
    out = s.truncate(as_trop(args.eps))
    emit(
        {"series": s.to_json_dict(), "eps": args.eps, "truncated": out.to_json_dict()},
        f"{len(s.coeffs)} -> {len(out.coeffs)} monomials",
    )


def cmd_taylor(args):
    t = term_from_args(args)
    elems = taylor_expand(t, args.degree)
    payload = {
        "term": str(t),
        "degree_cap": args.degree,
        "elements": [{"resource": str(r), "elaborated": str(elaborate(r))} for r in elems],
    }
    emit(payload, f"{len(elems)} expansion elements")


def cmd_lipschitz(args):
    s = series_from_args(args)
    center = parse_params(args.center)
    delta = as_trop(args.delta)
    K = lipschitz_estimate(s, center, delta, radius_mult=args.radius_mult)
    finite = [c for c in center.values() if not is_inf(c)]
    lo = max(min(finite) - delta, Fraction(1, 100)) if finite else Fraction(1, 100)
    hi = (max(finite) + delta) if finite else Fraction(1)
    emp = empirical_lipschitz(s, lo, hi, args.samples, args.seed)
    emit(
        {
            "series": s.to_json_dict(),
            "center": {k: fmt_trop(v) for k, v in center.items()},
            "delta": fmt_trop(delta),
            "K": fmt_trop(K),
            "empirical": fmt_trop(emp),
        },
        f"K = {fmt_trop(K)}, empirical = {fmt_trop(emp)}",
    )


def cmd_bestcase(args):
    t = term_from_args(args)
    s = best_case(t, args.target, args.depth)
    if args.eps:
        s = s.truncate(as_trop(args.eps))
    payload = {"target": args.target, "depth": args.depth, "series": s.to_json_dict()}
    if isinstance(t, T.Choice):
        goal = T.Numeral(args.target)
        payload["paths"] = [
            {"omega": w, "monomial": TropSeries.monomial(degrees, Fraction(0)).to_json_dict()}
            for w, leaf, degrees in _choice_leaves(t)
            if leaf == goal
        ]
    emit(payload, f"best case: {s!r}")


def cmd_mle(args):
    if args.series or args.coeffs:
        s = series_from_args(args)
    else:
        t = term_from_args(args)
        s = outcome_series(t, args.target, args.depth)
    p, active = mle(s)
    payload = {
        "series": s.to_json_dict(),
        "p": float(p),
        "active": None if active is None else {v: n for v, n in active.items()},
    }
    emit(payload, f"p* = {float(p):.4f}")


def cmd_adequacy(args):
    t = term_from_args(args)
    den, oper, ok = adequacy_check(
        t, args.target, caps_from_args(args), args.depth, as_trop(args.eps)
    )
    emit(
        {
            "target": args.target,
            "denotational": den.to_json_dict(),
            "operational": oper.to_json_dict(),
            "equal": ok,
        },
        "adequate" if ok else "MISMATCH",
    )


def cmd_plot(args):
    s = series_from_args(args)
    rows = plot_rows(s, None, as_trop(args.lo), as_trop(args.hi), args.steps)
    if args.format == "tsv":
        payload = [(fmt_trop(x), fmt_trop(v)) for x, v in rows]
    else:
        payload = {"rows": [{"x": fmt_trop(x), "y": fmt_trop(v)} for x, v in rows]}
    emit(payload, f"{len(rows)} samples")


# ----------------------------------------------------------------- wiring


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="tropcalc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    def term_opts(sp, dialect="pcfl"):
        sp.add_argument("file", nargs="?", help=".lam term file")
        sp.add_argument("--term", help="term source text (instead of a file)")
        sp.add_argument("--dialect", choices=T.DIALECTS, default=dialect)

    def caps_opts(sp):
        sp.add_argument("--kmax", type=int, default=Caps.k_max)
        sp.add_argument("--nmax", type=int, default=Caps.n_max)
        sp.add_argument("--fixmax", type=int, default=Caps.f_max)

    sp = add("check", cmd_check, help="parse and typecheck a term")
    term_opts(sp, "stlc")

    sp = add("interpret", cmd_interpret, help="denotation matrix of a closed term")
    term_opts(sp, "stlc")
    caps_opts(sp)
    sp.add_argument(
        "--maxbag", type=int, default=2,
        help="no effect: a closed term has only the empty context bag",
    )

    sp = add("eval", cmd_eval, help="evaluate a series or a term entry at a point")
    term_opts(sp)
    caps_opts(sp)
    sp.add_argument("--series")
    sp.add_argument("--coeffs")
    sp.add_argument("--target", type=int, default=0)
    sp.add_argument("--params", default="")

    sp = add("roots", cmd_roots, help="tropical roots of a univariate polynomial")
    sp.add_argument("--coeffs", required=True)

    sp = add("truncate", cmd_truncate, help="epsilon-truncation of a series")
    sp.add_argument("--series")
    sp.add_argument("--coeffs")
    sp.add_argument("--eps", default="1/100")

    sp = add("taylor", cmd_taylor, help="syntactic Taylor expansion of a term")
    term_opts(sp, "stlc")
    sp.add_argument("--degree", type=count_arg(0), default=2)

    sp = add("lipschitz", cmd_lipschitz, help="local Lipschitz constant of a series")
    sp.add_argument("--series")
    sp.add_argument("--coeffs")
    sp.add_argument("--center", required=True)
    sp.add_argument("--delta", default="1")
    sp.add_argument("--radius-mult", type=int, default=3)
    sp.add_argument("--samples", type=count_arg(0), default=200)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("bestcase", cmd_bestcase, help="minimum path weight to a numeral")
    term_opts(sp)
    sp.add_argument("--target", type=int, default=0)
    sp.add_argument("--depth", type=count_arg(0), default=24)
    sp.add_argument("--eps", default=None)

    sp = add("mle", cmd_mle, help="most likely bias for a weight series")
    term_opts(sp)
    sp.add_argument("--series")
    sp.add_argument("--coeffs")
    sp.add_argument("--target", type=int, default=0)
    sp.add_argument("--depth", type=count_arg(0), default=24)

    sp = add("adequacy", cmd_adequacy, help="denotational vs operational weight")
    term_opts(sp)
    caps_opts(sp)
    sp.add_argument("--target", type=int, default=0)
    sp.add_argument("--depth", type=count_arg(0), default=24)
    sp.add_argument("--eps", default="1/100")

    sp = add("plot", cmd_plot, help="sample a univariate series for plotting")
    sp.add_argument("--format", choices=("json", "tsv"), default="json")
    sp.add_argument("--series")
    sp.add_argument("--coeffs")
    sp.add_argument("--lo", default="0")
    sp.add_argument("--hi", default="1")
    # a step is the width (hi - lo) / steps, so at least one
    sp.add_argument("--steps", type=count_arg(1), default=100)

    return p


USER_ERRORS = (
    UsageError,
    T.ParseError,
    T.TypeMismatch,
    T.GradeMismatch,
    FileNotFoundError,
    ValueError,
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parse_args leaves it unchanged, and a
    fresh Namespace takes the defaults on every call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        args.fn(args)
        return 0
    except USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # invariant violation
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
