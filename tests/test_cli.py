"""End-to-end command-line invocations against golden outputs."""

import hashlib
import json
import math
import os

import pytest

from tropcalc import cli
from tropcalc.cli import main, parse_coeffs, parse_params, parse_series

TERMS = os.path.join(os.path.dirname(__file__), "..", "terms")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith(("{", "[")) else out)


# ------------------------------------------------------------ input parsing


def test_parse_helpers():
    assert parse_params("a=0.5,b=1")["b"] == 1
    s = parse_coeffs("0:1,1:1/2")
    assert len(s.coeffs) == 2
    m = parse_series("2a+b")
    assert list(m.coeffs) == [list(m.coeffs)[0]]
    assert parse_series("min{2a,3b}").coeffs != m.coeffs
    assert parse_series("1/2").constant_value() == 0.5


# -------------------------------------------------------------- subcommands


def test_roots_golden(capsys):
    code, out = run(
        capsys, "roots", "--coeffs", "0:1,1:1/2,2:1/4,3:1/8,4:1/16"
    )
    assert code == 0
    assert [r["root"] for r in out["roots"]] == ["1/2", "1/4", "1/8", "1/16"]
    assert all(r["mult"] == 1 for r in out["roots"])


def test_check_file(capsys):
    code, out = run(capsys, "check", "--dialect", "stlc", f"{TERMS}/id.lam")
    assert code == 0
    assert out["type"] == "o -> o"


def test_check_type_error(capsys):
    code, _ = run(capsys, "check", "--dialect", "stlc", "--term", "x")
    assert code == 1


def test_bad_usage_is_exit_1(capsys):
    assert main(["roots"]) == 1  # missing --coeffs
    assert main(["frobnicate"]) == 1
    assert main(["roots", "--coeffs", "0:1", "--format", "json"]) == 1  # plot only


def test_truncate(capsys):
    coeffs = ",".join(f"{d}:1/{2**d}" for d in range(21))
    code, out = run(capsys, "truncate", "--coeffs", coeffs, "--eps", "1/4")
    assert code == 0
    assert len(out["truncated"]["monomials"]) == 2


def test_interpret_identity(capsys):
    code, out = run(
        capsys, "interpret", "--dialect", "stlc", "--term", "\\x:o. x"
    )
    assert code == 0
    assert out["boolean"] is True
    assert len(out["entries"]) == 1


def test_eval_series(capsys):
    code, out = run(
        capsys, "eval", "--series", "2a+b", "--params", "a=1,b=1/2"
    )
    assert code == 0
    assert out["value"] == "5/2"


def test_taylor_expansion(capsys):
    code, out = run(
        capsys, "taylor", "--dialect", "stlc", "--term", "\\x:o. \\y:o. x y",
        "--degree", "2",
    )
    assert code == 0
    assert len(out["elements"]) == 3  # bag sizes 0, 1, 2


def test_lipschitz(capsys):
    code, out = run(
        capsys, "lipschitz", "--series", "3x", "--center", "x=1", "--delta", "1",
        "--seed", "3",
    )
    assert code == 0
    assert out["K"] == "12"  # 3*(1+3)/1


def test_bestcase_gen(capsys):
    code, out = run(
        capsys, "bestcase", f"{TERMS}/gen.lam", "--target", "0",
        "--depth", "12", "--eps", "1/100",
    )
    assert code == 0
    degs = {tuple(sorted(m["deg"].items())) for m in out["series"]["monomials"]}
    assert degs == {(("a", 2), ("b", 1)), (("a", 3),)}


def test_bestcase_choice_paths(capsys):
    code, out = run(capsys, "bestcase", f"{TERMS}/coin.lam", "--target", "0")
    assert code == 0
    assert {p["omega"] for p in out["paths"]} == {"ll", "rll", "rrr"}


def test_mle_golden(capsys):
    code, out = run(capsys, "mle", "--series", "2a+b")
    assert code == 0
    assert abs(out["p"] - 2 / 3) < 1e-4
    assert out["active"] == {"a": 2, "b": 1}


def test_mle_from_term(capsys):
    code, out = run(capsys, "mle", f"{TERMS}/coin.lam", "--target", "1")
    assert code == 0
    # False is most likely at p = 1/2 on p+p', the least of min{p+p', p+2p'}
    assert out["p"] < 0.51
    assert out["p"] == 0.5


def test_mle_primed_variable(capsys):
    # p' is the right weight of a choice: it reads as -log(1-p) even alone
    code, out = run(capsys, "mle", "--series", "2p'")
    assert code == 0
    assert out["p"] < 0.5
    code, out = run(capsys, "mle", "--series", "2p")
    assert code == 0
    assert out["p"] > 0.5
    code, out = run(capsys, "mle", "--series", "p+2p'")
    assert code == 0
    assert abs(out["p"] - 1 / 3) < 1e-4
    assert out["p"] == 1 / 3


def test_adequacy(capsys):
    code, out = run(capsys, "adequacy", f"{TERMS}/loop.lam", "--target", "0",
                    "--fixmax", "4", "--depth", "12")
    assert code == 0
    assert out["equal"] is True
    # the Kleene chain min{p, p+p', ...} is stored without its dominated tail
    assert out["denotational"]["monomials"] == [{"coeff": "0", "deg": {"p": 1}}]


@pytest.mark.parametrize("source,fixmax", [
    ([f"{TERMS}/loop.lam"], "1000"),
    (["--term", "(\\n:Nat. Y (\\x:Nat. n (+p) (a . x))) 0"], "1000"),
    ([f"{TERMS}/loop.lam"], "100000"),
], ids=["loop", "open", "loop-100000"])
def test_adequacy_deep_fixpoint(capsys, source, fixmax):
    # caps far above where the chain stabilizes, closed and under a binder:
    # levels are built on demand and the chain stops once it repeats
    code, out = run(capsys, "adequacy", *source, "--target", "0", "--fixmax", fixmax)
    assert code == 0
    assert out["equal"] is True


def test_plot_tsv(capsys):
    code = main(["plot", "--coeffs", "0:1,1:0", "--lo", "0", "--hi", "2",
                 "--steps", "4", "--format", "tsv"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0].split("\t") == ["0", "0"]
    assert out[-1].split("\t") == ["2", "1"]


def test_seed_determinism(capsys):
    argv = ["lipschitz", "--series", "min{2a,3b}", "--center", "a=1,b=1",
            "--delta", "1/2", "--seed", "11"]
    c1 = main(argv)
    o1 = capsys.readouterr().out
    c2 = main(argv)
    o2 = capsys.readouterr().out
    assert c1 == c2 == 0 and o1 == o2


def test_lipschitz_independent_of_monomial_order(capsys):
    # sampled coordinates follow the series' sorted vars, not the order
    # its monomials were written in
    got = []
    for series in ("min{b,2a+1}", "min{2a+1,b}"):
        code, out = run(capsys, "lipschitz", "--series", series,
                        "--center", "a=1,b=2", "--samples", "50")
        assert code == 0
        got.append(out["empirical"])
    assert got[0] == got[1]


@pytest.mark.parametrize("argv", [
    ["bestcase", "--term", "0", "--target", "0", "--depth", "-1"],
    ["adequacy", "--term", "0", "--target", "0", "--depth", "-1"],
    ["mle", "--term", "0", "--depth", "-1"],
    ["plot", "--coeffs", "0:1,1:0", "--steps", "-2"],
    ["plot", "--coeffs", "0:1,1:0", "--steps", "0"],
    ["lipschitz", "--coeffs", "0:1,1:0", "--center", "x=1", "--samples", "-5"],
    ["taylor", "--term", "x", "--degree", "-1"],
    ["taylor", "--term", "x", "--degree", "two"],
])
def test_bad_count_is_user_error(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: argument {argv[-2]}: ")


def test_zero_counts_are_accepted(capsys):
    code, out = run(capsys, "bestcase", "--term", "0", "--target", "0", "--depth", "0")
    assert code == 0 and out["series"]["monomials"] == [{"coeff": "0", "deg": {}}]
    code, out = run(capsys, "plot", "--coeffs", "0:1,1:0", "--steps", "1")
    assert code == 0 and len(out["rows"]) == 2


def test_zero_cap_is_user_error(capsys):
    code = main(["interpret", f"{TERMS}/id.lam", "--kmax", "0"])
    assert code == 1
    assert "all caps must be >= 1" in capsys.readouterr().err


# sha256 of stdout for the gate commands that run in about a second or
# less; a kernel change that keeps the numbers keeps these bytes
FLIP = "\\f:o->o->o. \\x:o. \\y:o. f y x"
DDF = "\\f:o->o->o. \\x:o. D[D[f,x],x] 0"
IFZ = "\\x:Nat. ifz (b . x) (c . succ x) (a . pred x)"
OPEN_Y = "(\\n:Nat. Y (\\x:Nat. n (+p) (a . x))) 0"
BSTLC_TWICE = "\\f:!2 o -o o. \\x:o. f (f x)"
F1 = "(\\f:Nat->Nat. f 1) (Y (\\g:Nat->Nat. \\n:Nat. ifz n 0 (a . g (pred n))))"
PINNED_STDOUT = [
    pytest.param(["interpret", f"{TERMS}/twice.lam", "--kmax", "4"],
                 "bbc2ab3ddb47e3aa1c175525161c64fc120528d029b4b828d00415c14367775a", id="twice"),
    # recorded when every live codomain point was probed (1 s then)
    pytest.param(["interpret", f"{TERMS}/twice.lam", "--kmax", "5"],
                 "b9bc6e6233c2cee6663c353a96c238a5d451a6844a2f9ee7f4b44d7c9f26f24c", id="twice-k5"),
    pytest.param(["interpret", "--term", FLIP, "--kmax", "2"],
                 "5d955e9a8e9cc2c34c7af635851f6df689bb5e6655877e7f457210bc7cf83ea0", id="flip"),
    pytest.param(["interpret", "--dialect", "stdlc", "--term", DDF, "--kmax", "2"],
                 "6e74d4fecdc128219e7d02ad6135864c4577705313c83017b02a4f8c85e83470", id="ddf"),
    # the same digests as when every codomain point was probed
    pytest.param(["interpret", "--term", FLIP, "--kmax", "3"],
                 "3be0a546485cbdca281a23b178cb061312e0c16ebc01e31ba6b50a033f25bebe", id="flip-k3"),
    pytest.param(["interpret", "--dialect", "stdlc", "--term", DDF, "--kmax", "3"],
                 "827bb3de785147a8103e2a3896df723de447025567a3a9e5f9a8382e315dbe92", id="ddf-k3"),
    pytest.param(["interpret", "--dialect", "pcfl", "--term", IFZ],
                 "b944cf92c3738468789e2287d962ca6d7eaf6f86f1d649d4439de5e615333430", id="ifz"),
    pytest.param(["bestcase", f"{TERMS}/gen.lam", "--depth", "200"],
                 "0d0f867661be6617921122631b91cdbf395089ea455961bb340715ae7a848672", id="gen"),
    pytest.param(["mle", f"{TERMS}/coin.lam", "--target", "1"],
                 "ed86113d88b85156089425f7f6a8e8808b0a2887b42cd3ab4436266aaa41c46b", id="coin"),
    # the denotational `vars` list variables that no printed monomial has
    # (["p", "p'"] and ["a", "p", "p'"] for min{p})
    pytest.param(["adequacy", f"{TERMS}/loop.lam", "--target", "0"],
                 "70e8d84a5c2b20c14f46cae1314aa68a99e673a02f43384bd87e4ea4d7a86c0b", id="loop"),
    pytest.param(["adequacy", "--term", OPEN_Y, "--target", "0"],
                 "bfdaf9b1e54bcd960c1ad42533883763c1a90624ad630987d65a54b5868da864", id="open-y"),
    # each entry is one branch's weight times the other branch's empty entry,
    # so its `vars` are ["p", "p'"] only if the empty entry is weighted too
    pytest.param(["interpret", "--dialect", "pcfl", "--term", "1 (+p) 2"],
                 "9acfae217e6d172e18ce0a842994e975972bed01c613a5210ba9a1397651408f", id="choice"),
    # graded lambdas take their arrow caps from the inferred grades (3 and
    # 4 here), not from --kmax
    pytest.param(["interpret", "--dialect", "bstlc", "--term", BSTLC_TWICE],
                 "45b9f5ace4ccd216d5ac95a00810ade675da4b9438a8efa8f5a3d82d0c25d245", id="bstlc-twice"),
    # a Nat->Nat fixpoint applied once, recorded when ifz and Y probed
    # their supports (13 s then)
    pytest.param(["adequacy", "--term", F1, "--target", "0", "--fixmax", "3"],
                 "f04a62fbc55d2767d03b6d194499f4718f0eb18348377296cc3f33cb9d44192a", id="f1-fixmax3"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT)
def test_pinned_stdout(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_shadowed_binder_is_the_innermost(capsys):
    code, out = run(capsys, "adequacy", "--term", "(\\x:Nat. \\x:Nat. x) 1 2", "--target", "2")
    assert code == 0 and out["equal"] is True
    assert out["denotational"]["monomials"] == [{"coeff": "0", "deg": {}}]
    code, out = run(capsys, "interpret", "--dialect", "pcfl", "--term", "\\x:o. \\x:Nat. x")
    assert code == 0
    assert out["codomain"] == "ArrowSet(UnitSet, ArrowSet(NatSet(8), NatSet(8), k=4), k=4)"
    assert len(out["entries"]) == 9


def test_interpret_maxbag_has_no_effect(capsys):
    outs = []
    for maxbag in ("1", "3"):
        assert main(["interpret", f"{TERMS}/twice.lam", "--maxbag", maxbag]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


# subcommands whose defaults differ (--eps None for bestcase, 1/100 for
# adequacy; plot's --format), after a usage error and in an order where a
# default left behind by one call would change the next one's output
PARSER_SEQUENCE = [
    ["mle", "--grid"],
    ["bestcase", f"{TERMS}/gen.lam", "--depth", "12"],
    ["adequacy", f"{TERMS}/loop.lam", "--target", "0"],
    ["bestcase", f"{TERMS}/gen.lam", "--depth", "12"],
    ["plot", "--coeffs", "0:1,1:0", "--steps", "4", "--format", "tsv"],
    ["plot", "--coeffs", "0:1,1:0", "--steps", "4"],
]


def test_parser_reused_without_leaking_state(capsys, monkeypatch):
    assert cli._parser() is cli._parser()
    shared = []
    for argv in PARSER_SEQUENCE:
        code = main(argv)
        shared.append((code, *capsys.readouterr()))
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per call
    fresh = []
    for argv in PARSER_SEQUENCE:
        code = main(argv)
        fresh.append((code, *capsys.readouterr()))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 0, 0, 0, 0, 0]
    # adequacy's eps would truncate this series to its two optima
    assert len(json.loads(shared[3][1])["series"]["monomials"]) > 2
    assert shared[4][1].startswith("0\t") and shared[5][1].startswith("{")
