import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from conftest import example1, example2, example3, refine_fixture
from sfom import cli
from sfom import intarith as ia
from sfom.artinalg import NonExactDivision
from sfom.basis import global_basis


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


EX1 = "1225,1457750,70,0,1"
# one digit over Python's default int-to-str limit, where it has one
OVER = "7" * 4301
_has_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="Python without the default int-to-str digit limit")


def test_basis_example1(capsys):
    code, out, _ = run(capsys, ["basis", "--poly", EX1])
    assert code == 0
    obj = json.loads(out)
    assert obj["f"][0] == "1225"
    mods = {m["N"]: m for m in obj["moduli"]}
    assert "35" in mods or {"5", "7"} <= set(mods)
    assert obj["global"]["den"] == "1225"
    # den_exp pattern 0,0,1,2 for the 35-block
    if "35" in mods:
        assert sorted(e["den_exp"] for e in mods["35"]["basis"]) == [0, 0, 1, 2]


def test_basis_power_field(capsys):
    code, out, _ = run(capsys, ["basis", "--poly", "1,0,1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["global"] == {"den": "1", "hnf": [["1", "0"], ["0", "1"]]}


def test_basis_merged_only(capsys):
    code, out, _ = run(capsys, ["basis", "--poly", "1,0,1", "--merged-only"])
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"f", "global"}


def test_malformed_input(capsys, tmp_path):
    code, _, _ = run(capsys, ["basis", "--poly", "2,0,2"])  # not monic
    assert code == 2
    code, _, err = run(capsys, ["basis", "--poly", "abc"])
    assert code == 2
    assert err == "error: --poly: not an integer: 'abc'\n"
    code, _, err = run(capsys, ["basis", "--poly", "1,x,1"])
    assert code == 2
    assert err == "error: --poly: not an integer: 'x'\n"
    # a directory is not a readable file, so its name is parsed as the text
    code, _, err = run(capsys, ["basis", "--poly", str(tmp_path)])
    assert code == 2
    assert err == f"error: --poly: not an integer: {str(tmp_path)[:40]!r}\n"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # input parsing keeps Python's digit limit
        digits = "7" * (limit + 1)
        code, _, err = run(capsys, ["basis", "--poly", f"1,{digits},1"])
        assert code == 2
        assert err == f"error: --poly: over the digit limit: {digits[:40]!r}\n"


def test_reducible_input(capsys):
    # flagged up front, then certified by the factor x^2+1 the tree finds at
    # 3: both leave through `main` with the same one line
    for poly in ("-1,0,1", "1,0,0,0,0,0,1"):
        code, out, err = run(capsys, ["basis", "--poly=" + poly])
        assert (code, out) == (3, "")
        assert err == "error: polynomial is reducible over Z\n"
    code, _, _ = run(capsys, ["basis", "--poly", "1,2,1"])  # (x+1)^2
    assert code == 3


@pytest.mark.parametrize("argv, code, message", [
    # x^6+1 = (x^2+1)(x^4-x^2+1) has no rational root, so it passes the
    # reducibility flags; the tree at 3 certifies the factor x^2+1
    (["basis", "--poly", "1,0,0,0,0,0,1"], (3,), ""),
    # primes <= deg f break the squarefree decomposition preconditions
    (["tree", "--poly", "4,0,1", "--modulus", "2"], (2,), "prime factor"),
    (["tree", "--poly", EX1, "--modulus", "105"], (2,), "prime factor"),
    (["polygon", "--poly", EX1, "--modulus", "6", "--level", "1"], (2,),
     "prime factor"),
    # (x^2+1)(x^2+8) = (x^2+1)^2 mod 7: no rational root either
    (["basis", "--poly", "8,0,9,0,1"], (3,), "reducible"),
    (["verify", "--poly", "1,0,0,0,0,0,1"], (3,), "reducible"),
    (["tree", "--poly", "8,0,9,0,1", "--modulus", "7"], (3,), "reducible"),
    # the prime trees stop once more than the composite one at 35; every
    # check passes, the projections included
    (["verify", "--poly", ",".join(map(str, refine_fixture(35))),
      "--known-primes", "5,7"], (0,), ""),
    # (x+1)(x+2): verify applies the same up-front flags as basis
    (["verify", "--poly", "2,3,1"], (3,), "reducible"),
    # a repeated known prime is checked once
    (["verify", "--poly", EX1, "--known-primes", "5,5"], (0,), ""),
    (["verify", "--poly", EX1, "--known-primes", "x"], (2,),
     "error: --known-primes: not an integer: 'x'"),
    # a zero --disc is rejected as such; f itself is squarefree
    (["basis", "--poly", EX1, "--disc", "0"], (2,), "nonzero"),
    (["verify", "--poly", EX1, "--disc", "0"], (2,), "nonzero"),
    # the tree of EX1 at 35 has one leaf, of order 2
    (["polygon", "--poly", EX1, "--modulus", "35", "--level", "1",
      "--leaf", "9"], (2,), "error: no such leaf"),
    (["polygon", "--poly", EX1, "--modulus", "35", "--level", "0"], (2,),
     "error: no such level"),
    (["polygon", "--poly", EX1, "--modulus", "35", "--level", "3"], (2,),
     "error: no such level"),
    (["basis", "--poly", "2,0,2"], (2,), "error: need a monic polynomial of "
     "degree > 1 (ascending coefficients)"),
    (["tree", "--poly", EX1, "--modulus", "1"], (2,), "error: need N > 1"),
    # f(0) = 0: x is a factor
    (["basis", "--poly", "0,1,1"], (3,), "reducible"),
    # 0 and -35 are divisible by primes <= deg f, but they are no modulus
    (["tree", "--poly", EX1, "--modulus", "0"], (2,), "error: need N > 1"),
    (["polygon", "--poly", "2,0,0,0,0,1", "--modulus", "-35", "--level",
      "1"], (2,), "error: need N > 1"),
    # integer options: one line that quotes at most 40 characters
    pytest.param(["basis", "--poly", EX1, "--disc", OVER], (2,),
                 f"error: --disc: over the digit limit: {OVER[:40]!r}\n",
                 marks=_has_limit, id="disc-over-the-digit-limit"),
    (["verify", "--poly", EX1, "--disc", "x"], (2,),
     "error: --disc: not an integer: 'x'\n"),
    pytest.param(["tree", "--poly", EX1, "--modulus", OVER], (2,),
                 f"error: --modulus: over the digit limit: {OVER[:40]!r}\n",
                 marks=_has_limit, id="modulus-over-the-digit-limit"),
    (["tree", "--poly", EX1, "--modulus", "3.5"], (2,),
     "error: --modulus: not an integer: '3.5'\n"),
    pytest.param(["polygon", "--poly", EX1, "--modulus", "35", "--level",
                  OVER], (2,),
                 f"error: --level: over the digit limit: {OVER[:40]!r}\n",
                 marks=_has_limit, id="level-over-the-digit-limit"),
    (["polygon", "--poly", EX1, "--modulus", "35", "--level", "one"], (2,),
     "error: --level: not an integer: 'one'\n"),
])
def test_documented_exit_codes(capsys, argv, code, message):
    got, _, err = run(capsys, argv)
    assert got in code
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == (got != 0)
    assert message in err


@pytest.mark.parametrize("argv, message", [
    # a value that starts with "-" and a digit but is no number
    (["verify", "--poly", "-5,3,1"], "argument --poly: expected one argument"),
    (["verify"], "the following arguments are required: --poly"),
    ([], "the following arguments are required: command"),
    (["basis", "--poly", EX1, "--bogus"], "unrecognized arguments: --bogus"),
    (["basis", "--poly", EX1, "extra"], "unrecognized arguments: extra"),
], ids=["option-like-value", "missing-poly", "no-command", "unknown-option",
        "extra-positional"])
def test_usage_errors_are_one_line(capsys, argv, message):
    # argparse's own errors leave through `main` like every other exit 2
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [["-h"], ["tree", "--help"]])
def test_help_exits_0(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "") and out.startswith("usage: sfom")


def test_consecutive_calls_share_no_state(capsys):
    code, out, _ = run(capsys, ["basis", "--poly", "1,0,1", "--merged-only"])
    assert code == 0 and set(json.loads(out)) == {"f", "global"}
    code, out, _ = run(capsys, ["basis", "--poly", "1,0,1"])
    assert code == 0 and "moduli" in json.loads(out)
    code, _, err = run(capsys, ["basis"])  # no --poly
    assert code == 2 and "--poly" in err
    code, out, _ = run(capsys, ["basis", "--poly", "1,0,1"])
    assert code == 0 and "moduli" in json.loads(out)


def test_parser_is_built_on_first_use():
    # importing the CLI builds no parser, so its import time does not grow
    script = "import sfom.cli as c; print(c._parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                         capture_output=True, check=True).stdout
    assert out.split() == ["0"]
    assert cli._parser() is cli._parser()


def test_internal_error_exits_4_with_one_line(capsys, monkeypatch):
    # NonExactDivision is a RuntimeError, so `main` names it nowhere
    for error in (RuntimeError, AssertionError, NonExactDivision):
        def broken(*args, **kwargs):
            raise error("invariant broken\nsecond line")

        monkeypatch.setattr(cli.bs, "global_basis", broken)
        code, out, err = run(capsys, ["basis", "--poly", EX1])
        assert code == 4 and out == "", error
        assert err == "error: internal: invariant broken second line\n"


# degree 30 with small coefficients: per-modulus numerators N^k run past
# Python's 4,300-digit int-to-str limit
BIG_OUTPUT = ("-66,45,95,-84,-35,-70,26,94,15,20,66,-3,-47,-76,24,-93,-1,10,55,"
              "95,96,-100,78,14,-32,84,-42,51,-74,-19,1")


def test_basis_output_above_digit_limit(capsys):
    code, out, err = run(capsys, ["basis", "--poly=" + BIG_OUTPUT])
    assert code == 0, err
    assert max(len(tok) for tok in out.split('"')) > 4300
    f = tuple(int(c) for c in BIG_OUTPUT.split(","))
    with cli._unlimited_digits():
        expected = global_basis(f).to_obj()
    assert json.loads(out) == expected
    # the limit is back once the output is written
    with pytest.raises(ValueError):
        str(10 ** 5000)


def test_basis_disc_skips_the_full_discriminant(capsys, monkeypatch):
    # degree 24: squarefree is certified modulo small primes instead
    N = 10007 * 10009
    f, _ = example3(2, N)
    expected = global_basis(f, N).to_obj()

    def no_discriminant(f):
        raise AssertionError("full discriminant computed")

    monkeypatch.setattr(ia, "discriminant", no_discriminant)
    code, out, err = run(capsys, ["basis", "--poly=" + ",".join(map(str, f)),
                                  "--disc", str(N)])
    assert code == 0, err
    assert json.loads(out) == expected


def test_basis_disc_still_rejects_repeated_factors(capsys):
    # (x^2+1)^2 has no rational root; no prime certifies it squarefree and
    # the exact discriminant is 0
    code, _, err = run(capsys, ["basis", "--poly", "1,0,2,0,1", "--disc", "5"])
    assert code == 3 and "reducible" in err


def test_verify_computes_the_discriminant_once(capsys, monkeypatch):
    # without --disc the gate's disc f is the one the index identity checks;
    # with --disc a multiple of disc f, the identity still checks disc f
    f = example1(35)
    disc, calls = ia.discriminant(f), []

    def counting_discriminant(g):
        calls.append(g)
        return disc

    monkeypatch.setattr(ia, "discriminant", counting_discriminant)
    for extra in ([], ["--disc", str(11 * disc)]):
        calls.clear()
        code, out, err = run(capsys, ["verify", "--poly", EX1,
                                      "--known-primes", "5,7"] + extra)
        assert code == 0, err
        assert calls == [f]
        assert {"check": "index-discriminant", "status": "pass",
                "details": ""} in json.loads(out)


@pytest.mark.parametrize("primes", ["6", "1", "0", "35", "5,6"])
def test_verify_rejects_non_prime_known_primes(capsys, primes):
    code, out, err = run(capsys, ["verify", "--poly", EX1,
                                  "--known-primes", primes])
    bad = [p for p in primes.split(",") if p not in ("5", "7")][0]
    assert code == 2 and out == ""
    assert err.strip() == f"error: --known-primes: {bad} is not prime"


def test_verify_drops_repeated_known_primes(capsys):
    code, once, _ = run(capsys, ["verify", "--poly", EX1,
                                 "--known-primes", "5,7"])
    assert code == 0
    code, out, _ = run(capsys, ["verify", "--poly", EX1,
                                "--known-primes", "5,7,5,,7"])
    assert code == 0 and out == once
    names = [c["check"] for c in json.loads(out)]
    assert len(names) == len(set(names))
    assert names[-4:] == ["p-maximal-5", "project-35-5",
                          "p-maximal-7", "project-35-7"]


def test_verify_rejects_non_integer_known_primes(capsys):
    for entry, why in [("x", "not an integer"),
                       ("5.0", "not an integer"),
                       ("7" * 5000, "over the digit limit")]:
        if why.endswith("limit") and not hasattr(sys,
                                                 "get_int_max_str_digits"):
            continue
        code, out, err = run(capsys, ["verify", "--poly", EX1,
                                      "--known-primes", "5," + entry])
        assert code == 2 and out == ""
        assert err == f"error: --known-primes: {why}: {entry[:40]!r}\n"


def test_tree_golden(capsys):
    code, out, _ = run(capsys, ["tree", "--poly", EX1, "--modulus", "35"])
    assert code == 0
    obj = json.loads(out)
    assert obj["N"] == "35"
    chain = obj["leaves"][0]
    assert [node["lambda"] for node in chain] == [[0, 1], [1, 2], [3, 2]]
    assert chain[2]["g"] == ["35", "0", "1"]


def test_tree_reports_factor(capsys):
    code, out, _ = run(capsys, ["tree", "--poly", EX1, "--modulus", "1225"])
    assert code == 0
    assert json.loads(out) == {"n_factor": "35"}
    code, out, _ = run(capsys, ["polygon", "--poly", EX1, "--modulus", "1225",
                                "--level", "1"])
    assert code == 0
    assert json.loads(out) == {"n_factor": "35"}


def test_polygon_golden(capsys, tmp_path):
    code, out, _ = run(capsys, ["polygon", "--poly", EX1, "--modulus", "35",
                                "--level", "1"])
    assert code == 0
    assert out.strip() == "0 2\n4 0\nside 1/2 0 4"
    code, out, _ = run(capsys, ["polygon", "--poly", EX1, "--modulus", "35",
                                "--level", "2"])
    assert out.strip() == "0 7\n2 4\nside 3/2 0 2"
    svg = tmp_path / "poly.svg"
    code, _, _ = run(capsys, ["polygon", "--poly", EX1, "--modulus", "35",
                              "--level", "1", "--svg", str(svg)])
    assert code == 0 and svg.read_text() == POLYGON_SVG


# the level-1 polygon of example1(35): vertices (0, 2) and (4, 0), and the
# point (2, 1) of its cloud, all at most max u = 2 and so all drawn
POLYGON_SVG = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="240" height="160">'
    '<polyline points="40,40 200,120" fill="none" stroke="black"'
    ' stroke-width="2"/><circle cx="40" cy="40" r="4"/>'
    '<circle cx="120" cy="80" r="4"/><circle cx="200" cy="120" r="4"/></svg>')


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_polygon_unwritable_svg_exits_2(capsys, tmp_path, where):
    path = tmp_path / "no" / "x.svg" if where == "missing_dir" else tmp_path
    code, out, err = run(capsys, ["polygon", "--poly", EX1, "--modulus", "35",
                                  "--level", "1", "--svg", str(path)])
    assert code == 2
    assert out.strip() == "0 2\n4 0\nside 1/2 0 4"
    assert err.startswith(f"error: --svg: cannot write {str(path)!r}: ")
    assert len(err.strip().splitlines()) == 1


def test_poly_from_file_and_stdin(capsys, tmp_path, monkeypatch):
    path = tmp_path / "poly.txt"
    path.write_text("1, 0, 1\n")
    code, out, _ = run(capsys, ["basis", "--poly", str(path)])
    assert code == 0
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("1 0 1"))
    code, out, _ = run(capsys, ["basis", "--poly", "-"])
    assert code == 0


def test_verify_cli(capsys):
    code, out, _ = run(capsys, ["verify", "--poly", EX1,
                                "--known-primes", "5,7"])
    assert code == 0
    checks = json.loads(out)
    assert all(c["status"] == "pass" for c in checks)


def test_verify_cli_degree_24(capsys):
    f, _ = example3(2, 35)
    code, out, _ = run(capsys, ["verify", "--poly=" + ",".join(map(str, f)),
                                "--known-primes", "5,7"])
    assert code == 0
    checks = json.loads(out)
    assert {"elements-integral", "p-maximal-5", "p-maximal-7"} <= {
        c["check"] for c in checks}
    assert all(c["status"] == "pass" for c in checks), checks


# sha256 of json.dumps([exit code, stdout, stderr]) of `verify` on the bench
# `verify` fixtures, example3(2, 35), example1(35) without known primes, and
# example1(10007^2 * 10009), whose order is not maximal at 10007 (exit 1,
# `p-maximal-10007` and `project-...-10007` fail), so its maximality step
# enlarges; a change to any check's verdict, name, order or details fails here
VERIFY_DIGESTS = {
    "example1_35": (
        example1(35), "5,7",
        "a0bee04259acfe388ecd49e8dda1abad8e127dc8ecbe6859cfade536002b861b"),
    "example2_11_3_5": (
        example2(11, 3, 5), "11",
        "8c42dd604465ba68aab96faf9a4852a300b52e3f785ab8d350fa42ab6d34365c"),
    "example3_r1_35": (
        example3(1, 35)[0], "5,7",
        "75b5a4c7a8621592781e29854cf55d16c61f419edffcf0859792bfc99fe532b5"),
    "example3_r2_35": (
        example3(2, 35)[0], "5,7",
        "75b5a4c7a8621592781e29854cf55d16c61f419edffcf0859792bfc99fe532b5"),
    "refine_fixture_35": (
        refine_fixture(35), "5,7",
        "a0bee04259acfe388ecd49e8dda1abad8e127dc8ecbe6859cfade536002b861b"),
    "example1_35_no_known_primes": (
        example1(35), None,
        "6f3f8458bd079b7510ff6d18c5d693d18166bc03db702e79bc6cfee22c043c42"),
    "example1_10007sq_10009": (
        example1(10007 ** 2 * 10009), "10007,10009",
        "3b50382fa656bfaad6e65c564d434e158460cbc37bec993f2ef979e87194de93"),
}


@pytest.mark.parametrize("name", VERIFY_DIGESTS)
def test_verify_bytes_are_pinned(capsys, name):
    f, primes, digest = VERIFY_DIGESTS[name]
    argv = ["verify", "--poly=" + ",".join(map(str, f))]
    if primes is not None:
        argv += ["--known-primes", primes]
    got = json.dumps(list(run(capsys, argv)))
    assert hashlib.sha256(got.encode()).hexdigest() == digest


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python without the int-to-str digit limit")
def test_verify_names_moduli_over_the_digit_limit(capsys):
    # f = (x - r)^2 g mod p with 30-digit lifts: disc f has 798 digits, and
    # global_basis keeps a 797-digit modulus that p divides, so the check
    # named project-<N>-p needs str(N) beyond the lowest limit Python allows
    rng = random.Random(5)
    p = 1000003
    r = rng.randrange(p)
    g = tuple(rng.randrange(p) for _ in range(10)) + (1,)
    fp = ia.pmul(ia.pmul((-r, 1), (-r, 1)), g)
    f = [c % p + p * rng.randrange(10 ** 30) for c in fp[:12]] + [1]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, ["verify", "--poly=" + ",".join(
            map(str, f)), "--known-primes", str(p)])
    finally:
        sys.set_int_max_str_digits(old)
    assert (code, err) == (0, "")
    checks = json.loads(out)
    assert all(c["status"] == "pass" for c in checks), checks
    assert any(c["check"].startswith("project-") and
               c["check"].endswith(f"-{p}") for c in checks)


def test_seed_byte_stability(capsys):
    # no seed to fix: the prime engine's splitting stream is fixed
    a = run(capsys, ["basis", "--poly", EX1])[1]
    b = run(capsys, ["basis", "--poly", EX1])[1]
    assert a == b


def test_seed_is_not_an_option(capsys):
    code, _, err = run(capsys, ["basis", "--seed", "7", "--poly", EX1])
    assert code == 2 and "unrecognized arguments: --seed 7" in err
