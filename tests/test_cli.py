import json
import os
import subprocess
import sys

import pytest

from conftest import example1, example3, refine_fixture
from sfom import cli
from sfom import intarith as ia
from sfom.basis import global_basis


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


EX1 = "1225,1457750,70,0,1"


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
    code, _, err = run(capsys, ["basis", "--poly=-1,0,1"])
    assert code == 3
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
     "error: --known-primes: 'x' is not an integer"),
])
def test_documented_exit_codes(capsys, argv, code, message):
    got, _, err = run(capsys, argv)
    assert got in code
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == (got != 0)
    assert message in err


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
    def broken(*args, **kwargs):
        raise RuntimeError("invariant broken\nsecond line")

    monkeypatch.setattr(cli.bs, "global_basis", broken)
    code, out, err = run(capsys, ["basis", "--poly", EX1])
    assert code == 4 and out == ""
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
    for entry, why in [("x", "is not an integer"),
                       ("5.0", "is not an integer"),
                       ("7" * 5000, "is over the digit limit")]:
        if why.endswith("limit") and not hasattr(sys,
                                                 "get_int_max_str_digits"):
            continue
        code, out, err = run(capsys, ["verify", "--poly", EX1,
                                      "--known-primes", "5," + entry])
        assert code == 2 and out == ""
        assert err == f"error: --known-primes: {entry[:40]!r} {why}\n"


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
    assert code == 0 and svg.read_text().startswith("<svg")


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


def test_seed_byte_stability(capsys):
    # no seed to fix: the prime engine's splitting stream is fixed
    a = run(capsys, ["basis", "--poly", EX1])[1]
    b = run(capsys, ["basis", "--poly", EX1])[1]
    assert a == b


def test_seed_is_not_an_option(capsys):
    code, _, err = run(capsys, ["basis", "--seed", "7", "--poly", EX1])
    assert code == 2 and "unrecognized arguments: --seed 7" in err
