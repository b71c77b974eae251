"""Command line: basis / tree / polygon / verify.

Polynomials are given as comma-separated integer coefficients in ascending
order (constant first), as a file containing the same, or as `-` for stdin.
All JSON output serializes big integers as decimal strings.  Exit codes:
0 success, 2 malformed input, a usage error or an unwritable --svg path,
3 input reducible over Z (flagged up front or certified by a factor the tree
finds), 4 internal invariant failure.  Exit-2 and exit-3 errors are a
ValueError and a ReducibleInput that `main` prints as one `error: ...` line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys

from . import basis as bs
from . import intarith as ia
from .artinalg import AlgebraTower
from .sfom import ReducibleInput, sfom as run_tree
from . import sftypes as st
from .intarith import IntPoly


def _read_int(option: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        why = ("over the digit limit" if re.fullmatch(r"\s*[+-]?\d+\s*", text)
               else "not an integer")
        raise ValueError(f"{option}: {why}: {text[:40]!r}") from None


def _read_poly(source: str) -> IntPoly:
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source) as handle:
                text = handle.read()
        except OSError:
            text = source
    f = ia.ptrim([_read_int("--poly", part)
                  for part in text.replace(",", " ").split()])
    if ia.pdeg(f) < 2 or f[-1] != 1:
        raise ValueError("need a monic polynomial of degree > 1 "
                         "(ascending coefficients)")
    return f


@contextlib.contextmanager
def _unlimited_digits():
    """Lift Python's int-to-str digit limit while computed results are
    serialized; input parsing keeps the default limit."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python without the limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# word-size primes whose reductions certify that f is squarefree
_SQUAREFREE_PRIMES = (2147483647, 2147483629, 2147483587)


def _squarefree_mod_primes(f: IntPoly) -> bool:
    """True when gcd(f mod p, f' mod p) is constant for one of a few fixed
    primes p; since f is monic, disc f is then nonzero mod p.  False means
    only that no prime was conclusive."""
    for p in _SQUAREFREE_PRIMES:
        tower = AlgebraTower(p)
        fp = tower.p_from_int_poly(f)
        if tower.p_gcd(fp, tower.p_deriv(fp)).degree() == 0:
            return True
    return False


def detect_reducible(f: IntPoly) -> bool:
    """Best-effort rational-root flag: the roots among the integers in
    [-50, 50] and, when |f(0)| <= 10^6, the divisors of f(0).  As
    f(k) = f(0) (mod k), only the candidates k that divide f(0) can be
    roots, so only those are tried."""
    c0 = abs(f[0])
    if c0 == 0:
        return True
    small = c0 <= 10 ** 6
    for d in range(1, (math.isqrt(c0) if small else 50) + 1):
        if c0 % d == 0:
            for k in (d, c0 // d) if small else (d,):
                if ia.peval(f, k) == 0 or ia.peval(f, -k) == 0:
                    return True
    return False


def _gated_disc(f: IntPoly, disc: int | None) -> int:
    """The D to work with (--disc, else disc f) once f passes the up-front
    reducibility flags; ReducibleInput(None) when one of them fires."""
    if disc is None:
        D = ia.discriminant(f)
        squarefree = D != 0
    else:
        # the exact disc f is needed only when no prime is conclusive
        D = disc
        squarefree = _squarefree_mod_primes(f) or ia.discriminant(f) != 0
    if not squarefree or detect_reducible(f):
        raise ReducibleInput(None)
    return D


def cmd_basis(args) -> int:
    f = _read_poly(args.poly)
    result = bs.global_basis(f, _gated_disc(f, args.disc))
    with _unlimited_digits():
        obj = result.to_obj()
        if args.merged_only:
            obj = {"f": obj["f"], "global": obj["global"]}
        print(json.dumps(obj))
    return 0


def _tree_or_factor(args):
    """(f, tree outcome) for --poly and --modulus; the outcome is None after
    a detected factor of the modulus has been printed."""
    f = _read_poly(args.poly)
    if args.modulus > 1 and any(args.modulus % p == 0
                                for p in range(2, ia.pdeg(f) + 1)):
        raise ValueError("--modulus must have no prime factor <= deg f")
    out = run_tree(f, args.modulus)
    if out.n_factor is not None:
        with _unlimited_digits():
            print(json.dumps({"n_factor": str(out.n_factor)}))
        return f, None
    return f, out


def cmd_tree(args) -> int:
    _, out = _tree_or_factor(args)
    if out is not None:
        with _unlimited_digits():
            print(json.dumps(out.rep.to_obj()))
    return 0


def cmd_polygon(args) -> int:
    f, out = _tree_or_factor(args)
    if out is None:
        return 0
    leaves = out.rep.leaves
    if not (0 <= args.leaf < len(leaves)):
        raise ValueError("no such leaf")
    leaf = leaves[args.leaf]
    if not (1 <= args.level <= leaf.order):
        raise ValueError("no such level")
    node = leaf.trunc(args.level)
    polygon = st.NewtonPolygon.from_cloud(
        st.cloud(node.parent, st.expand(f, node.g).coeffs))
    print(st.polygon_dump(polygon))
    if args.svg:
        try:
            with open(args.svg, "w") as handle:
                handle.write(st.polygon_svg(polygon))
        except OSError as exc:
            raise ValueError(f"--svg: cannot write {args.svg!r}: "
                             f"{exc.strerror}") from None
    return 0


def cmd_verify(args) -> int:
    from . import validate as vd  # the oracles load only for this command

    f = _read_poly(args.poly)
    primes = []  # first occurrences, in order
    for entry in filter(None, args.known_primes.split(",")):
        p = _read_int("--known-primes", entry)
        if not ia.is_probable_prime(p):
            raise ValueError(f"--known-primes: {p} is not prime")
        if p not in primes:
            primes.append(p)
    D = _gated_disc(f, args.disc)
    with _unlimited_digits():  # check names and details print the moduli
        checks = vd.verify_report(f, D, primes,
                                  disc=D if args.disc is None else None)
        print(json.dumps(checks))
    return 0 if all(c["status"] == "pass" for c in checks) else 1


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as a ValueError for `main` to print as one line."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call to `main`."""
    parser = _Parser(
        prog="sfom",
        description="integral bases of number fields modulo composite integers")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--poly", required=True,
                       help="ascending integer coefficients, a file, or -")

    p = sub.add_parser("basis", help="global integral basis")
    common(p)
    p.add_argument("--disc", default=None,
                   help="work with this integer instead of disc(f)")
    p.add_argument("--merged-only", action="store_true")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("tree", help="serialized tree for one modulus")
    common(p)
    p.add_argument("--modulus", required=True)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("polygon", help="polygon dump for a leaf level")
    common(p)
    p.add_argument("--modulus", required=True)
    p.add_argument("--level", required=True)
    p.add_argument("--leaf", default="0")
    p.add_argument("--svg", default=None, help="also write an SVG file here")
    p.set_defaults(func=cmd_polygon)

    p = sub.add_parser("verify", help="run the oracle suite")
    common(p)
    p.add_argument("--disc", default=None)
    p.add_argument("--known-primes", default="",
                   help="comma-separated primes for maximality checks")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        for name in ("disc", "modulus", "level", "leaf"):  # integer options
            if getattr(args, name, None) is not None:
                setattr(args, name, _read_int(f"--{name}", getattr(args, name)))
        return args.func(args)
    except SystemExit:  # --help
        return 0
    except ReducibleInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as exc:
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: internal: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
