"""Build bench/references/: reference lattices and the known failures.

    python3 bench/make_refs.py

For every `basis` input of the benchmark this computes the merged global
lattice (den and HNF rows) through the library and confirms it with the
independent oracles of ``sfom.validate`` before storing it:

* ``p_maximal`` at the known primes of the fixture modulus, and at every
  prime below 10^5 whose square divides D (this covers the primes <= deg f);
* for the default D = disc(f), also ``ring_closed`` and the index identity
  disc(f) = [O : Z[theta]]^2 disc(O), which stand in for the primes of D
  that are not known.

The maximal order's HNF is unique, so a stored reference does not depend on
how the program computes it.  The random-field pool is drawn here, once,
from a fixed seed (see ``inputs.draw_pool``); each draw gets a reference for
itself and one for its reflection.

It then sends every input once through the benchmark's own cases (run.py),
the random fields both plain and reflected, and stores under "failures" the
reason each failing input fails with.  A run times none of those inputs
(nor the other way round of a failing random draw); a traced run probes
them once each.  So rebuilding the files changes the timed inputs to the
ones the program passes then: check the list it prints against the
defects in README.md.  One file per workload, so that a run
loads only its own.  Takes about ten minutes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
from sfom import basis as bs  # noqa: E402
from sfom import intarith as ia  # noqa: E402
from sfom import validate as vd  # noqa: E402

TRIAL_BOUND = 10 ** 5


def square_primes(D: int) -> list[int]:
    """Primes below TRIAL_BOUND whose square divides D."""
    return [p for p in ia._small_primes(TRIAL_BOUND) if D % (p * p) == 0]


def confirm(f, D_user, lattice, known_primes) -> list[str]:
    """Run the oracles on one reference; returns the checks that passed."""
    D = ia.discriminant(f) if D_user is None else D_user
    primes = sorted(set(known_primes) | set(square_primes(D)))
    done = []
    for p in primes:
        if not vd.p_maximal(lattice, f, p):
            raise SystemExit(f"reference is not {p}-maximal")
        done.append(f"p-maximal-{p}")
    if D_user is None:
        if not vd.ring_closed(lattice, f):
            raise SystemExit("reference is not a ring")
        if not vd.index_disc_identity(lattice, f):
            raise SystemExit("reference fails the index identity")
        done += ["ring-closed", "index-discriminant"]
    else:
        index = lattice.index_over_power_basis()
        for p in known_primes:
            while index % p == 0:
                index //= p
        if index != 1:
            raise SystemExit("reference index has primes outside D")
        done.append("index-over-D")
    return done


def reference(f, D, known_primes, label):
    t0 = time.perf_counter()
    lattice = bs.global_basis(f, D).merged
    checks = confirm(f, D, lattice, known_primes)
    print(f"{label}: deg {ia.pdeg(f)}, {time.perf_counter() - t0:.2f} s, "
          f"{', '.join(checks)}", flush=True)
    return {"den": str(lattice.den),
            "hnf": [[str(x) for x in row] for row in lattice.rows]}


def failures(cases) -> dict:
    """name -> reason, for every case that fails when called once."""
    out = {}
    for case in cases:
        try:
            outcome, error = case.call(), None
        except Exception as exc:  # recorded like run.py records it
            outcome, error = None, exc
        verdict = run.judge(case, outcome, error)
        if verdict is not None:
            if verdict[0] != "failed":
                raise SystemExit(f"{case.name}: {verdict[1]}")
            out[case.name] = verdict[1]
            print(f"fails: {case.name}: {verdict[1]}", flush=True)
    return out


def main() -> None:
    N = inputs.FIXTURE_N
    known = (10007, 10009)
    if known[0] * known[1] != N:
        raise SystemExit("fixture primes do not match FIXTURE_N")
    refs = {"towers": {"fixture_N": str(N), "lattices": {}},
            "full_disc": {"fixture_N": str(N), "lattices": {}}}
    for name, f in inputs.tower_fixtures(N):
        refs["towers"]["lattices"][name] = reference(
            f, N, known, f"towers/{name}")
        refs["full_disc"]["lattices"][name] = reference(
            f, None, known, f"full_disc/{name}")
    pool = inputs.draw_pool()
    refs["random_fields"] = {
        "pool_seed": inputs.POOL_SEED,
        "height": inputs.RANDOM_HEIGHT,
        "pool": {str(d): [dict(
            f=[str(c) for c in f],
            plain=reference(f, None, (), f"random/{d}/{k}"),
            reflected=reference(inputs.reflect(f), None, (),
                                f"random/{d}/{k}/reflected"))
            for k, f in enumerate(fs)] for d, fs in pool.items()},
    }
    refs["verify"] = {}
    for workload, table in refs.items():
        cases = (run.random_cases(table, inputs.every_draw())
                 if workload == "random_fields"
                 else run.fixture_cases(workload, table))
        table["failures"] = failures(cases)
    (BENCH / "references").mkdir(exist_ok=True)
    for workload, table in refs.items():
        path = BENCH / "references" / f"{workload}.json"
        path.write_text(json.dumps(table, separators=(",", ":")) + "\n")
        print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
