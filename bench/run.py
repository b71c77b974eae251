"""sfom benchmark: four workloads timed end to end, or traced per layer.

    python3 bench/run.py --workload towers --seed 0 --seconds 28 --trace 0

Workloads (see bench/README.md for why each exists):

  towers         library ``sfom.global_basis(f, D=N)`` on the fixtures
  full_disc      CLI ``basis`` (default D = disc f) on the same fixtures
  random_fields  CLI ``basis`` on random monic fields picked by the seed
  verify         CLI ``verify --known-primes`` on small fixtures

One caller, one process, no threads: each input goes through the entry point
after the previous one returned (a closed loop).  A run repeats whole passes
over the inputs until ``--seconds`` would be exceeded, always at least one.
Every output is checked outside the timed region: ``basis`` outputs against
the reference lattices in ``references/<workload>.json``, ``verify`` outputs
by their check statuses.  Any failure of a timed input makes the run
incorrect.

The inputs that fail at the seed commit (the "failures" of the references,
each with its reason) are not timed: they are the known defects listed in
README.md.  ``--trace 1`` sends each of them once more, after the traced
passes, and reports how many still fail; one that fails for another reason
makes the run incorrect, and one that passes must give the right answer.

``--trace 0`` prints the end-to-end metrics, in seconds normalized by a CPU
calibration taken right before each input (calib.py).  ``--trace 1``
alternates an untraced and a traced pass and prints the per-layer metrics.
The last line of stdout is the result object; the line before it carries
provenance, sample counts, measured seconds and the failures seen.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("towers", "full_disc", "random_fields", "verify")
SETUP_REPEATS = 15


def import_sfom():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "sfom" / "__init__.py").is_file():
        raise SystemExit(f"error: no sfom package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sfom

    if Path(sfom.__file__).resolve().parent != SRC / "sfom":
        raise SystemExit(f"error: imported sfom from {sfom.__file__}")
    return sfom


sfom = import_sfom()
import calib  # noqa: E402
import inputs  # noqa: E402  (needs sfom on the path)
from layers import LAYERS, LayerTrace  # noqa: E402


# ---------------------------------------------------------------------------
# one input: a timed call and a check of its output


class Case:
    """One workload input: `call` is timed, `check` judges its outcome.

    `check` gets the value `call` returned and answers None when the output
    is right, ("failed", why) when the program reported an error, or
    ("wrong", why) when it returned an answer that is not correct.
    """

    def __init__(self, name, call, check):
        self.name, self.call, self.check = name, call, check


def judge(case: Case, outcome, error):
    """The verdict on one call of `case`: its check, or ("failed", why)
    when the call raised `error`."""
    if error is not None:
        return ("failed", f"{type(error).__name__}: {error}")
    return case.check(outcome)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sfom.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def poly_arg(f) -> str:
    # the '=' form: a leading '-' would otherwise be parsed as an option
    return "--poly=" + ",".join(str(c) for c in f)


def cli_error(code, err):
    lines = err.strip().splitlines()
    return ("failed", f"exit {code}: {lines[-1] if lines else ''}")


def basis_check(ref):
    def check(outcome):
        code, out, err = outcome
        if code != 0:
            return cli_error(code, err)
        merged = json.loads(out)["global"]
        if merged["den"] != ref["den"] or merged["hnf"] != ref["hnf"]:
            return ("wrong", "merged lattice differs from the reference")
        return None
    return check


def lattice_check(ref):
    den = int(ref["den"])
    rows = tuple(tuple(int(x) for x in row) for row in ref["hnf"])

    def check(result):
        lat = result.merged
        if lat.den != den or lat.rows != rows:
            return ("wrong", "merged lattice differs from the reference")
        return None
    return check


def verify_check(primes):
    expected = {"basis-count", "ring-closed", "index-discriminant",
                "elements-integral"} | {f"p-maximal-{p}" for p in primes}

    def check(outcome):
        code, out, err = outcome
        if code not in (0, 1):
            return cli_error(code, err)
        checks = json.loads(out)
        missing = expected - {c["check"] for c in checks}
        if missing:
            return ("wrong", f"checks missing: {sorted(missing)}")
        bad = [c["check"] for c in checks if c["status"] != "pass"]
        if bad or code != 0:
            return ("failed", f"exit {code}: not pass: {', '.join(bad)}")
        return None
    return check


def load_refs(workload: str) -> dict:
    """The references of one workload: its lattices (if any), and under
    "failures" the reason each known failing input fails with."""
    return json.loads((BENCH / "references" / f"{workload}.json").read_text())


def random_name(d: int, k: int, reflected: bool) -> str:
    return f"deg{d}_{k}{'r' if reflected else ''}"


def random_cases(refs: dict, picks) -> list[Case]:
    """`random_fields` cases for (degree, pool index, reflected) `picks`."""
    importlib.import_module("sfom.cli")
    cases = []
    for d, k, reflected in picks:
        draw = refs["pool"][str(d)][k]
        f = tuple(int(c) for c in draw["f"])
        if reflected:
            f = inputs.reflect(f)
        cases.append(Case(random_name(d, k, reflected),
                          lambda a=["basis", poly_arg(f)]: run_cli(a),
                          basis_check(draw["reflected" if reflected
                                           else "plain"])))
    return cases


def random_name(d: int, k: int, reflected: bool) -> str:
    return f"deg{d}_{k}{'r' if reflected else ''}"


def fixture_cases(workload: str, refs: dict) -> list[Case]:
    """Every input of a fixture workload (all but `random_fields`) in run
    order, known failures included; `refs` is load_refs(workload)."""
    if workload != "towers":  # only CLI workloads count it in peak_rss_mb
        importlib.import_module("sfom.cli")
    if workload == "towers":
        N = inputs.FIXTURE_N
        return [Case(name, lambda f=f: sfom.global_basis(f, D=N),
                     lattice_check(refs["lattices"][name]))
                for name, f in inputs.tower_fixtures(N)]
    if workload == "full_disc":
        return [Case(name, lambda a=["basis", poly_arg(f)]: run_cli(a),
                     basis_check(refs["lattices"][name]))
                for name, f in inputs.tower_fixtures(inputs.FIXTURE_N)]
    if workload == "verify":
        return [Case(name, lambda a=["verify", poly_arg(f), "--known-primes",
                                     ",".join(map(str, ps))]: run_cli(a),
                     verify_check(ps))
                for name, f, ps in inputs.verify_fixtures()]
    raise ValueError(workload)


def build_cases(workload: str, seed: int, refs: dict) -> list[Case]:
    """The timed inputs of `workload` in run order: all but the known
    failures.  A random draw is left out when the draw or its reflection is
    a known failure, so the seed never decides whether a timed input fails.
    """
    known = refs["failures"]
    if workload == "random_fields":
        return random_cases(refs, [
            (d, k, reflected) for d, k, reflected in inputs.pick(seed)
            if random_name(d, k, False) not in known
            and random_name(d, k, True) not in known])
    return [c for c in fixture_cases(workload, refs) if c.name not in known]


def defect_cases(workload: str, refs: dict) -> list[Case]:
    """The known failures of `workload`, each exactly as it is listed."""
    known = refs["failures"]
    if workload == "random_fields":
        return random_cases(refs, [pick for pick in inputs.every_draw()
                                   if random_name(*pick) in known])
    return [c for c in fixture_cases(workload, refs) if c.name in known]


# ---------------------------------------------------------------------------
# passes


class Tally:
    """Attempts, failures and incorrect outcomes over every pass of a run.

    Every failure of a timed input is incorrect: the known failures are
    not timed.  `probe` records a call of a known failure instead: failing
    for its listed reason is neither counted nor incorrect, failing for
    another reason or giving a wrong answer is incorrect, and passing is
    fine (fixing a defect is allowed).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.reasons: dict = {}  # reason -> names of the inputs it hit

    @property
    def correct(self) -> bool:
        return self.incorrect == 0

    def note(self, kind: str, why: str, name: str) -> None:
        names = self.reasons.setdefault(f"{kind}: {why}", [])
        if name not in names:
            names.append(name)

    def record(self, case: Case, outcome, error) -> None:
        self.attempted += 1
        verdict = judge(case, outcome, error)
        if verdict is not None:
            self.failed += 1
            self.incorrect += 1
            self.note(*verdict, case.name)

    def probe(self, case: Case, reason: str, outcome, error) -> bool:
        """Whether the known failure `case` still fails with `reason`."""
        verdict = judge(case, outcome, error)
        if verdict == ("failed", reason):
            self.note("known failure", reason, case.name)
            return True
        if verdict is not None:
            self.incorrect += 1
            self.note(f"known failure changed: {verdict[0]}", verdict[1],
                      case.name)
        return False


def run_pass(cases, tally: Tally, trace: LayerTrace | None = None):
    """Seconds per input for one pass over `cases`, and for each input its
    speed scale: 1 over the median of the slowdowns (calib.py) measured
    right before it, while it ran and right after it.  The outputs go
    to `tally`.  A traced pass takes no samples while an input runs: their
    time would count toward the layer they interrupted."""
    clock = time.perf_counter
    sampler = calib.Sampler(calib.SAMPLE_EVERY_S if trace is None else 0)
    gc.collect()
    times, scales = [], []
    after = calib.calibrate()
    for case in cases:
        before = after
        if trace is not None:
            trace.begin_input()
        error = outcome = None
        sampler.start()
        t0 = clock()
        try:
            outcome = case.call()
        except Exception as exc:  # a failure of the program, counted
            error = exc
        sampler.stop()
        times.append(clock() - t0 - sampler.spent)
        after = calib.calibrate()
        scales.append(1 / statistics.median([before, after,
                                             *sampler.samples]))
        tally.record(case, outcome, error)
    return times, scales


def probe_defects(cases, known: dict, tally: Tally) -> int:
    """Send each known failure once, untimed; how many still fail."""
    still = 0
    for case in cases:
        error = outcome = None
        try:
            outcome = case.call()
        except Exception as exc:
            error = exc
        still += tally.probe(case, known[case.name], outcome, error)
    return still


def repeat(seconds: float, body) -> list:
    """Call body() until another call would overrun `seconds`; at least once."""
    start = time.perf_counter()
    results, spent = [], []
    while True:
        t0 = time.perf_counter()
        results.append(body())
        spent.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(spent) > seconds:
            return results


# ---------------------------------------------------------------------------
# metrics


def setup_seconds(module: str) -> tuple[float, float]:
    """Median (normalized, measured) seconds to import `module` afresh."""
    code = ("import sys, time\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "t0 = time.perf_counter()\n"
            f"import {module}\n"
            "seconds = time.perf_counter() - t0\n"
            f"sys.path.insert(0, {str(BENCH)!r})\n"
            "import calib\n"
            "print(seconds, 1 / calib.calibrate())\n")
    samples = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        if i:  # the first import may still be writing bytecode caches
            seconds, scale = map(float, done.stdout.split())
            samples.append((seconds * scale, seconds))
    return tuple(statistics.median(col) for col in zip(*samples))


def end_to_end(workload, cases, seconds, tally):
    """Time metrics in normalized seconds, medians over the run's passes.

    Each input's seconds are multiplied by its speed scale (run_pass).
    """
    runs = repeat(seconds, lambda: run_pass(cases, tally))
    passes = [[t * scale for t, scale in zip(times, scales)]
              for times, scales in runs]
    per_input = [statistics.median(col) for col in zip(*passes)]
    entry = "sfom" if workload == "towers" else "sfom.cli"
    setup, setup_measured = setup_seconds(entry)
    metrics = {
        "wall_s": (statistics.median(sum(p) for p in passes), "s"),
        "input_s.p50": (statistics.median(per_input), "s"),
        "input_s.max": (max(per_input), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    measured = {
        "wall_s": statistics.median(sum(times) for times, _ in runs),
        "setup_s": setup_measured,
        "speed_scale": statistics.median(scale for _, scales in runs
                                         for scale in scales)}
    return metrics, {"passes": len(passes), "measured": measured,
                     "pass_s": [round(sum(p), 4) for p in passes]}


def per_layer(cases, seconds, tally):
    trace = LayerTrace(sfom, {name: importlib.import_module(f"sfom.{name}")
                              for name in LAYERS})

    def pair():
        plain = sum(run_pass(cases, tally)[0])
        trace.reset()
        trace.install()
        try:
            traced = sum(run_pass(cases, tally, trace)[0])
        finally:
            trace.uninstall()
        return plain, traced, trace.metrics(traced)

    pairs = repeat(seconds, pair)
    counts = [{k: v for k, (v, unit) in m.items() if unit != "s"
               and not k.startswith("trace.")} for _, _, m in pairs]
    if any(c != counts[0] for c in counts):
        tally.incorrect += 1
        tally.reasons["wrong: counts differ between traced passes"] = []
    metrics = {}
    for name, (_, unit) in pairs[0][2].items():
        values = [m[name][0] for _, _, m in pairs]
        metrics[name] = (statistics.median(values), unit)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced / plain for plain, traced, _ in pairs),
        "ratio")
    return metrics, {"passes": 2 * len(pairs), "traced_passes": len(pairs)}


# ---------------------------------------------------------------------------
# provenance


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "sfom").glob("*.py")))
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "git_commit": commit, "src_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    refs = load_refs(args.workload)
    cases = build_cases(args.workload, args.seed, refs)
    tally = Tally()
    if args.trace:
        metrics, samples = per_layer(cases, args.seconds, tally)
        metrics["defects.known_failing"] = (probe_defects(
            defect_cases(args.workload, refs), refs["failures"], tally),
            "count")
    else:
        metrics, samples = end_to_end(args.workload, cases, args.seconds,
                                      tally)
    samples["inputs"] = len(cases)
    print(json.dumps({
        "workload": args.workload, "trace": args.trace,
        "provenance": provenance(args.seed), "samples": samples,
        "incorrect": tally.incorrect, "failures": tally.reasons}))
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
