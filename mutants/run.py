"""Mutation suite: each mutant of table.json must be killed by its tests.

An entry names a module of src/sfom, a snippet that must occur in it exactly
once, the snippet's replacement and the test ids that must fail once it is
applied.  For each entry the runner copies src/ to a temporary directory,
applies the replacement there and runs each named test in its own pytest
subprocess against the copy.  The entry is

  killed    when every named test fails,
  survived  when one of them passes,
  stale     when the snippet does not occur exactly once or a named test
            does not run (a typo, or a test renamed away).

The named tests are first run once on the unmutated tree, where they must
pass.  Run from anywhere with `python mutants/run.py`; it needs pytest and
exits 1 unless every entry is killed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "table.json"


def _pytest(src: Path, *ids: str) -> int:
    """pytest's exit code for the tests `ids`, importing sfom from `src`:
    0 all passed, 1 some failed, 4 or 5 a test id that does not run."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "--tb=no",
           "-p", "no:cacheprovider", *ids]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=600).returncode


def _verdict(entry: dict) -> str:
    target = ROOT / "src" / "sfom" / entry["module"]
    text = target.read_text()
    if text.count(entry["snippet"]) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        (src / "sfom" / entry["module"]).write_text(
            text.replace(entry["snippet"], entry["replacement"]))
        codes = [_pytest(src, test) for test in entry["tests"]]
    if any(code not in (0, 1) for code in codes):
        return "stale"
    return "killed" if all(codes) else "survived"


def main() -> int:
    table = json.loads(TABLE.read_text())
    tests = sorted({test for entry in table for test in entry["tests"]})
    if code := _pytest(ROOT / "src", *tests):
        print(f"the named tests exit {code} on the unmutated tree: one fails"
              " (1) or does not run (4, 5)")
        return 1
    verdicts = []
    for entry in table:
        verdicts.append(_verdict(entry))
        print(f"{verdicts[-1]:9} {entry['name']}: {entry['why']}", flush=True)
    print(f"{verdicts.count('killed')} of {len(table)} killed")
    return 0 if set(verdicts) <= {"killed"} else 1


if __name__ == "__main__":
    raise SystemExit(main())
