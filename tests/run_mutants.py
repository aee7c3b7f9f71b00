"""Mutation gate for the checks: every mutant in tests/mutants.json must
make the Tier-1 suite fail.

Each entry names a file of the checkout, a snippet that occurs in it
exactly once, its replacement and the reason the mutant matters. For each
entry the script copies the checkout to a temporary directory, applies the
replacement there and runs Tier-1 with `-x`; the mutant is killed when
pytest reports a failing test (exit code 1). The unmutated copy runs first
and must pass, so that a kill is the mutant's doing. The test that checks
each snippet against the checkout is deselected, since every mutant
removes its own snippet. The checkout itself is never modified. Exits 1
unless every mutant is killed.

    python3 tests/run_mutants.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = ROOT / "tests" / "mutants.json"
SELF_TEST = "tests/test_tooling.py::test_mutant_snippets_occur_once"
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".bench_build")


def apply(root, mutant):
    """Replace the mutant's snippet in its file under `root`."""
    path = Path(root) / mutant["file"]
    text = path.read_text()
    count = text.count(mutant["find"])
    if count != 1:
        raise SystemExit(f"{mutant['file']}: snippet occurs {count} times: {mutant['find']!r}")
    path.write_text(text.replace(mutant["find"], mutant["replace"]))


def run_tier1(mutant=None):
    """pytest's exit code for Tier-1 on a copy of the checkout, with
    `mutant` applied, stopping at the first failure."""
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "checkout")
        shutil.copytree(ROOT, root, ignore=SKIP)
        if mutant is not None:
            apply(root, mutant)
        paths = [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        cmd = [
            sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", "--deselect", SELF_TEST,
        ]
        return subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main():
    code = run_tier1()
    if code != 0:
        print(f"the unmutated copy fails Tier-1 (pytest exit {code}); no mutant was run")
        return 1
    mutants = json.loads(MUTANTS.read_text())
    survivors = 0
    for i, mutant in enumerate(mutants):
        start = time.perf_counter()
        code = run_tier1(mutant)
        verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
        print(f"{i}: {verdict} in {time.perf_counter() - start:.1f} s  {mutant['file']}: {mutant['reason']}")
        survivors += code != 1
    print(f"{survivors} of {len(mutants)} mutants survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
