"""Mutation gate for the checks: every mutant in tests/mutants.json must
make the Tier-1 suite fail.

Each entry names a file of the checkout, a snippet that occurs in it
exactly once, its replacement, the reason the mutant matters, and
`killed_by`, the pytest node ids that failed when the entry was recorded.
For each entry the script copies the checkout to a temporary directory and
applies the replacement there. It runs the `killed_by` tests first, then,
only if they do not fail, Tier-1 with `-x` and the entry marked stale; the
mutant is killed when pytest reports a failing test (exit code 1). The
unmutated copy runs the full Tier-1 first and must pass, so that a kill is
the mutant's doing. The test that checks each snippet against the checkout
is deselected, since every mutant removes its own snippet. The checkout
itself is never modified. SIGTERM exits the script as SystemExit does, so
the copy is removed and the running pytest is killed. Exits 1 unless every
mutant is killed.

    python3 tests/run_mutants.py
"""

import json
import os
import shutil
import signal
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


def pytest(root, args):
    """pytest's exit code on the checkout copy at `root`, stopping at the
    first failure."""
    paths = [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "--continue-on-collection-errors", *args,
    ]
    return subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run(mutant=None):
    """(pytest exit code, stale) on a copy of the checkout with `mutant`
    applied. Its `killed_by` tests run first; if they do not fail, Tier-1
    runs and `stale` is their exit code. Without a mutant, Tier-1 alone."""
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "checkout")
        shutil.copytree(ROOT, root, ignore=SKIP)
        stale = None
        if mutant is not None:
            apply(root, mutant)
            stale = pytest(root, mutant["killed_by"])
            if stale == 1:
                return 1, None
        return pytest(root, ["--deselect", SELF_TEST]), stale


def exit_on_sigterm():
    """Make SIGTERM raise SystemExit, so that the `with` blocks unwind:
    TemporaryDirectory removes the checkout copy, and subprocess.run kills
    its pytest child."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def main():
    exit_on_sigterm()
    code, _ = run()
    if code != 0:
        print(f"the unmutated copy fails Tier-1 (pytest exit {code}); no mutant was run")
        return 1
    mutants = json.loads(MUTANTS.read_text())
    survivors = 0
    for i, mutant in enumerate(mutants):
        start = time.perf_counter()
        code, stale = run(mutant)
        verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
        note = "" if stale is None else f"  [stale: its killed_by tests gave pytest exit {stale}]"
        print(f"{i}: {verdict} in {time.perf_counter() - start:.1f} s  {mutant['file']}: {mutant['reason']}{note}")
        survivors += code != 1
    print(f"{survivors} of {len(mutants)} mutants survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
