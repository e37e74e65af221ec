"""Regenerate tests/golden: the outputs of every bundled config, at one BLAS thread.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

Each config runs through ``cli.main``, which pins numpy's OpenBLAS to one
thread. Before the old goldens are replaced, the script prints, per file,
the largest column-relative move of the new outputs against them (the
measure of ``test_golden.py``) and every non-numeric difference. Regenerate
only for a change that moves the outputs on purpose, and record each file
that moved and by how much in CHANGES.md.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import helpers
from koopgen import cli

GOLDEN = Path(__file__).resolve().parent / "golden"


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        fresh = Path(scratch) / "golden"
        for name in cli.bundled_configs():
            if cli.main(["run", name, "--out", str(fresh / name)]) != 0:
                return 1
        if GOLDEN.exists():
            moves, mismatches = helpers.output_moves(fresh, GOLDEN)
            for name, move in sorted(moves.items()):
                if move:
                    print(f"moved {move:.2e}: {name}")
            for line in mismatches:
                print(f"differs: {line}")
            shutil.rmtree(GOLDEN)
        shutil.copytree(fresh, GOLDEN)
    return 0


if __name__ == "__main__":
    sys.exit(main())
