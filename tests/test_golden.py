"""Every bundled config's outputs against the goldens in tests/golden.

The goldens are written by ``make_golden.py`` at one BLAS thread. Numeric
cells may move by TOLERANCE times the magnitude of their column, at least
1 (``helpers.output_moves``); everything else must match exactly, the
manifest without its numpy version. Without the floor of 1, columns of
rounding noise would fail at any tolerance: the imaginary parts of real
Koopman modes (about 1e-17) and a regression residual (1e-14) move by
more than their own size between one and two BLAS threads.
"""

from pathlib import Path

import helpers
from koopgen import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# the largest moves measured: 5.2e-12 across the change that solved full-rank
# fits by back substitution (duffing_conserved/eigenvalues.csv), 1.6e-13
# between one and two BLAS threads (ou_switching/schedule.json)
TOLERANCE = 1e-10


def test_bundled_outputs_match_golden(bundled_outputs):
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(cli.bundled_configs())
    for name, out in bundled_outputs.items():
        moves, mismatches = helpers.output_moves(out, GOLDEN / name)
        assert not mismatches, (name, mismatches)
        moved = {file: move for file, move in moves.items() if move > TOLERANCE}
        assert not moved, (name, moved)
