"""The three report grids of ``tools/report_grid.py``, pinned by digest.

Each grid prints one digest line per session report, oracle result or
``run --repeat K`` command; the sha256 of a grid's whole output below
therefore holds every report byte of every config.  A change that alters
report bytes on purpose changes a digest here in the same commit, with
the old and new values recorded in CHANGES.md.  Report bytes depend on
numpy's ``Generator`` conversions, so the digests hold for the numpy
version they were recorded with.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of the whole output per mode, recorded with this numpy
RECORDED_WITH_NUMPY = "2.4.6"
GRID_DIGESTS = {
    "sessions": "3333247346612c6dce01c32ab226195434a52be8db39b87db33fddcbdd71459d",
    "cli": "203de0bb0b7403196697bd598d31c7af4cb9dbe9faeea7c3e88b3821924e42b9",
    "oracle": "22012a958be1d75a9c0c273cea01dfa67a689697288f9af38133155f823d13aa",
}
FLAGS = {"sessions": [], "cli": ["--cli"], "oracle": ["--oracle"]}


@pytest.mark.parametrize("mode", list(GRID_DIGESTS))
def test_report_grid_digest_is_unchanged(mode):
    command = [sys.executable, str(ROOT / "tools" / "report_grid.py"), "--src", str(ROOT / "src")]
    out = subprocess.run(command + FLAGS[mode], cwd=ROOT, capture_output=True, check=True).stdout
    digest = hashlib.sha256(out).hexdigest()
    assert digest == GRID_DIGESTS[mode], (
        f"the {mode} grid's digest is {digest}; the pinned one was recorded with "
        f"numpy {RECORDED_WITH_NUMPY} (this is numpy {np.__version__})"
    )
