"""Each phase's peak memory per round stays within the cap's budget.

``session.MAX_ROUNDS`` is sized by ``session.PEAK_BYTES_PER_ROUND``, so
every phase of either protocol must peak at no more than that many bytes
per round above the imported library.  Depolarize at strength 1 on every
in-transit target holds the most columns and walks every round through
every target, so it bounds the other attacks.  Each case runs in a fresh
interpreter (``tools/phase_peaks.py``), whose peak resident set is the
peak of that case alone, over enough rounds that the per-round columns
outweigh the warm-up's noise.
"""

import importlib.util
from pathlib import Path

import pytest

from ququart_qkd.session import PEAK_BYTES_PER_ROUND

PATH = Path(__file__).resolve().parents[1] / "tools" / "phase_peaks.py"
_spec = importlib.util.spec_from_file_location("phase_peaks", PATH)
phase_peaks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(phase_peaks)

ROUNDS = 500_000


@pytest.mark.parametrize("protocol", phase_peaks.PROTOCOLS)
@pytest.mark.parametrize("phase", phase_peaks.PHASES)
def test_a_depolarized_phase_peaks_within_the_round_cap_budget(phase, protocol):
    per_round = phase_peaks.bytes_per_round(phase, protocol, "depolarize", ROUNDS)
    assert per_round <= PEAK_BYTES_PER_ROUND, f"{per_round:.1f} B per round"
