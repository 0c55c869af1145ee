"""The §3 model as a one-sided oracle for every Rosetta allocation.

For each strategy and each width bucket, seeded empty range queries are
counted against what the model predicts for them.  Two things must hold in
every cell:

* the false-positive count is never significantly above the summed
  ``predicted_range_fpr(width)``: its :func:`~repro.core.analysis.fp_excess_bound`
  stays at or above the attack detector's alpha;
* the observed FPR never exceeds ``design_fpr``, the max-range anchor the
  detector tests each run against.  This is the detector's null hypothesis.

The model is exact at width 1 and reads 20–40 % high on wider buckets (it
assumes the maximally misaligned decomposition), so the oracle is
deliberately one-sided: a two-sided band would fail on a correct filter.  A
model that predicted the leaf FPR for every width fails the 17–64 bucket of
every strategy.
"""

import bisect
import random
from functools import lru_cache

import pytest

from repro.core.analysis import fp_excess_bound
from repro.filters.rosetta_adapter import RosettaFilter
from repro.lsm.sstable import QUARANTINE_ALPHA

KEY_BITS = 32
MAX_RANGE = 64
BITS_PER_KEY = 14
QUERIES_PER_CELL = 3000
BUCKETS = ((1, 1), (2, 4), (5, 16), (17, 64))
KEYS = sorted(random.Random(19).sample(range(1 << KEY_BITS), 5000))


def _empty_query(rng: random.Random, widths: tuple[int, int]) -> tuple[int, int]:
    while True:
        width = rng.randint(*widths)
        low = rng.randrange((1 << KEY_BITS) - width)
        at = bisect.bisect_left(KEYS, low)
        if at == len(KEYS) or KEYS[at] >= low + width:
            return low, width


@pytest.mark.parametrize(
    "strategy", ["uniform", "equilibrium", "optimized", "variable", "single"]
)
def test_observed_fpr_never_exceeds_the_model(strategy):
    filt = RosettaFilter(
        KEY_BITS, BITS_PER_KEY, max_range=MAX_RANGE, strategy=strategy
    )
    filt.populate(KEYS)
    predicted = lru_cache(maxsize=None)(filt.core.predicted_range_fpr)
    problems = []
    for widths in BUCKETS:
        rng = random.Random(f"{strategy}/{widths}")
        false_positives = 0
        expected = 0.0
        for _ in range(QUERIES_PER_CELL):
            low, width = _empty_query(rng, widths)
            false_positives += filt.may_contain_range(low, low + width - 1)
            expected += predicted(width)
        cell = f"widths {widths}: {false_positives} false positives"
        bound = fp_excess_bound(
            false_positives, QUERIES_PER_CELL, expected / QUERIES_PER_CELL
        )
        if bound < QUARANTINE_ALPHA:
            problems.append(f"{cell}, {expected:.0f} predicted")
        anchor = filt.design_fpr(widths[1])
        if false_positives > QUERIES_PER_CELL * anchor:
            problems.append(f"{cell}, over the anchor {anchor:.3f}")
    assert not problems, f"{strategy}: " + "; ".join(problems)
