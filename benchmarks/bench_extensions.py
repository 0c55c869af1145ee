"""Extension benchmark beyond the paper's figures.

Quantifies one of the paper's qualitative side-claims — correlation
sensitivity: FPR as the query offset θ grows (Fig. 5(B) fixes θ=1; here
we sweep it).
"""

from repro.bench.experiments import extension_correlation_offsets
from repro.bench.report import emit


def test_correlation_theta_sweep(benchmark, scale):
    """FPR vs correlation offset θ: SuRF recovers only as θ outgrows the
    culled-prefix granularity; Rosetta is flat (prefix-exact)."""
    _, rows = benchmark.pedantic(
        extension_correlation_offsets, args=(scale,), rounds=1, iterations=1
    )
    emit("Extension — correlation offset sweep (range 16, 22 bits/key)",
         ("theta", "rosetta_fpr", "surf_fpr"), rows)
    for theta, rosetta_fpr, surf_fpr in rows:
        assert rosetta_fpr <= surf_fpr + 0.02
    # SuRF is near-1 at theta=1 (the Fig. 5(B) regime).
    assert rows[0][2] > 0.5
