"""Exact-parity proof: the columnar hot path vs full-history reads.

The columnar event path (every tap read through an incremental window
reader) is the only production path. Its outputs — verdicts, evidence
bundles, count-type metrics, per-quantum histograms, first detections,
exported traces and their replay — are pinned on every channel family,
with and without fault injectors, by the digests in
``tests/golden/sessions.json``, frozen from the code that still carried
the full-history reads next to the window readers (docs/PERFORMANCE.md,
"Columnar hot path"). The reader-vs-full-history proof tap by tap lives
in ``tests/sim/test_window_readers.py``.
"""

import pytest

from tests.golden.test_sessions_golden import assert_matches_golden

pytestmark = pytest.mark.parity

KINDS = ("membus", "divider", "cache")
SEED = 11

VERDICT_FIELDS = ("report_sha256", "evidence_sha256", "count_metrics_sha256")


class TestLiveParity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_verdicts_evidence_and_metrics_identical(self, kind):
        assert_matches_golden(f"{kind}:{SEED}:clean", *VERDICT_FIELDS)

    @pytest.mark.parametrize("kind", KINDS)
    def test_per_quantum_histories_identical(self, kind):
        assert_matches_golden(
            f"{kind}:{SEED}:clean", "burst_histograms_sha256", "analyses"
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_first_detection_identical(self, kind):
        assert_matches_golden(f"{kind}:{SEED}:clean", "first_detection_quantum")


class TestInjectorParity:
    """Fault injectors perturb the production path exactly as frozen."""

    @pytest.mark.parametrize("kind", ("membus", "divider"))
    def test_verdicts_identical_under_injection(self, kind):
        assert_matches_golden(f"{kind}:{SEED}:inject", *VERDICT_FIELDS)


class TestReplayParity:
    """Identical taps → identical archives → identical offline verdicts."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_exported_archives_identical(self, kind):
        assert_matches_golden(f"{kind}:{SEED}:clean", "archive")

    def test_replay_verdicts_identical(self):
        digest = assert_matches_golden(
            f"membus:{SEED}:clean", "archive", "live_detected"
        )
        # Replay agrees with the live verdict for the audited unit too.
        assert (
            digest["archive"]["replay_detected"]["membus"]
            == digest["live_detected"]["membus"]
        )
