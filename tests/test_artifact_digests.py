"""`run-all` artifacts stay byte-identical: three configs of
``artifact_digests.py`` (the README game in both compression modes and a
5-agent game) are recomputed and compared with the SHA-256 digests in
``artifact_digests.golden``.  A change that moves an artifact regenerates
that file with

    python tests/artifact_digests.py readme readme-sign-on n5-seed2-k60 > tests/artifact_digests.golden

and says why the bytes moved."""

from pathlib import Path

import artifact_digests

GOLDEN = Path(__file__).with_name("artifact_digests.golden")
PINNED = ("readme", "readme-sign-on", "n5-seed2-k60")


def test_run_all_artifacts_match_the_golden_digests():
    golden = GOLDEN.read_text().splitlines()
    assert {line.split("  ")[1].split("/")[0] for line in golden} == set(PINNED)
    assert list(artifact_digests.digests(PINNED)) == golden
