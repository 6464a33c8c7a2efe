"""The committed corpus must replay byte-identically, forever.

``tests/corpus/`` is the standing regression instrument: committed sources
plus canonical verify outcomes (fingerprints, statuses, digests).  Any
engine/backend/proof-rule change that alters a byte of a replayed outcome
fails here (and in the CI ``corpus-replay`` job) before it lands.
"""

import json
from pathlib import Path

import pytest

from repro.fuzz import replay_corpus, run_fuzz, synthesize_corpus, write_corpus
from repro.fuzz.corpus import EXPECTED_DIR, MANIFEST, PROGRAM_DIR

CORPUS = Path(__file__).parent / "corpus"


class TestCommittedCorpus:
    def test_layout(self):
        manifest = json.loads((CORPUS / MANIFEST).read_text())
        assert manifest["seed"] == 0
        assert manifest["count"] >= 25
        assert len(manifest["programs"]) == manifest["count"]
        for name in manifest["programs"]:
            assert (CORPUS / PROGRAM_DIR / f"{name}.rlx").is_file()
            assert (CORPUS / EXPECTED_DIR / f"{name}.json").is_file()

    def test_committed_sources_match_generator(self):
        """The committed ``.rlx`` files are exactly what the recorded seed
        regenerates — the corpus cannot silently drift from the generator."""
        manifest = json.loads((CORPUS / MANIFEST).read_text())
        # A longer draw of the same seed extends the committed programs.
        generated = synthesize_corpus(manifest["seed"], 200)
        assert len(generated) == 200
        for item in generated[: manifest["count"]]:
            committed = (CORPUS / PROGRAM_DIR / f"{item.name}.rlx").read_text()
            assert committed == item.source

    def test_replays_byte_identically(self):
        report = replay_corpus(str(CORPUS))
        assert report.ok, report.summary()
        assert report.programs >= 25

    def test_expected_files_are_canonically_encoded(self):
        """Committed bytes are the canonical encoder's output, so replay
        equality really is outcome equality, not formatting luck."""
        for path in sorted((CORPUS / EXPECTED_DIR).glob("*.json")):
            raw = path.read_text()
            assert raw == json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n"


class TestCorpusWriter:
    @pytest.fixture(scope="class")
    def fresh_corpus(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("corpus")
        report = run_fuzz(seed=4, count=3, depth=0, samples=2)
        names = write_corpus(str(directory), report)
        return directory, report, names

    def test_write_then_replay(self, fresh_corpus):
        directory, _report, names = fresh_corpus
        assert len(names) == 3
        replay = replay_corpus(str(directory))
        assert replay.ok, replay.summary()

    def test_replay_detects_tampered_expectations(self, fresh_corpus):
        directory, _report, names = fresh_corpus
        victim = directory / EXPECTED_DIR / f"{names[0]}.json"
        payload = json.loads(victim.read_text())
        payload["obligations_digest"] = "0" * 16
        victim.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        replay = replay_corpus(str(directory))
        assert not replay.ok
        assert replay.mismatches[0].name == names[0]
        assert "obligations_digest" in replay.mismatches[0].detail
        # Restore for any later test using the fixture.
        payload["obligations_digest"] = json.loads(
            (directory / EXPECTED_DIR / f"{names[1]}.json").read_text()
        ).get("obligations_digest")

    def test_writer_refuses_diverged_runs(self, tmp_path):
        report = run_fuzz(seed=4, count=2, depth=0, samples=2)
        from repro.fuzz.funnel import Divergence

        report.divergences.append(
            Divergence(
                program="x", stage="verify", left="a", right="b", detail="synthetic"
            )
        )
        with pytest.raises(ValueError, match="diverged"):
            write_corpus(str(tmp_path), report)
