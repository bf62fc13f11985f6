"""The seeded conformance corpus, checked end to end.

Acceptance gates of the scenario engine:

* every cell of the committed corpus re-runs into its pass-band;
* a deliberately perturbed configuration is detected out-of-band;
* two same-seed corpus runs produce bitwise-identical identities, and
  a drifted replay is flagged;
* regenerating the corpus reproduces the committed files byte for
  byte;
* conformance runs land in the warehouse store and a summary entry
  the longitudinal trajectory can render, out-of-band cells included.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.scenario.conformance import (
    CorpusFormatError,
    band_violations,
    judge_record,
    load_corpus,
)
from repro.scenario.corpus import (
    CORPUS_SCHEMA_VERSION,
    perturbed_variant,
)
from repro.warehouse import (
    WarehouseStore,
    build_entry,
    canonical_json,
    record_identity,
    run_cell,
    run_matrix,
)
from repro.warehouse.cli import drifted_cells
from repro.warehouse.trajectory import build_report

CORPUS_DIR = Path(__file__).parent / "corpus"


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(CORPUS_DIR)


def quick_entries(corpus):
    _, entries = corpus
    return [entry for entry in entries if entry.case.quick]


def judged(entries, seed):
    """Run *entries* as warehouse cells and judge each record."""
    records = run_matrix([entry.case for entry in entries], "quick",
                         seed, None, "test")
    for entry, record in zip(entries, records):
        judge_record(entry, record)
    return records


def conformance(*extra):
    return main(["scenario", "conformance", "--corpus",
                 str(CORPUS_DIR), "--commit", "c1", *extra])


class TestCommittedCorpus:
    def test_loads_with_expected_shape(self, corpus):
        seed, entries = corpus
        assert seed == 0
        identifiers = {entry.case.case_id for entry in entries}
        assert len(identifiers) == len(entries) == 74
        quick = [entry for entry in entries if entry.case.quick]
        assert len(quick) == 12
        kinds = {entry.case.kind for entry in entries}
        assert kinds == {"failure", "attack"}

    def test_every_entry_carries_bands_and_baseline(self, corpus):
        _, entries = corpus
        for entry in entries:
            assert entry.bands, entry.case.case_id
            assert "fingerprint" in entry.baseline
            for low, high in entry.bands.values():
                assert low <= high

    def test_quick_slice_in_band(self, corpus):
        seed, _ = corpus
        records = judged(quick_entries(corpus), seed)
        assert len(records) == 12
        assert [r for r in records if r["status"] != "ok"] == []

    def test_full_corpus_in_band(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert conformance("--report", str(report)) == 0
        assert "every cell in its pass-band" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert payload["ok"] is True
        assert len(payload["records"]) == 74
        assert {r["status"] for r in payload["records"]} == {"ok"}


class TestTamperDetection:
    @pytest.mark.parametrize("case_id", [
        "failure/sequential/constant/base",
        "failure/distiller/constant/base",
        "attack/sequential/constant/base",
    ])
    def test_perturbed_config_lands_out_of_band(self, corpus,
                                                case_id):
        seed, entries = corpus
        entry = next(e for e in entries
                     if e.case.case_id == case_id)
        tampered = perturbed_variant(entry.case)
        record = run_cell(tampered, None, seed, "c", "h", "quick")
        assert band_violations(entry, record["security"]["observed"])
        judge_record(entry, record)
        assert record["status"] == "out-of-band"
        assert "outside" in record["reason"]

    def test_unperturbed_rerun_stays_in_band(self, corpus):
        seed, entries = corpus
        entry = next(e for e in entries if e.case.quick)
        record = run_cell(entry.case, None, seed, "c", "h", "quick")
        judge_record(entry, record)
        assert record["status"] == "ok"


class TestReproducibility:
    def test_same_seed_runs_bitwise_identical(self, corpus):
        seed, _ = corpus
        entries = quick_entries(corpus)
        first = judged(entries, seed)
        second = judged(entries, seed)
        assert drifted_cells(first, second) == []
        for entry, record in zip(entries, first):
            assert (record["security"]["case_fingerprint"]
                    == entry.baseline["fingerprint"]), entry.case.case_id

    def test_identity_excludes_timing(self, corpus):
        seed, _ = corpus
        case = quick_entries(corpus)[0].case
        first = run_cell(case, None, seed, "c", "h", "quick")
        second = run_cell(case, None, seed, "c", "h", "quick")
        assert canonical_json(record_identity(first)) == \
            canonical_json(record_identity(second))

    def test_drifted_fingerprint_flags_check(self, corpus):
        seed, _ = corpus
        records = judged(quick_entries(corpus)[:2], seed)
        replay = copy.deepcopy(records)
        replay[1]["security"]["case_fingerprint"] = "deadbeef"
        assert drifted_cells(records, replay) == [records[1]["cell"]]

    def test_check_reproducible_run_passes(self, capsys):
        assert conformance("--quick", "--check-reproducible") == 0
        out = capsys.readouterr().out
        assert "reproducibility check ok" in out
        assert "bitwise-reproducible" in out


class TestCorpusGeneration:
    def test_generation_matches_committed_files(self, tmp_path):
        """Regenerating the full corpus reproduces every committed
        file byte for byte (bands and baseline fingerprints)."""
        out = tmp_path / "corpus"
        assert main(["scenario", "corpus", "generate", "--out",
                     str(out), "--seed", "0"]) == 0
        committed = sorted(path.name
                           for path in CORPUS_DIR.glob("*.json"))
        assert sorted(path.name for path in out.glob("*.json")) \
            == committed
        for name in committed:
            assert (out / name).read_bytes() == \
                (CORPUS_DIR / name).read_bytes(), name


def _corpus_file(**overrides):
    case = {"scheme": "sequential", "family": "constant",
            "perturbation": "base", "kind": "failure", "quick": True,
            "devices": 2, "trials": 64, "noise_scale": 1.0}
    case.update(overrides.pop("case", {}))
    payload = {"schema_version": CORPUS_SCHEMA_VERSION, "seed": 0,
               "cases": [{"case": case, "expected": {
                   "bands": {"failure_rate_mean": [0.0, 0.05]},
                   "baseline": {}}}]}
    payload.update(overrides)
    return payload


#: Corpus files ``load_corpus`` must reject, by what is wrong.
MALFORMED = {
    "missing-fields": {"schema_version": CORPUS_SCHEMA_VERSION,
                       "seed": 0,
                       "cases": [{"case": {"scheme": "sequential"}}]},
    "seed-str": _corpus_file(seed="abc"),
    "seed-null": _corpus_file(seed=None),
    "seed-float": _corpus_file(seed=1.5),
    "cases-not-list": _corpus_file(cases=5),
    "scheme": _corpus_file(case={"scheme": "nosuch"}),
    "family": _corpus_file(case={"family": "nosuch"}),
    "kind": _corpus_file(case={"kind": "nosuch"}),
    "attack-scheme": _corpus_file(case={"kind": "attack",
                                        "scheme": "fuzzy"}),
    "devices": _corpus_file(case={"devices": 0}),
    "trials": _corpus_file(case={"trials": -1}),
}


class TestCorpusFormat:
    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path / "nope")

    def test_invalid_json_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path)

    def test_schema_version_mismatch_rejected(self, tmp_path):
        (tmp_path / "old.json").write_text(json.dumps(
            {"schema_version": 0, "seed": 0, "cases": []}))
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path)

    def test_seed_disagreement_rejected(self, tmp_path):
        for name, seed in (("a.json", 0), ("b.json", 1)):
            (tmp_path / name).write_text(json.dumps(
                {"schema_version": CORPUS_SCHEMA_VERSION,
                 "seed": seed, "cases": []}))
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path)

    def test_well_formed_file_loads(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps(_corpus_file()))
        seed, entries = load_corpus(tmp_path)
        assert seed == 0 and len(entries) == 1

    def test_malformed_case_rejected(self, tmp_path):
        for name, payload in MALFORMED.items():
            (tmp_path / "a.json").write_text(json.dumps(payload))
            with pytest.raises(CorpusFormatError):
                load_corpus(tmp_path)
                pytest.fail(f"{name}: loaded")

    def test_cli_exits_2_on_malformed_corpus(self, tmp_path, capsys):
        (tmp_path / "a.json").write_text(json.dumps(
            _corpus_file(case={"devices": 0})))
        assert main(["scenario", "conformance", "--corpus",
                     str(tmp_path)]) == 2
        assert "malformed" in capsys.readouterr().out


class TestWarehouseWiring:
    @pytest.fixture(scope="class")
    def quick_store(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("conformance")
        store = base / "store.jsonl"
        summary = base / "BENCH_scenarios.json"
        assert main(["scenario", "conformance", "--corpus",
                     str(CORPUS_DIR), "--quick", "--commit", "abc123",
                     "--store", str(store), "--summary",
                     str(summary)]) == 0
        return WarehouseStore(store), summary

    def test_records_shape_and_keying(self, quick_store):
        store, _ = quick_store
        records = list(store.records())
        assert len(records) == 12
        assert len({record["config_hash"] for record in records}) == 1
        for record in records:
            assert record["cell"].startswith("scenario/")
            assert record["status"] == "ok"
            assert 0.0 <= record["security"]["recovery_rate"] <= 1.0
            assert record["security"]["outcome_fingerprint"]
            assert record["security"]["observed"]
            assert record["perf"]["enroll_seconds"] > 0
        # The perf layer carries the real decode-kernel counts.
        assert any(record["perf"]["kernel_calls"] > 0
                   for record in records)

    def test_records_append_to_store(self, quick_store):
        store, _ = quick_store
        records = list(store.records())
        assert store.append(records) == len(records)
        assert store.verify_reproducible() == []

    def test_summary_entry_renders_in_trajectory(self, quick_store):
        _, summary = quick_store
        entry = json.loads(summary.read_text())["history"][-1]
        assert len(entry["benchmarks"]) == 12
        assert set(entry["benchmarks"]) == set(entry["security"])
        report = build_report([summary])
        assert any("scenario/" in line for line in report.lines)

    def test_out_of_band_records_stay_in_the_summary(self,
                                                     quick_store):
        store, _ = quick_store
        record = copy.deepcopy(next(store.records()))
        record.update(status="out-of-band", reason="tampered")
        entry = build_entry([record], "abc123", "quick")
        assert record["cell"] in entry["security"]
        assert record["cell"] in entry["benchmarks"]

    def test_failure_report_lines_and_exitworthiness(self, tmp_path,
                                                     capsys):
        """A case whose run misses its committed band exits 1, and the
        miss stays visible in the summary."""
        path = CORPUS_DIR / "sequential.json"
        payload = json.loads(path.read_text())
        item = payload["cases"][0]
        item["case"]["noise_scale"] = 4.0
        payload["cases"] = [item]
        tampered = tmp_path / "corpus"
        tampered.mkdir()
        (tampered / "sequential.json").write_text(json.dumps(payload))
        summary = tmp_path / "BENCH_scenarios.json"
        assert main(["scenario", "conformance", "--corpus",
                     str(tampered), "--commit", "c1", "--summary",
                     str(summary)]) == 1
        out = capsys.readouterr().out
        assert "1 out-of-band" in out
        assert "OUT-OF-BAND scenario/" in out
        entry = json.loads(summary.read_text())["history"][-1]
        assert len(entry["security"]) == 1
