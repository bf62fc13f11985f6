"""``repro service`` CLI: enroll/sweep wiring and exit codes."""

import dataclasses
import json

from repro.cli import main
from repro.service import SweepHandle


class TestEnrollAndSweep:
    def test_enroll_then_registry_sweep_streams_and_checks(
            self, tmp_path, capsys):
        registry = tmp_path / "reg"
        assert main(["service", "enroll", "--scheme", "sequential",
                     "--devices", "3", "--seed", "5",
                     "--registry", str(registry)]) == 0
        assert (registry / "manifest.json").exists()
        capsys.readouterr()

        assert main(["service", "sweep", "--registry", str(registry),
                     "--trials", "60", "--shards", "2",
                     "--workers", "2", "--stream",
                     "--check-single-host"]) == 0
        out = capsys.readouterr().out
        assert "enrollment source: registry" in out
        assert "single-host check: bitwise-identical" in out
        chunks = [json.loads(line) for line in out.splitlines()
                  if line.startswith("{")]
        assert len(chunks) == 2
        assert {chunk["shard"] for chunk in chunks} == {0, 1}
        assert all(chunk["kind"] == "failure-rates"
                   for chunk in chunks)

    def test_fresh_sweep_without_registry(self, capsys):
        assert main(["service", "sweep", "--scheme", "sequential",
                     "--devices", "3", "--trials", "40",
                     "--shards", "2", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "enrollment source: enrolled" in out
        assert "failure rates:" in out

    def test_attack_sweep_reports_recoveries(self, capsys):
        assert main(["service", "sweep", "--scheme", "group-based",
                     "--devices", "2", "--kind", "attack-results",
                     "--shards", "2", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "attack: 2/2 keys recovered" in out
        assert "oracle queries" in out


class TestSingleHostCheck:
    ATTACK_RESULTS_SWEEP = ["service", "sweep", "--scheme", "sequential",
                            "--devices", "2", "--kind", "attack-results",
                            "--shards", "2", "--workers", "2",
                            "--check-single-host"]

    def test_attack_results_match(self, capsys):
        assert main(self.ATTACK_RESULTS_SWEEP) == 0
        assert "single-host check: bitwise-identical" in \
            capsys.readouterr().out

    def test_attack_results_relation_flip_is_a_mismatch(
            self, monkeypatch, capsys):
        # Same result types, one recovered relation different: the
        # check compares outcome features, not just types.
        collect = SweepHandle.collect

        def flipped(handle):
            merged = collect(handle)
            relations = merged[0].relations.copy()
            relations[1] ^= 1
            merged[0] = dataclasses.replace(merged[0],
                                            relations=relations)
            return merged

        monkeypatch.setattr(SweepHandle, "collect", flipped)
        assert main(self.ATTACK_RESULTS_SWEEP) == 1
        assert "single-host check: MISMATCH" in capsys.readouterr().out


class TestArgumentErrors:
    def test_registry_conflicts_with_population_flags(
            self, tmp_path, capsys):
        registry = tmp_path / "reg"
        assert main(["service", "enroll", "--scheme", "sequential",
                     "--devices", "2",
                     "--registry", str(registry)]) == 0
        capsys.readouterr()
        assert main(["service", "sweep", "--registry", str(registry),
                     "--scheme", "sequential"]) == 2
        assert "conflicts with --registry" in capsys.readouterr().out

    def test_sweep_needs_scheme_or_registry(self, capsys):
        assert main(["service", "sweep"]) == 2
        assert "need --scheme" in capsys.readouterr().out

    def test_missing_registry_is_an_error(self, tmp_path, capsys):
        assert main(["service", "sweep", "--registry",
                     str(tmp_path / "nope")]) == 2
        assert "no registry manifest" in capsys.readouterr().out

    def test_fuzzy_attack_sweep_rejected(self, capsys):
        assert main(["service", "sweep", "--scheme", "fuzzy",
                     "--devices", "2", "--kind",
                     "attack-results"]) == 2
        assert "no attack campaign" in capsys.readouterr().out
