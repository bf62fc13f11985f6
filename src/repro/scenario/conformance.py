"""Conformance: compare re-run corpus cells with their committed bands.

The committed corpus (``tests/conformance/corpus/*.json``) turns the
scenario engine into an executable regression oracle.  Conformance is
three steps: :func:`load_corpus` reads the cases and their pass-bands,
the warehouse runner executes every case as a warehouse cell (through
:func:`repro.warehouse.cli.run_checkpointed`, the routine ``repro
warehouse run`` uses, with its checkpoint/resume, reproducibility
replay and summary), and :func:`judge_record` compares each record's
observed metrics with its band, marking misses ``out-of-band``.

The corpus's baseline fingerprints are pinned by regenerating the
whole corpus byte for byte (``repro scenario corpus generate``);
``--check-reproducible`` additionally replays the run and requires
bitwise-identical record identities within it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.scenario.corpus import CORPUS_SCHEMA_VERSION, ScenarioCase

#: Default location of the committed corpus, relative to the repo
#: root.
DEFAULT_CORPUS_DIR = "tests/conformance/corpus"


class CorpusFormatError(ValueError):
    """A corpus file violates the expected layout."""


@dataclass(frozen=True)
class CorpusEntry:
    """One committed cell: configuration + expected envelope."""

    case: ScenarioCase
    bands: Dict[str, List[float]]
    baseline: Dict[str, object]


def load_corpus(directory) -> Tuple[int, List[CorpusEntry]]:
    """Parse every ``*.json`` corpus file under *directory*.

    Returns ``(seed, entries)``; all files must agree on the seed
    and schema version (one corpus is one seeded world).
    """
    directory = Path(directory)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise CorpusFormatError(
            f"no corpus files under {directory}")
    seed: Optional[int] = None
    entries: List[CorpusEntry] = []
    for path in paths:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise CorpusFormatError(
                f"{path}: not valid JSON ({error})") from None
        if not isinstance(payload, dict):
            raise CorpusFormatError(f"{path}: not an object")
        version = payload.get("schema_version")
        if version != CORPUS_SCHEMA_VERSION:
            raise CorpusFormatError(
                f"{path}: schema v{version!r}, expected "
                f"v{CORPUS_SCHEMA_VERSION}")
        file_seed = payload.get("seed", 0)
        if type(file_seed) is not int:
            raise CorpusFormatError(
                f"{path}: seed {file_seed!r} is not an integer")
        cases = payload.get("cases", [])
        if not isinstance(cases, list):
            raise CorpusFormatError(f"{path}: cases is not a list")
        if seed is None:
            seed = file_seed
        elif seed != file_seed:
            raise CorpusFormatError(
                f"{path}: seed {file_seed} disagrees with {seed}")
        for position, item in enumerate(cases):
            try:
                case = ScenarioCase.from_dict(item["case"])
                expected = item["expected"]
                bands = {name: [float(low), float(high)]
                         for name, (low, high)
                         in expected["bands"].items()}
                baseline = dict(expected["baseline"])
            except (KeyError, TypeError, ValueError) as error:
                raise CorpusFormatError(
                    f"{path}: cases[{position}] malformed "
                    f"({error})") from None
            entries.append(CorpusEntry(case, bands, baseline))
    return seed, entries


def band_violations(entry: CorpusEntry,
                    observed: Dict[str, float]) -> List[str]:
    """Which observed metrics fall outside their committed band."""
    violations: List[str] = []
    for name, (low, high) in sorted(entry.bands.items()):
        value = observed.get(name)
        if value is None:
            violations.append(f"{name} missing from observation")
        elif not (low <= value <= high):
            violations.append(
                f"{name}={value:.4g} outside [{low:.4g}, "
                f"{high:.4g}]")
    return violations


def judge_record(entry: CorpusEntry,
                 record: Dict[str, object]) -> None:
    """Mark a finished cell's record ``out-of-band`` when its observed
    metrics miss *entry*'s committed bands (the reason lists them).

    Records without a security block (``error``) are left as they
    are; they already fail the run.
    """
    if record["security"] is None:
        return
    violations = band_violations(entry, record["security"]["observed"])
    if violations:
        record.update(status="out-of-band",
                      reason="; ".join(violations))
