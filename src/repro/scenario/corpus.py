"""The scenario conformance corpus: perturbed campaign grid + bands.

Following the base/variant/expected-answer regression pattern of the
DocuSenseLM RAG question suite (SNIPPETS.md snippet 1), the corpus
is an auto-generated grid of campaign configurations — scheme ×
trajectory family × noise perturbation, plus a handful of full
attack campaigns — whose *expected pass-bands* (failure-rate and
key-recovery envelopes) are computed once from seeded baseline runs
and committed under ``tests/conformance/corpus/``.  The conformance
checker (:mod:`repro.scenario.conformance`) re-runs the cases on the
warehouse runner and asserts results land inside their bands.

Determinism contract (mirroring the warehouse matrix): a case's RNG
roots derive from its *identifier*, never its grid position, so
adding cases never perturbs existing ones; trajectory streams derive
from the same identifier digest, so a case is one self-contained
seeded world.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.fleet import GroupAttackFactory, SequentialAttackFactory
from repro.keygen import (
    DistillerPairingKeyGen,
    FuzzyExtractorKeyGen,
    GroupBasedKeyGen,
    HardenedSequentialKeyGen,
    HardenedTempAwareKeyGen,
    SequentialPairingKeyGen,
    TempAwareKeyGen,
)
from repro.puf import ROArrayParams
from repro.scenario.trajectory import (
    AgingDrift,
    TemperatureCycle,
    TemperatureRamp,
    TrajectorySpec,
    VoltageNoise,
)
from repro.warehouse.matrix import Cell
from repro.warehouse.runner import record_line, run_matrix
from repro.warehouse.store import sha256_hex

#: Version of the corpus file layout; bump on any change to the case
#: or band encoding.
CORPUS_SCHEMA_VERSION = 1

#: Scheme geometry: (rows, cols, base sigma_noise).  Small arrays keep
#: every cell fast enough for the CI smoke slice; sigmas are tuned so
#: baseline failure rates sit near (but mostly off) zero while the
#: ``noise_scale=4`` tamper probe saturates well outside every band.
_GEOMETRY: Dict[str, tuple] = {
    "sequential": (8, 16, 150e3),
    "sequential-hardened": (8, 16, 40e3),
    "temp-aware": (8, 16, 90e3),
    "temp-aware-hardened": (8, 16, 90e3),
    "group-based": (4, 10, 64e3),
    "distiller": (4, 10, 80e3),
    "fuzzy": (4, 10, 120e3),
}

SCHEMES = tuple(_GEOMETRY)
FAMILIES = ("constant", "ramp", "cycle", "vnoise", "aging")
KINDS = ("failure", "attack")
#: Schemes with a corpus attack campaign (``kind="attack"`` cells).
ATTACK_SCHEMES = ("sequential", "group-based")
#: Noise perturbation applied to the device model, by label.
PERTURBATIONS: Dict[str, float] = {"base": 1.0, "noisy": 1.5}


def _keygen_factory(scheme: str) -> Callable[[], object]:
    """Picklable keygen factory for one corpus scheme."""
    if scheme == "sequential":
        return functools.partial(SequentialPairingKeyGen,
                                 threshold=300e3)
    if scheme == "sequential-hardened":
        # sigma 40e3 with tolerance 0.25 keeps the honest-device
        # false-reject rate near zero while the device-side pair
        # check still fires on manipulated helper data.
        return functools.partial(HardenedSequentialKeyGen,
                                 threshold=300e3,
                                 threshold_tolerance=0.25)
    if scheme == "temp-aware":
        return functools.partial(TempAwareKeyGen, t_min=-10, t_max=80,
                                 threshold=150e3)
    if scheme == "temp-aware-hardened":
        return functools.partial(HardenedTempAwareKeyGen, t_min=-10,
                                 t_max=80, threshold=150e3)
    if scheme == "group-based":
        return functools.partial(GroupBasedKeyGen,
                                 group_threshold=250e3)
    if scheme == "distiller":
        # neighbor-disjoint (not masking): the masked construction
        # discards unreliable bits outright and never fails at any
        # plausible noise level, which would blind the tamper probe.
        return functools.partial(DistillerPairingKeyGen, 4, 10,
                                 pairing_mode="neighbor-disjoint",
                                 k=5)
    if scheme == "fuzzy":
        return functools.partial(FuzzyExtractorKeyGen, 4, 10,
                                 out_bits=16)
    raise ValueError(f"unknown corpus scheme {scheme!r}")


@dataclass(frozen=True)
class ScenarioCase(Cell):
    """One cell of the conformance grid, run as a warehouse cell.

    ``noise_scale`` multiplies the device model's measurement-noise
    sigma; the named perturbations map to fixed scales
    (:data:`PERTURBATIONS`), and tests may construct deliberately
    out-of-band variants with arbitrary scales.  A case pins its own
    fleet size; ``failure`` cases run a ``trials``-long failure-rate
    sweep, ``attack`` cases a full attack campaign, both under the
    case's environment trajectory.
    """

    scheme: str
    family: str
    perturbation: str = "base"
    kind: str = "failure"
    quick: bool = False
    devices: int = 2
    trials: int = 64
    noise_scale: float = 1.0

    #: Warehouse record coordinates: no countermeasure axis.
    countermeasure = "none"

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown corpus scheme {self.scheme!r}")
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown trajectory family {self.family!r}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown case kind {self.kind!r}")
        if self.kind == "attack" and self.scheme not in ATTACK_SCHEMES:
            raise ValueError(
                f"no corpus attack for scheme {self.scheme!r}")
        if self.devices < 1 or self.trials < 1:
            raise ValueError(
                f"devices ({self.devices}) and trials "
                f"({self.trials}) must be positive")

    @property
    def case_id(self) -> str:
        """Stable identifier: kind/scheme/family/perturbation."""
        return (f"{self.kind}/{self.scheme}/{self.family}/"
                f"{self.perturbation}")

    @property
    def cell_id(self) -> str:
        """Warehouse cell identifier: ``scenario/<case id>``."""
        return f"scenario/{self.case_id}"

    @property
    def attack(self) -> str:
        """Warehouse record coordinate: the case kind."""
        return self.kind

    @property
    def variant(self) -> str:
        """Warehouse record coordinate: the trajectory family."""
        return self.family

    def _digest(self) -> bytes:
        return hashlib.sha256(self.case_id.encode("ascii")).digest()

    def seed_material(self, seed: int) -> List[int]:
        """Entropy for the case's RNG root: run seed + id digest.

        Derived from the case identifier — not its grid position —
        so growing the corpus never perturbs existing cases.
        """
        return [int(seed),
                int.from_bytes(self._digest()[:8], "little")]

    def array_params(self) -> ROArrayParams:
        """The case's device model parameters."""
        rows, cols, sigma_noise = _GEOMETRY[self.scheme]
        return ROArrayParams(rows=rows, cols=cols,
                             sigma_noise=sigma_noise
                             * float(self.noise_scale))

    def trajectory_spec(self) -> TrajectorySpec:
        """The case's trajectory family, seeded from its identifier."""
        traj_seed = int.from_bytes(self._digest()[8:16], "little")
        terms: tuple
        if self.family == "constant":
            terms = ()
        elif self.family == "ramp":
            terms = (TemperatureRamp(0.0, 40.0,
                                     queries=max(self.trials, 2)),)
        elif self.family == "cycle":
            terms = (TemperatureCycle(amplitude=15.0, period=48.0),)
        elif self.family == "vnoise":
            terms = (VoltageNoise(sigma=0.04),)
        else:  # "aging"
            terms = (AgingDrift(years=5.0, drift_sigma=40e3),)
        return TrajectorySpec(terms=terms, seed=traj_seed)

    def keygen_factory(self) -> Callable[[], object]:
        """Picklable keygen factory for this case."""
        return _keygen_factory(self.scheme)

    def attack_factory(self) -> Optional[Callable]:
        """Picklable attack factory; ``None`` for failure cases."""
        if self.kind == "failure":
            return None
        if self.scheme == "sequential":
            return SequentialAttackFactory("paired")
        rows, cols, _ = _GEOMETRY[self.scheme]
        return GroupAttackFactory(rows, cols)

    def config(self, seed: int, devices: int,
               profile: str) -> Dict[str, object]:
        """The record's ``config`` layer: the case plus the seed."""
        return dict(self.to_dict(), seed=int(seed))

    def observe(self, payloads: List[Dict[str, object]],
                security: Dict[str, object]) -> Dict[str, object]:
        """The metrics the pass-bands judge, and the case fingerprint.

        The fingerprint hashes the case's identity payload (per-device
        failure counts, or recovery mask and query bills, plus the
        enrollment fingerprint); the committed corpus pins it as
        ``baseline.fingerprint``.
        """
        identity: Dict[str, object] = {
            "case": self.case_id,
            "enrollment_fingerprint":
                security["enrollment_fingerprint"],
        }
        if self.kind == "failure":
            rates = [payload["failure_rate"] for payload in payloads]
            observed = {
                "failure_rate_mean": float(np.mean(rates)),
                "failure_rate_max": float(np.max(rates)),
            }
            identity["failures"] = [int(round(rate * self.trials))
                                    for rate in rates]
        else:
            observed = {
                "recovery_rate": float(np.mean(
                    security["recovered_mask"])),
                "queries_mean": float(np.mean(security["queries"])),
            }
            identity["recovered_mask"] = security["recovered_mask"]
            identity["queries"] = security["queries"]
        return {"observed": observed,
                "case_fingerprint": sha256_hex(identity)}

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable case configuration."""
        return {
            "scheme": self.scheme,
            "family": self.family,
            "perturbation": self.perturbation,
            "kind": self.kind,
            "quick": bool(self.quick),
            "devices": int(self.devices),
            "trials": int(self.trials),
            "noise_scale": float(self.noise_scale),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioCase":
        """Rebuild a case from its corpus-file configuration."""
        return cls(scheme=str(payload["scheme"]),
                   family=str(payload["family"]),
                   perturbation=str(payload["perturbation"]),
                   kind=str(payload["kind"]),
                   quick=bool(payload["quick"]),
                   devices=int(payload["devices"]),
                   trials=int(payload["trials"]),
                   noise_scale=float(payload["noise_scale"]))


def full_corpus() -> List[ScenarioCase]:
    """The complete conformance grid, in stable order.

    Failure cells cover scheme × family × perturbation; the quick
    slice (CI smoke) takes every scheme's constant/base cell, every
    family on the sequential scheme, and one attack campaign.
    """
    cases: List[ScenarioCase] = []
    for scheme in SCHEMES:
        for family in FAMILIES:
            for label, scale in PERTURBATIONS.items():
                quick = (label == "base"
                         and (family == "constant"
                              or scheme == "sequential"))
                cases.append(ScenarioCase(
                    scheme, family, label, "failure", quick,
                    noise_scale=scale))
    cases.append(ScenarioCase("sequential", "constant", "base",
                              "attack", quick=True))
    cases.append(ScenarioCase("sequential", "vnoise", "base",
                              "attack"))
    cases.append(ScenarioCase("group-based", "constant", "base",
                              "attack"))
    cases.append(ScenarioCase("group-based", "ramp", "base",
                              "attack"))
    return cases


def quick_corpus() -> List[ScenarioCase]:
    """The CI smoke slice of :func:`full_corpus`."""
    return [case for case in full_corpus() if case.quick]


def expected_bands(case: ScenarioCase,
                   observed: Dict[str, float]
                   ) -> Dict[str, List[float]]:
    """Pass-bands around a baseline observation.

    Conformance re-runs are seed-deterministic, so the bands exist
    to absorb *legitimate* movement — cross-platform floating-point
    differences and benign refactors that re-order stream
    consumption — while staying tight enough that a perturbed
    configuration (noise scale, gap years) lands outside.  Rate
    bands widen with the binomial standard error of the estimate;
    query bands are fractional.
    """
    bands: Dict[str, List[float]] = {}
    if case.kind == "failure":
        total = case.trials * case.devices
        mean = observed["failure_rate_mean"]
        margin = max(0.05, 4.0 * math.sqrt(
            max(mean * (1.0 - mean), 1.0 / total) / total))
        bands["failure_rate_mean"] = [max(0.0, mean - margin),
                                      min(1.0, mean + margin)]
        peak = observed["failure_rate_max"]
        margin = max(0.08, 4.0 * math.sqrt(
            max(peak * (1.0 - peak), 1.0 / case.trials)
            / case.trials))
        bands["failure_rate_max"] = [max(0.0, peak - margin),
                                     min(1.0, peak + margin)]
    else:
        rate = observed["recovery_rate"]
        margin = 0.5 / case.devices
        bands["recovery_rate"] = [max(0.0, rate - margin),
                                  min(1.0, rate + margin)]
        queries = observed["queries_mean"]
        bands["queries_mean"] = [queries * 0.65, queries * 1.45]
    return bands


def build_corpus(cases: List[ScenarioCase], seed: int,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> Dict[str, Dict[str, object]]:
    """Run baselines and assemble per-scheme corpus payloads.

    Returns ``{scheme: corpus-file payload}``; each payload carries
    the cases' configurations, expected bands and baseline
    observations, including the case fingerprint.  Regenerating the
    corpus from the same seed reproduces the committed files byte for
    byte.
    """
    payloads: Dict[str, Dict[str, object]] = {}
    by_id = {case.cell_id: case for case in cases}

    def collect(record: Dict[str, object]) -> None:
        if record["security"] is None:
            raise RuntimeError(f"{record['cell']}: {record['reason']}")
        case = by_id[record["cell"]]
        observed = record["security"]["observed"]
        entry = {
            "case": case.to_dict(),
            "expected": {
                "bands": expected_bands(case, observed),
                "baseline": dict(
                    observed,
                    fingerprint=record["security"]["case_fingerprint"]),
            },
        }
        payload = payloads.setdefault(case.scheme, {
            "schema_version": CORPUS_SCHEMA_VERSION,
            "seed": int(seed),
            "scheme": case.scheme,
            "cases": [],
        })
        payload["cases"].append(entry)
        if progress is not None:
            progress(record_line(record))

    run_matrix(cases, "corpus", seed, None, "", on_record=collect)
    return payloads


def perturbed_variant(case: ScenarioCase,
                      noise_scale: float = 4.0) -> ScenarioCase:
    """A deliberately out-of-band variant of *case*.

    Used by the conformance self-test: scaling the measurement noise
    this far moves the failure-rate envelope of every scheme outside
    its committed band, so the checker must flag it.
    """
    return replace(case, perturbation="tampered",
                   noise_scale=float(noise_scale))
