"""The attack × scheme × countermeasure matrix, as data.

The warehouse iterates the **full** cross product of the five keygen
schemes, the attack families and the countermeasure knobs quantified
by ``benchmarks/bench_countermeasures.py``.  Most combinations are
structurally inapplicable — a §VI-C group attack has nothing to parse
in sequential-pairing helper data, and the fuzzy-extractor
architecture removes the manipulation channel outright — and those
cells are still first-class: they appear in every run as ``n/a``
records with an explicit reason, so a matrix is complete by
construction and a diff can never silently lose coverage.

Runnable cells pin the paper geometry they reproduce (Fig. 6's 4×10
array for the group/distiller constructions, 8×16 for the pairing
families), and a ``quick`` flag marks the reduced matrix the CI smoke
job runs.  Each cell also builds its own seeded world — device model,
keygen and attack factories — through the :class:`Cell` protocol the
runner executes, which the scenario conformance cases speak too.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.ecc import BlockwiseCode, ReedMullerCode
from repro.fleet import (
    DistillerAttackFactory,
    GroupAttackFactory,
    SequentialAttackFactory,
    TempAwareAttackFactory,
)
from repro.keygen import (
    DistillerPairingKeyGen,
    FuzzyExtractorKeyGen,
    GroupBasedKeyGen,
    HardenedGroupBasedKeyGen,
    HardenedTempAwareKeyGen,
    SequentialPairingKeyGen,
    TempAwareKeyGen,
)
from repro.puf import ROArrayParams

#: The five keygen schemes (axis order is the matrix iteration order).
SCHEMES = ("sequential", "temp-aware", "group-based", "distiller",
           "fuzzy-extractor")

#: Attack families: the §VI-A paired/SPRT/ML distinguishers, the §VI-C
#: group attack, the §VI-D distiller attack, the §VI-B
#: temperature-aware attack, plus the reconstruction-timing baseline
#: of the §VII-C fuzzy-extractor comparison (not an attack on the
#: scheme — the cost axis the paper trades the attack surface for).
ATTACKS = ("sequential", "sprt", "ml", "group", "distiller",
           "temp-aware", "reconstruction")

#: Countermeasure knobs of ``bench_countermeasures.py``: device-side
#: validation off ("baseline") or on ("hardened").
COUNTERMEASURES = ("baseline", "hardened")

#: Reasons for structurally inapplicable cells.
_REASON_MISMATCH = ("attack targets a different helper-data "
                    "structure")
_REASON_FUZZY = ("the fuzzy-extractor architecture removes the "
                 "helper-data manipulation channel (paper §VII-C)")
_REASON_NO_HARDENING = ("no device-side validation variant exists "
                        "for this scheme")
_REASON_COVERED = ("covered by the sequential/sequential/hardened "
                   "cell; the distinguisher variant adds no new "
                   "validation surface")
_REASON_RECON_ONLY = ("the reconstruction-timing baseline quantifies "
                      "the fuzzy-extractor cost axis only (paper "
                      "§VII-C)")


#: Reconstruction attempts per device of a failure-rate sweep cell.
SWEEP_TRIALS = 64


class Cell:
    """What :func:`repro.warehouse.runner.run_cell` needs of a cell.

    A cell names itself (``cell_id``, ``scheme``, ``attack``,
    ``countermeasure``, ``variant``), says whether it runs
    (``runnable``, else the ``reason`` of its ``n/a`` record) and
    supplies its seeded world: RNG root, device model, keygen, an
    attack factory (``None`` runs a ``trials``-long failure-rate sweep
    instead) and an optional environment trajectory.  ``devices``
    pins the cell's fleet size (``None`` takes the run's).  The
    defaults here are those of a plain matrix cell.
    """

    runnable = True
    reason = ""
    devices: Optional[int] = None
    trials = SWEEP_TRIALS

    def trajectory_spec(self):
        """The devices' environment trajectory (``None``: nominal)."""
        return None

    def observe(self, payloads: List[Dict[str, object]],
                security: Dict[str, object]) -> Dict[str, object]:
        """Extra ``security`` fields derived from the per-device
        payloads (none for a plain matrix cell)."""
        return {}


@dataclass(frozen=True)
class _ReedMullerProvider:
    """Picklable provider of blockwise Reed–Muller codes (ML-decoded).

    First-order RM decoding never fails — it is the matrix's
    maximum-likelihood column: the §VI-A bounded-distance calculus
    does not apply and the attack switches to its online-calibration
    variant automatically.
    """

    m: int = 5

    def __call__(self, bits: int) -> BlockwiseCode:
        """Smallest blockwise RM(1, m) covering *bits* data bits."""
        inner = ReedMullerCode(self.m)
        blocks = max(1, -(-bits // inner.k))
        if blocks == 1:
            return inner
        return BlockwiseCode(inner, blocks)


@dataclass(frozen=True)
class MatrixCell(Cell):
    """One cell of the attack × scheme × countermeasure matrix.

    ``runnable`` cells carry the experiment geometry; inapplicable
    cells carry the ``reason`` they produce ``n/a`` records instead.
    ``variant`` disambiguates scheme sub-configurations (the two
    distiller pairing modes, the ML-decoded sequential code) and is
    part of the cell identifier.
    """

    scheme: str
    attack: str
    countermeasure: str
    variant: str = ""
    runnable: bool = False
    reason: str = ""
    quick: bool = False
    rows: int = 0
    cols: int = 0
    temp_slope_sigma: float = 0.0

    @property
    def cell_id(self) -> str:
        """Stable identifier: ``scheme[variant]/attack/cm``."""
        scheme = (f"{self.scheme}[{self.variant}]" if self.variant
                  else self.scheme)
        return f"{scheme}/{self.attack}/{self.countermeasure}"

    def seed_material(self, seed: int) -> List[int]:
        """Entropy for this cell's RNG root, stable across registry
        growth (derived from the cell identifier, not its position)."""
        digest = hashlib.sha256(self.cell_id.encode("ascii")).digest()
        return [int(seed), int.from_bytes(digest[:8], "little")]

    def config(self, seed: int, devices: int,
               profile: str) -> Dict[str, object]:
        """The record's ``config`` layer."""
        return {"seed": int(seed), "devices": int(devices),
                "rows": self.rows, "cols": self.cols,
                "profile": profile}

    def array_params(self) -> ROArrayParams:
        """The cell's device model (the paper geometry it pins)."""
        if self.temp_slope_sigma > 0:
            return ROArrayParams(rows=self.rows, cols=self.cols,
                                 temp_slope_sigma=self.temp_slope_sigma)
        return ROArrayParams(rows=self.rows, cols=self.cols)

    def keygen_factory(self) -> Callable[[], object]:
        """Picklable keygen factory of a runnable cell."""
        if self.scheme == "sequential":
            provider = (_ReedMullerProvider(5)
                        if self.variant == "rm5" else None)
            return functools.partial(SequentialPairingKeyGen,
                                     threshold=300e3,
                                     code_provider=provider)
        if self.scheme == "group-based":
            if self.countermeasure == "hardened":
                return functools.partial(
                    HardenedGroupBasedKeyGen, rows=self.rows,
                    cols=self.cols, max_polynomial_span=20e6,
                    group_threshold=120e3)
            return functools.partial(GroupBasedKeyGen,
                                     group_threshold=120e3)
        if self.scheme == "temp-aware":
            cls = (HardenedTempAwareKeyGen
                   if self.countermeasure == "hardened"
                   else TempAwareKeyGen)
            return functools.partial(cls, t_min=-10, t_max=80,
                                     threshold=150e3)
        if self.scheme == "distiller":
            return functools.partial(DistillerPairingKeyGen, self.rows,
                                     self.cols,
                                     pairing_mode=self.variant, k=5)
        if self.scheme == "fuzzy-extractor":
            out_bits = 48 if self.variant == "8x16" else 16
            return functools.partial(FuzzyExtractorKeyGen, self.rows,
                                     self.cols, out_bits=out_bits)
        raise ValueError(
            f"no keygen factory for scheme {self.scheme!r}")

    def attack_factory(self) -> Optional[Callable]:
        """Picklable attack factory of a runnable cell; ``None`` for
        the §VII-C reconstruction-timing sweep."""
        if self.attack in ("sequential", "ml"):
            return SequentialAttackFactory("paired")
        if self.attack == "sprt":
            return SequentialAttackFactory("sprt")
        if self.attack == "group":
            return GroupAttackFactory(self.rows, self.cols)
        if self.attack == "distiller":
            return DistillerAttackFactory(self.rows, self.cols)
        if self.attack == "temp-aware":
            return TempAwareAttackFactory()
        if self.attack == "reconstruction":
            return None
        raise ValueError(
            f"no attack factory for family {self.attack!r}")


def _runnable(scheme: str, attack: str, countermeasure: str,
              variant: str, quick: bool, rows: int, cols: int,
              temp_slope_sigma: float = 0.0) -> MatrixCell:
    return MatrixCell(scheme, attack, countermeasure, variant,
                      runnable=True, quick=quick, rows=rows,
                      cols=cols, temp_slope_sigma=temp_slope_sigma)


#: Runnable cells, keyed by (scheme, attack, countermeasure).  A value
#: is a tuple because one coordinate may expand into several variant
#: cells (the two distiller pairing modes).
_RUNNABLE: Dict[Tuple[str, str, str], Tuple[MatrixCell, ...]] = {
    ("sequential", "sequential", "baseline"): (
        _runnable("sequential", "sequential", "baseline", "", True,
                  8, 16),),
    # Pair disjointness is the only device-side check the scheme
    # admits and the swap channel survives it — the paper's point.
    # Running the cell documents the survival in the warehouse.
    ("sequential", "sequential", "hardened"): (
        _runnable("sequential", "sequential", "hardened", "", False,
                  8, 16),),
    ("sequential", "sprt", "baseline"): (
        _runnable("sequential", "sprt", "baseline", "", True, 8, 16),),
    ("sequential", "ml", "baseline"): (
        _runnable("sequential", "ml", "baseline", "rm5", False,
                  8, 16),),
    ("group-based", "group", "baseline"): (
        _runnable("group-based", "group", "baseline", "", True,
                  4, 10),),
    ("group-based", "group", "hardened"): (
        _runnable("group-based", "group", "hardened", "", True,
                  4, 10),),
    ("temp-aware", "temp-aware", "baseline"): (
        _runnable("temp-aware", "temp-aware", "baseline", "", True,
                  8, 16, temp_slope_sigma=8e3),),
    ("temp-aware", "temp-aware", "hardened"): (
        _runnable("temp-aware", "temp-aware", "hardened", "", False,
                  8, 16, temp_slope_sigma=8e3),),
    ("distiller", "distiller", "baseline"): (
        _runnable("distiller", "distiller", "baseline", "masking",
                  True, 4, 10),
        _runnable("distiller", "distiller", "baseline",
                  "neighbor-overlap", False, 4, 10),),
    # The §VII-C comparison point: the fuzzy extractor removes the
    # manipulation channel but pays in reconstruction cost.  These
    # cells time the reconstruction sweep at the paper's two
    # geometries so the warehouse carries the trade-off, not just
    # the n/a records.
    ("fuzzy-extractor", "reconstruction", "baseline"): (
        _runnable("fuzzy-extractor", "reconstruction", "baseline",
                  "4x10", False, 4, 10),
        _runnable("fuzzy-extractor", "reconstruction", "baseline",
                  "8x16", False, 8, 16),),
}


def _na_reason(scheme: str, attack: str, countermeasure: str) -> str:
    """Why a non-runnable coordinate is structurally inapplicable."""
    if attack == "reconstruction":
        if scheme == "fuzzy-extractor":
            return _REASON_NO_HARDENING
        return _REASON_RECON_ONLY
    if scheme == "fuzzy-extractor":
        return _REASON_FUZZY
    matched = {
        "sequential": ("sequential", "sprt", "ml"),
        "temp-aware": ("temp-aware",),
        "group-based": ("group",),
        "distiller": ("distiller",),
    }[scheme]
    if attack not in matched:
        return _REASON_MISMATCH
    if countermeasure == "hardened":
        if scheme in ("sequential",):
            return _REASON_COVERED
        return _REASON_NO_HARDENING
    raise AssertionError(  # pragma: no cover - registry invariant
        f"unclassified cell {scheme}/{attack}/{countermeasure}")


def full_matrix() -> List[MatrixCell]:
    """Every cell of the cross product, in canonical axis order."""
    cells: List[MatrixCell] = []
    for scheme in SCHEMES:
        for attack in ATTACKS:
            for countermeasure in COUNTERMEASURES:
                coordinate = (scheme, attack, countermeasure)
                if coordinate in _RUNNABLE:
                    cells.extend(_RUNNABLE[coordinate])
                else:
                    cells.append(MatrixCell(
                        scheme, attack, countermeasure,
                        reason=_na_reason(*coordinate)))
    return cells


def quick_matrix() -> List[MatrixCell]:
    """The reduced matrix of the CI smoke job.

    Keeps every inapplicable cell (they cost nothing and keep the
    matrix shape complete) but only the ``quick``-flagged runnable
    cells.
    """
    return [cell for cell in full_matrix()
            if not cell.runnable or cell.quick]


def select_cells(cells: List[MatrixCell],
                 pattern: Optional[str] = None) -> List[MatrixCell]:
    """Filter cells by an ``fnmatch`` pattern on the cell identifier.

    An exact identifier always selects its cell, even though variant
    ids contain ``[...]`` (which fnmatch would read as a character
    class).
    """
    if pattern is None:
        return list(cells)
    exact = [cell for cell in cells if cell.cell_id == pattern]
    if exact:
        return exact
    from fnmatch import fnmatchcase

    return [cell for cell in cells
            if fnmatchcase(cell.cell_id, pattern)]
