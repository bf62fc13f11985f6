"""Device-side helper-data validation (hardening experiments).

Paper §VII-C argues that helper-data *formats and sanity checks* are
security-critical yet typically unspecified.  This module implements the
checks a defensive device could realistically perform on incoming
helper data, plus hardened key-generator variants that enforce them:

* **pair disjointness** for pair lists (already enforced by
  :class:`~repro.pairing.sequential.SequentialPairing`);
* **polynomial amplitude bounds** for distiller coefficients — the
  systematic trend of a real IC spans a few MHz, so a surface swinging
  orders of magnitude more is necessarily an attack payload (§VI-C);
* **measured-threshold verification** for group maps and pair lists —
  the device can recompute, on the readout it regenerates from,
  whether every intra-group pair (every stored pair) actually exceeds
  ``Δf_th``;
* **interval sanity** for temperature-aware cooperation records.

Checks that depend only on the helper data (amplitude, group
membership, pair structure, cooperation records) run once when a
hardened model builds its batch evaluator; a rejection makes every
query fail.  The measured-threshold checks depend on each readout and
run on the batch path as a vectorized mask
(:func:`measured_threshold_mask`) that fails exactly the rows the
scalar check rejects, so scalar and batched queries agree bitwise.

The hardening is deliberately *imperfect*: the checks close the steep
payload channels but are construction-specific patchwork — which is
exactly the paper's argument for preferring the fuzzy extractor.  The
bench ``bench_countermeasures.py`` quantifies what each check stops.
"""

from __future__ import annotations

import functools
from typing import Sequence, Tuple

import numpy as np

from repro.distiller.distiller import DistillerHelper
from repro.grouping.algorithm import GroupingHelper
from repro.keygen.base import OperatingPoint, ReconstructionFailure
from repro.keygen.group_based import GroupBasedKeyGen, GroupBasedKeyHelper
from repro.keygen.sequential import (
    SequentialKeyHelper,
    SequentialPairingKeyGen,
)
from repro.keygen.temp_aware import TempAwareKeyGen, TempAwareKeyHelper
from repro.pairing.base import Pair, pair_index_arrays, validate_pairs
from repro.pairing.temp_aware import TempAwareHelper


class HelperDataRejected(ReconstructionFailure):
    """A device-side sanity check refused the helper data.

    Subclasses :class:`ReconstructionFailure` because a rejection is
    externally just another failed reconstruction (the attacker cannot
    tell a validation refusal from an ECC failure).
    """


def _layout_coordinates(rows: int, cols: int
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Row-major ``(x, y)`` coordinates of a ``rows x cols`` array."""
    cells = np.arange(rows * cols, dtype=float)
    return cells % cols, cells // cols


def _check_surface_span(helper: DistillerHelper, xs: np.ndarray,
                        ys: np.ndarray, max_span: float) -> None:
    """The amplitude bound over precomputed layout coordinates.

    A non-finite coefficient makes the span ``inf`` or NaN; both are
    rejected, so the comparison is written to fail on NaN.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        values = helper.polynomial(xs, ys)
        span = float(values.max() - values.min())
    if not span <= max_span:
        raise HelperDataRejected(
            f"distiller surface spans {span:.3e} Hz, outside the "
            f"plausibility bound {max_span:.3e} Hz")


def validate_distiller_amplitude(helper: DistillerHelper, rows: int,
                                 cols: int,
                                 max_span: float) -> None:
    """Reject polynomial coefficients whose surface span is implausible.

    Evaluates the stored polynomial over the physical array and compares
    its peak-to-peak span against *max_span* (a design-time bound, e.g.
    four times the expected systematic amplitude).
    """
    xs, ys = _layout_coordinates(rows, cols)
    _check_surface_span(helper, xs, ys, max_span)


def validate_group_thresholds(residuals: np.ndarray,
                              grouping: GroupingHelper,
                              threshold: float,
                              tolerance: float = 0.5) -> None:
    """Verify the grouping property on the device's own measurements.

    Every intra-group pair must exceed ``threshold`` (scaled by
    *tolerance* to absorb measurement noise) on the residuals the device
    just measured.  A repartitioned group map whose pairs owe their
    separation to an injected surface fails this check as soon as the
    injection itself is rejected or absent.
    """
    residuals = np.asarray(residuals, dtype=float)
    floor = threshold * tolerance
    for group in grouping.groups:
        members = list(group)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if abs(residuals[a] - residuals[b]) <= floor:
                    raise HelperDataRejected(
                        f"group pair ({a}, {b}) violates the measured "
                        f"threshold")


def validate_group_membership(grouping: GroupingHelper, n: int) -> None:
    """Structural checks: indices in range, no oscillator re-used."""
    seen = set()
    for group in grouping.groups:
        for member in group:
            if not 0 <= member < n:
                raise HelperDataRejected(
                    f"group member {member} out of range")
            if member in seen:
                raise HelperDataRejected(
                    f"oscillator {member} appears in two groups")
            seen.add(member)


def validate_pair_thresholds(freqs: np.ndarray,
                             pairs: Sequence[Pair],
                             threshold: float,
                             tolerance: float = 0.5) -> None:
    """Verify the pairing property on the device's own measurements.

    Algorithm 1 only stores a pair when the enrolled frequency gap
    exceeds ``Δf_th``; a defensive device can recompute that property on
    the frequencies it just measured (scaled by *tolerance* to absorb
    measurement noise).  A substituted pair list whose gaps do not stem
    from the physical array fails the check.
    """
    freqs = np.asarray(freqs, dtype=float)
    floor = threshold * tolerance
    for a, b in pairs:
        if abs(freqs[a] - freqs[b]) <= floor:
            raise HelperDataRejected(
                f"pair ({a}, {b}) violates the measured threshold")


def group_pair_indices(grouping: GroupingHelper
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Index vectors ``(a, b)`` of every intra-group pair.

    The pairs :func:`validate_group_thresholds` inspects, in its order;
    they feed :func:`measured_threshold_mask` on the batch path.
    """
    return pair_index_arrays([
        (a, b) for group in grouping.groups
        for i, a in enumerate(group) for b in group[i + 1:]])


def measured_threshold_mask(values: np.ndarray, first: np.ndarray,
                            second: np.ndarray,
                            floor: float) -> np.ndarray:
    """Rows of a ``(B, n)`` batch that pass a measured-threshold check.

    Row ``i`` is ``False`` iff some pair ``k`` has ``|values[i,
    first[k]] - values[i, second[k]]| <= floor`` — the rejection
    condition of :func:`validate_group_thresholds` and
    :func:`validate_pair_thresholds`, so a NaN gap passes here exactly
    as it passes there.
    """
    values = np.asarray(values, dtype=float)
    return ~(np.abs(values[:, first] - values[:, second])
             <= floor).any(axis=1)


def validate_cooperation_records(scheme: TempAwareHelper) -> None:
    """Sanity checks on temperature-aware cooperation records.

    Intervals must be ordered and inside the operating range; assistant
    indices must reference cooperating pairs with non-intersecting
    intervals; good indices must reference good pairs.
    """
    coop_entries = {e.pair_index: e for e in scheme.cooperation}
    good = set(scheme.good_indices)
    for entry in scheme.cooperation:
        if not (scheme.t_min <= entry.t_low <= entry.t_high
                <= scheme.t_max):
            raise HelperDataRejected(
                f"cooperation interval [{entry.t_low}, {entry.t_high}] "
                f"outside the operating range")
        if entry.good_index not in good:
            raise HelperDataRejected(
                f"masking index {entry.good_index} is not a good pair")
        assistant = coop_entries.get(entry.assist_index)
        if assistant is None:
            raise HelperDataRejected(
                f"assistant {entry.assist_index} is not a cooperating "
                f"pair")
        if not (entry.t_high < assistant.t_low
                or assistant.t_high < entry.t_low):
            raise HelperDataRejected(
                "assistant interval intersects the requester's")


class HardenedGroupBasedKeyGen(GroupBasedKeyGen):
    """Group-based device that validates helper data before use.

    Enforces the distiller amplitude bound, group-map structure and the
    measured-threshold property on every reconstruction.  The
    threshold property is checked on the readout the device
    regenerates from, so a query takes one measurement like every
    other model.  The batch evaluator runs the helper-only checks once
    per helper and the threshold check as a per-readout mask.
    """

    def __init__(self, rows: int, cols: int,
                 max_polynomial_span: float,
                 threshold_tolerance: float = 0.5, **kwargs):
        super().__init__(**kwargs)
        self._rows = int(rows)
        self._cols = int(cols)
        self._max_span = float(max_polynomial_span)
        self._tolerance = float(threshold_tolerance)
        self._coordinates = _layout_coordinates(self._rows, self._cols)

    def _check_helper(self, array, helper: GroupBasedKeyHelper) -> None:
        """Helper-only checks: amplitude bound and group membership."""
        _check_surface_span(helper.distiller, *self._coordinates,
                            self._max_span)
        validate_group_membership(helper.grouping, array.n)

    def reconstruct_from_frequencies(
            self, array, freqs, helper: GroupBasedKeyHelper,
            op: OperatingPoint = OperatingPoint()) -> np.ndarray:
        """Validate helper data on this readout, then regenerate."""
        self._check_helper(array, helper)
        residuals = self.distiller.residuals(array.x, array.y, freqs,
                                             helper.distiller)
        validate_group_thresholds(residuals, helper.grouping,
                                  self.grouping.threshold,
                                  self._tolerance)
        return super().reconstruct_from_frequencies(array, freqs,
                                                    helper, op)

    def _readout_check(self, array, helper: GroupBasedKeyHelper):
        """Helper-only checks now; the measured threshold as a mask."""
        self._check_helper(array, helper)
        first, second = group_pair_indices(helper.grouping)
        return functools.partial(
            measured_threshold_mask, first=first, second=second,
            floor=self.grouping.threshold * self._tolerance)


class HardenedSequentialKeyGen(SequentialPairingKeyGen):
    """Sequential-pairing device that validates helper data before use.

    On top of the structural pair checks the base scheme already
    enforces (index ranges, disjointness), this variant recomputes the
    Algorithm 1 threshold property on its own readout: every stored
    pair must exceed ``Δf_th`` (scaled by *threshold_tolerance*) on the
    frequencies the device just measured.  The structural checks run
    first, so the threshold check only ever indexes valid pairs.
    """

    def __init__(self, threshold: float,
                 threshold_tolerance: float = 0.5, **kwargs):
        super().__init__(threshold, **kwargs)
        self._tolerance = float(threshold_tolerance)

    def reconstruct_from_frequencies(
            self, array, freqs, helper: SequentialKeyHelper,
            op: OperatingPoint = OperatingPoint()) -> np.ndarray:
        """Reject malformed pairs, then pairs failing the measured
        threshold, then regenerate."""
        pairs = helper.pairing.pairs
        try:
            validate_pairs(pairs, np.asarray(freqs).shape[0],
                           allow_reuse=not self.pairing.enforce_disjoint)
        except ValueError as exc:
            raise HelperDataRejected(str(exc)) from exc
        validate_pair_thresholds(freqs, pairs, self.pairing.threshold,
                                 self._tolerance)
        return super().reconstruct_from_frequencies(array, freqs,
                                                    helper, op)

    def _readout_check(self, array, helper: SequentialKeyHelper):
        """The measured threshold as a per-readout mask."""
        first, second = pair_index_arrays(helper.pairing.pairs)
        return functools.partial(
            measured_threshold_mask, first=first, second=second,
            floor=self.pairing.threshold * self._tolerance)


class HardenedTempAwareKeyGen(TempAwareKeyGen):
    """Temperature-aware device that validates cooperation records."""

    def reconstruct_from_frequencies(
            self, array, freqs, helper: TempAwareKeyHelper,
            op: OperatingPoint = OperatingPoint()) -> np.ndarray:
        """Reject invalid cooperation records, then reconstruct."""
        validate_cooperation_records(helper.scheme)
        return super().reconstruct_from_frequencies(array, freqs,
                                                    helper, op)

    def batch_evaluator(self, array, helper: TempAwareKeyHelper,
                        op: OperatingPoint = OperatingPoint()):
        """Validate records once, then use the vectorized path."""
        try:
            validate_cooperation_records(helper.scheme)
        except HelperDataRejected:
            from repro.keygen.batch import ConstantEvaluator

            return ConstantEvaluator(False)
        return super().batch_evaluator(array, helper, op)
