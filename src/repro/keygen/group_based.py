"""End-to-end group-based RO PUF key generator (paper Fig. 4).

Pipeline: RO array → entropy distillation → grouping algorithm →
Kendall coding → ECC → entropy packing → secret key.  Public helper
data, exactly as drawn on the IC boundary in Fig. 4: polynomial
coefficients, group information and ECC redundancy (plus the key-check
commitment that models the key-dependent application).

Every helper component is attacker-writable; the §VI-C attack rewrites
all of them at once to *reprogram* the device key.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro._rng import RNGLike, ensure_rng
from repro.distiller.distiller import DistillerHelper, EntropyDistiller
from repro.ecc.sketch import SketchData
from repro.grouping.algorithm import GroupingHelper, GroupingScheme
from repro.grouping.kendall import (
    kendall_bit_count,
    kendall_encode,
    order_from_frequencies,
    pair_table,
)
from repro.grouping.packing import pack_key, size_layout
from repro.keygen.base import (
    CodeProvider,
    KeyGenerator,
    OperatingPoint,
    ReconstructionFailure,
    bch_provider,
    key_check_digest,
)
from repro.keygen.batch import (
    ConstantEvaluator,
    ResponseBitEvaluator,
    SketchCompletion,
)
from repro.puf.measurement import enroll_frequencies
from repro.puf.ro_array import ROArray


@dataclass(frozen=True)
class GroupBasedKeyHelper:
    """Complete public helper data of the group-based construction."""

    distiller: DistillerHelper
    grouping: GroupingHelper
    sketch: SketchData
    key_check: bytes

    def with_distiller(self, distiller: DistillerHelper
                       ) -> "GroupBasedKeyHelper":
        """Manipulated copy with replaced polynomial coefficients."""
        return replace(self, distiller=distiller)

    def with_grouping(self, grouping: GroupingHelper
                      ) -> "GroupBasedKeyHelper":
        """Manipulated copy with a repartitioned group map."""
        return replace(self, grouping=grouping)

    def with_sketch(self, sketch: SketchData) -> "GroupBasedKeyHelper":
        """Manipulated copy with replaced ECC redundancy."""
        return replace(self, sketch=sketch)

    def with_key_check(self, key_check: bytes) -> "GroupBasedKeyHelper":
        """Manipulated copy committing to a (reprogrammed) key."""
        return replace(self, key_check=key_check)


def kendall_stream(residuals: np.ndarray,
                   grouping: GroupingHelper) -> np.ndarray:
    """Concatenated Kendall bits of every group, in stored-member labelling.

    The canonical label of a member is its position in the stored group
    tuple; the measured descending-residual order of the labels is
    Kendall-encoded per group and concatenated in group order.
    """
    residuals = np.asarray(residuals, dtype=float)
    chunks: List[np.ndarray] = []
    for group in grouping.groups:
        member_values = residuals[list(group)]
        chunks.append(kendall_encode(order_from_frequencies(member_values)))
    if not chunks:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate(chunks)


def kendall_stream_batch(residuals: np.ndarray,
                         grouping: GroupingHelper) -> np.ndarray:
    """Kendall streams for a ``(B, n)`` residual batch, ``(B, bits)``.

    Row ``i`` equals ``kendall_stream(residuals[i], grouping)``.  The
    groups are bucketed by size (``size_layout``); per bucket, the
    descending-residual orders of all its groups and rows come from
    one stable argsort, and the discordance bit of label pair
    ``(x, y)`` is then a rank comparison, so no per-row or per-group
    Python work remains.
    """
    residuals = np.asarray(residuals, dtype=float)
    if residuals.ndim != 2:
        raise ValueError("batch evaluation needs a (B, n) matrix")
    layout = size_layout(grouping.sizes)
    rows = residuals.shape[0]
    stream = np.empty((rows, layout.stream_cols.size), dtype=np.uint8)
    group_at = stream_at = 0
    for size, count in layout.buckets:
        if size == 0:
            raise ValueError("empty group in helper data")
        members = np.array([grouping.groups[j] for j in
                            layout.groups[group_at:group_at + count]],
                           dtype=np.intp)
        group_at += count
        order = np.argsort(-residuals[:, members], axis=2, kind="stable")
        # rank[b, j, label] = position of the label in the order.
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.arange(size), axis=2)
        xs, ys = pair_table(size)
        width = count * xs.size
        stream[:, stream_at:stream_at + width] = \
            (rank[:, :, ys] < rank[:, :, xs]).reshape(rows, width)
        stream_at += width
    out = np.empty_like(stream)
    out[:, layout.stream_cols] = stream
    return out


def _check_members(grouping: GroupingHelper, n: int) -> None:
    """Reject group member indices outside ``[0, n)``.

    The stream extractors index residuals with the stored members, so
    an out-of-range index would raise ``IndexError`` (too large) or
    wrap around to another oscillator (negative).  Raises
    ``ValueError`` instead, which the key generator reports as a
    failed reconstruction.
    """
    members = [member for group in grouping.groups for member in group]
    if members and not 0 <= min(members) <= max(members) < n:
        raise ValueError("group member index out of range")


@dataclass(frozen=True)
class _PackKeyAssembler:
    """Picklable key assembly: Kendall stream → packed key bits.

    Raises ``ValueError`` when a mis-corrected stream is not a valid
    Kendall word — an observable reconstruction failure, handled by
    the completion.
    """

    sizes: Tuple[int, ...]

    def __call__(self, stream: np.ndarray) -> np.ndarray:
        """Pack a corrected Kendall stream into key bits."""
        return pack_key(stream, self.sizes)


class GroupBasedKeyGen(KeyGenerator):
    """Device model of the DATE 2013 group-based construction."""

    def __init__(self, distiller_degree: int = 2,
                 group_threshold: float = 50e3,
                 code_provider: CodeProvider = None,
                 storage_order: str = "sorted",
                 enrollment_samples: int = 9,
                 min_group_size: int = 2):
        self._distiller = EntropyDistiller(distiller_degree)
        self._grouping = GroupingScheme(group_threshold,
                                        storage_order=storage_order,
                                        min_group_size=min_group_size)
        self._code_provider = code_provider or bch_provider(3)
        self._samples = int(enrollment_samples)

    @property
    def distiller(self) -> EntropyDistiller:
        """The entropy distiller removing systematic variation."""
        return self._distiller

    @property
    def grouping(self) -> GroupingScheme:
        """The grouping scheme partitioning distilled residuals."""
        return self._grouping

    # ------------------------------------------------------------------

    def enroll(self, array: ROArray, rng: RNGLike = None
               ) -> Tuple[GroupBasedKeyHelper, np.ndarray]:
        """One-time enrollment; returns ``(helper, key_bits)``."""
        gen = ensure_rng(rng)
        freqs = enroll_frequencies(array, self._samples, rng=gen)
        distiller_helper, residuals = self._distiller.enroll(
            array.x, array.y, freqs)
        grouping_helper = self._grouping.enroll(residuals)
        if not grouping_helper.groups:
            raise ValueError("grouping produced no usable groups; "
                             "lower the threshold")
        stream = kendall_stream(residuals, grouping_helper)
        sketch = self.sketch_for(stream.size)
        sketch_data = sketch.generate(stream, gen)
        key = pack_key(stream, grouping_helper.sizes)
        helper = GroupBasedKeyHelper(distiller_helper, grouping_helper,
                                     sketch_data, key_check_digest(key))
        return helper, key

    def reconstruct_from_frequencies(
            self, array: ROArray, freqs: np.ndarray,
            helper: GroupBasedKeyHelper,
            op: OperatingPoint = OperatingPoint()) -> np.ndarray:
        """Regenerate the key from one ``(n,)`` measurement row."""
        residuals = self._distiller.residuals(array.x, array.y, freqs,
                                              helper.distiller)
        try:
            _check_members(helper.grouping, array.n)
            stream = kendall_stream(residuals, helper.grouping)
            sketch = self.sketch_for(stream.size)
            corrected = self._decode_or_fail(
                lambda: sketch.recover(stream, helper.sketch))
            key = pack_key(corrected, helper.grouping.sizes)
        except ValueError as exc:
            # Malformed helper data (wrong payload length, invalid
            # Kendall word after mis-correction, out-of-range group
            # members).
            raise ReconstructionFailure(str(exc)) from exc
        return self._finish(key, helper.key_check)

    def _readout_check(self, array: ROArray,
                       helper: GroupBasedKeyHelper
                       ) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        """Hook for device-side checks on the batch path (none here).

        Called once per evaluator build.  Raising
        :class:`ReconstructionFailure` rejects the helper for every
        query; a returned callable maps each ``(B, n)`` residual batch
        to the ``(B,)`` mask of readouts that pass the per-readout
        checks, so its rows fail exactly where the scalar path would.
        """
        return None

    def batch_evaluator(self, array: ROArray,
                        helper: GroupBasedKeyHelper,
                        op: OperatingPoint = OperatingPoint()):
        """Vectorized evaluator: one decode per distinct pattern."""
        grouping = helper.grouping
        try:
            _check_members(grouping, array.n)
            bits = sum(kendall_bit_count(len(g))
                       for g in grouping.groups)
            if any(len(g) == 0 for g in grouping.groups):
                raise ValueError("empty group in helper data")
            sketch = self.sketch_for(bits) if bits else None
            check = self._readout_check(array, helper)
        except (ValueError, ReconstructionFailure):
            return ConstantEvaluator(False)
        if sketch is None:
            # A stream of zero bits cannot be provisioned; the scalar
            # path fails on sketch construction for every query.
            return ConstantEvaluator(False)
        x, y = array.x, array.y
        distiller = self._distiller
        distiller_helper = helper.distiller

        def extract(freqs: np.ndarray, env):
            residuals = distiller.residuals_batch(x, y, freqs,
                                                  distiller_helper)
            valid = None if check is None else check(residuals)
            return kendall_stream_batch(residuals, grouping), valid

        completion = SketchCompletion(
            sketch, helper.sketch, helper.key_check,
            assemble=_PackKeyAssembler(tuple(grouping.sizes)))
        return ResponseBitEvaluator(extract, completion)
