"""End-to-end key generator over the temperature-aware cooperative PUF.

Pipeline (paper §IV-D + generic ECC): classify neighbour pairs over the
operating range → good bits + cooperating reference bits → code-offset
sketch → helper data {pair classification & cooperation records, ECC
redundancy, key check}.  Reconstruction reads the on-chip temperature
sensor to interpret the crossover intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from repro._rng import RNGLike, ensure_rng
from repro.ecc.sketch import SketchData
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
from repro.pairing.temp_aware import TempAwareCooperative, TempAwareHelper
from repro.puf.measurement import TemperatureSensor
from repro.puf.ro_array import ROArray


@dataclass(frozen=True)
class TempAwareKeyHelper:
    """Complete public helper data of the construction."""

    scheme: TempAwareHelper
    sketch: SketchData
    key_check: bytes

    def with_scheme(self, scheme: TempAwareHelper) -> "TempAwareKeyHelper":
        """Manipulated copy with replaced cooperation records (§VI-B)."""
        return replace(self, scheme=scheme)


class TempAwareKeyGen(KeyGenerator):
    """Device model: temperature-aware cooperative pairs + ECC + check.

    The device reads its on-chip temperature sensor once per
    reconstruction attempt.  Sensor noise is drawn from a per-device
    stream seeded by *sensor_seed*, and the batched evaluator consumes
    that stream in exactly the per-query amounts the scalar path does —
    so with a seeded sensor, batched and scalar simulation of twin
    devices stay bitwise-equivalent query for query.  The default
    (``None``) keeps the historical behaviour of unpredictable fresh
    sensor noise.
    """

    def __init__(self, t_min: float, t_max: float, threshold: float,
                 code_provider: CodeProvider = None,
                 selection: str = "randomized",
                 enrollment_samples: int = 9,
                 sensor: TemperatureSensor = TemperatureSensor(),
                 sensor_seed: RNGLike = None):
        self._scheme = TempAwareCooperative(
            t_min, t_max, threshold, selection=selection,
            enrollment_samples=enrollment_samples)
        self._code_provider = code_provider or bch_provider(3)
        self._sensor = sensor
        self._sensor_rng = ensure_rng(sensor_seed)

    @property
    def scheme(self) -> TempAwareCooperative:
        """The temperature-aware cooperative pairing scheme."""
        return self._scheme

    def reseed_transient_streams(self, rng: RNGLike = None) -> None:
        """Replace the sensor noise stream (fleet sweep substreams).

        Subsequent scalar *and* batched reconstructions read the
        sensor from the new stream; the bitwise scalar/batch
        equivalence is unaffected as long as both paths share it.
        """
        self._sensor_rng = ensure_rng(rng)

    def enroll(self, array: ROArray, rng: RNGLike = None
               ) -> Tuple[TempAwareKeyHelper, np.ndarray]:
        """One-time enrollment; returns ``(helper, key_bits)``."""
        gen = ensure_rng(rng)
        scheme_helper, key = self._scheme.enroll(array, gen)
        if key.size == 0:
            raise ValueError("no usable pairs; relax the threshold")
        sketch = self.sketch_for(key.size)
        sketch_data = sketch.generate(key, gen)
        helper = TempAwareKeyHelper(scheme_helper, sketch_data,
                                    key_check_digest(key))
        return helper, key

    def reconstruct_from_frequencies(
            self, array: ROArray, freqs: np.ndarray,
            helper: TempAwareKeyHelper,
            op: OperatingPoint = OperatingPoint()) -> np.ndarray:
        """Regenerate the key from one ``(n,)`` measurement row."""
        temperature = (op.temperature if op.temperature is not None
                       else array.params.temp_nominal)
        sensed = self._sensor.read(temperature, rng=self._sensor_rng)
        try:
            bits = self._scheme.evaluate(freqs, helper.scheme, sensed)
        except ValueError as exc:
            raise ReconstructionFailure(str(exc)) from exc
        sketch = self.sketch_for(bits.size)
        recovered = self._decode_or_fail(
            lambda: sketch.recover(bits, helper.sketch))
        return self._finish(recovered, helper.key_check)

    def batch_evaluator(self, array: ROArray,
                        helper: TempAwareKeyHelper,
                        op: OperatingPoint = OperatingPoint()):
        """Vectorized success evaluator for *helper* at *op*.

        Sensor reads, interval interpretation and cooperative
        assistance are evaluated in one NumPy pass per block
        (:meth:`TempAwareCooperative.evaluate_batch`); the sketch
        recovery runs once per distinct response pattern.  Outcome
        ``i`` of a block equals what the ``i``-th sequential
        :meth:`reconstruct` call would observe, provided scalar and
        batched simulation share the sensor stream seeding.
        """
        temperature = (op.temperature if op.temperature is not None
                       else array.params.temp_nominal)
        scheme = self._scheme
        scheme_helper = helper.scheme
        sensor = self._sensor
        sensor_rng = self._sensor_rng
        bits = scheme_helper.bits
        try:
            sketch = self.sketch_for(bits)
        except ValueError:
            return ConstantEvaluator(False)

        def extract(freqs: np.ndarray, env):
            # One sensor read per query, exactly as on the scalar
            # path: a (B,) batch draw consumes the sensor stream like
            # B successive scalar reads.  Trajectory-driven blocks
            # read each row's own ambient temperature.
            sensed = sensor.read_batch(
                temperature if env is None else env.temperatures,
                freqs.shape[0], rng=sensor_rng)
            return scheme.evaluate_batch(freqs, scheme_helper, sensed)

        return ResponseBitEvaluator(
            extract, SketchCompletion(sketch, helper.sketch,
                                      helper.key_check))
