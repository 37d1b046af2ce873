"""Machine-speed reference: a fixed kernel timed between operations.

The host this benchmark runs on gives it a share of a machine whose clock
drifts for spans of seconds to minutes. Dispatch-bound code, such as
``sample-requests``' one-row sampling chains, runs up to about 1.4x faster
or slower with it: the same request took 0.56 s in one run and 0.76 s in
the next. Timing a fixed piece of dispatch-bound work next to each such
operation measures the drift, and the operation's time is reported at
reference speed::

    reported = measured * REFERENCE_S / median reference kernel call nearby

The median of the short kernel calls on both sides of an operation
estimates the speed the operation ran at. The kernel is self-contained
numpy and Python, so no change to prosodiff changes it. It mimics
prosodiff's sampling mix: tapped 1-D convolutions as GEMMs at one row
(dispatch-bound) and at twelve rows, a gated activation, and a Python
loop. It allocates nothing, so its time does not depend on the heap that
operations leave behind.

``train`` and ``eval-val`` ops, which are GEMM- and allocation-heavy, do
not follow the kernel: their time moves less, and out of step with it,
so scaling them made them noisier, and they are reported as measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel call on the machine the bounds were set on (2 vCPUs, x86-64,
# OpenBLAS on one thread) in its slower state; a fixed constant, so a
# reported time equals the measured one whenever the machine runs at this speed
REFERENCE_S = 0.0032
REPEATS = 16  # kernel calls per probe, about 50 ms: 7% of a request

_CHANNELS, _LENGTH, _LAYERS, _TAPS = 64, 16, 6, 3


class _Rows:
    """Preallocated buffers for one batch size. Every array a ufunc touches
    is contiguous, so numpy needs no scratch buffer either."""

    def __init__(self, batch: int, rng: np.random.Generator):
        self.start = rng.standard_normal((batch, _CHANNELS, _LENGTH))
        self.x = np.empty_like(self.start)
        self.padded = np.zeros((batch, _CHANNELS, _LENGTH + _TAPS - 1))
        self.taps = [self.padded[:, :, k : k + _LENGTH] for k in range(_TAPS)]
        self.tap_in = np.empty_like(self.start)
        self.filt, self.gate, self.tmp = (np.empty_like(self.start) for _ in range(3))


_RNG = np.random.default_rng(12345)
# per layer and tap: (filter weight, gate weight), each [C, C]
_WEIGHTS = [[(_RNG.standard_normal((_CHANNELS, _CHANNELS)) / 16.0, _RNG.standard_normal((_CHANNELS, _CHANNELS)) / 16.0)
             for _ in range(_TAPS)] for _ in range(_LAYERS)]
_BATCHES = [_Rows(batch, _RNG) for batch in (1, 12)]


def kernel() -> float:
    """One pass of the fixed workload; returns a checksum so no work is skipped."""
    total = 0.0
    for r in _BATCHES:
        np.copyto(r.x, r.start)
        for layer in _WEIGHTS:
            np.copyto(r.taps[1], r.x)  # the centre tap is the unpadded signal
            for k, (w_filt, w_gate) in enumerate(layer):
                np.copyto(r.tap_in, r.taps[k])
                if k == 0:
                    np.matmul(w_filt, r.tap_in, out=r.filt)
                    np.matmul(w_gate, r.tap_in, out=r.gate)
                else:
                    np.matmul(w_filt, r.tap_in, out=r.tmp)
                    np.add(r.filt, r.tmp, out=r.filt)
                    np.matmul(w_gate, r.tap_in, out=r.tmp)
                    np.add(r.gate, r.tmp, out=r.gate)
            np.tanh(r.filt, out=r.filt)
            np.negative(r.gate, out=r.gate)
            np.exp(r.gate, out=r.gate)
            np.add(r.gate, 1.0, out=r.gate)
            np.divide(r.filt, r.gate, out=r.filt)
            np.multiply(r.filt, 0.5, out=r.filt)
            np.add(r.x, r.filt, out=r.x)
        total += float(r.x[0, 0, 0])
    acc = 0
    for i in range(4000):
        acc += i * i % 7
    return total + acc


def probe() -> list[float]:
    """Times ``REPEATS`` kernel calls; returns their durations in seconds."""
    durations = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        kernel()
        durations.append(time.perf_counter() - started)
    return durations


def scale(durations: list[float]) -> float:
    """Factor that turns a time measured next to these probe durations into
    a time at reference speed."""
    return REFERENCE_S / statistics.median(durations)
