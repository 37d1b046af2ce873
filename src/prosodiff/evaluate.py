"""Distribution metrics: JS divergence, coefficient of variation,
prosody descriptors and token-cluster separation.

JS divergences compare pooled phoneme-wise values per channel against a
held-out reference, over 50 uniform bins spanning the reference range
(lightly smoothed so empty bins never produce infinite KL terms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CHANNEL_NAMES, Utterance

HISTOGRAM_BINS = 50
SMOOTHING_MASS = 1e-9


@dataclass(frozen=True)
class Histogram:
    bin_edges: np.ndarray  # [B+1], strictly increasing
    masses: np.ndarray  # [B], nonnegative, sums to 1

    def __post_init__(self):
        if np.any(np.diff(self.bin_edges) <= 0):
            raise ValueError("bin edges must be strictly increasing")
        if np.any(self.masses < 0) or abs(self.masses.sum() - 1.0) > 1e-9:
            raise ValueError("masses must be a distribution")


def uniform_edges(reference_values: np.ndarray, bins: int = HISTOGRAM_BINS) -> np.ndarray:
    lo, hi = float(np.min(reference_values)), float(np.max(reference_values))
    if not hi > lo:
        raise ValueError("reference values span a single point; cannot bin")
    return np.linspace(lo, hi, bins + 1)


def build_histogram(values: np.ndarray, edges: np.ndarray, smoothing: float = SMOOTHING_MASS) -> Histogram:
    """Histogram of ``values`` over ``edges``; out-of-range values land in the end bins."""
    values = np.clip(np.asarray(values, dtype=np.float64), edges[0], edges[-1])
    counts, _ = np.histogram(values, bins=edges)
    masses = counts.astype(np.float64) + smoothing
    return Histogram(bin_edges=edges, masses=masses / masses.sum())


def js_divergence(p: Histogram, q: Histogram) -> float:
    """Jensen-Shannon divergence in nats; symmetric and bounded by ln 2."""
    if not np.array_equal(p.bin_edges, q.bin_edges):
        raise ValueError("histograms use different bin edges")
    pm, qm = p.masses, q.masses
    m = 0.5 * (pm + qm)

    def kl(a, b):
        mask = a > 0
        return float(np.sum(a[mask] * np.log(a[mask] / b[mask])))

    return 0.5 * kl(pm, m) + 0.5 * kl(qm, m)


def coefficient_of_variation(values: np.ndarray) -> float:
    """100 * std / |mean| (population std)."""
    values = np.asarray(values, dtype=np.float64)
    mean = values.mean()
    if mean == 0.0:
        raise ValueError("coefficient of variation undefined for zero mean")
    return 100.0 * values.std() / abs(mean)


def _channel_stats(values: np.ndarray) -> list[float]:
    mean = values.mean()
    std = values.std()
    if std < 1e-12:
        raise ValueError("zero standard deviation; skewness/kurtosis undefined")
    centered = values - mean
    skew = float(np.mean(centered**3) / std**3)
    kurt = float(np.mean(centered**4) / std**4)  # plain (non-excess) kurtosis
    return [float(mean), float(std), float(np.median(values)), float(values.min()), float(values.max()), skew, kurt]


def descriptor(prosody: np.ndarray) -> np.ndarray:
    """21-dim summary: seven statistics per channel, channels in corpus order."""
    prosody = np.asarray(prosody, dtype=np.float64)
    if prosody.ndim != 2 or prosody.shape[0] != 3:
        raise ValueError(f"expected [3, L] prosody, got {prosody.shape}")
    if prosody.shape[1] < 2:
        raise ValueError("need at least 2 phonemes for distribution statistics")
    return np.array([s for ch in range(3) for s in _channel_stats(prosody[ch])])


def cluster_separation(descriptors: np.ndarray, labels: np.ndarray) -> float:
    """Leave-one-out nearest-centroid accuracy on standardized descriptors."""
    descriptors = np.asarray(descriptors, dtype=np.float64)
    labels = np.asarray(labels)
    unique = np.unique(labels)
    if len(unique) < 2:
        raise ValueError("need at least 2 labels")
    for lbl in unique:
        if np.sum(labels == lbl) < 2:
            raise ValueError(f"label {lbl} has fewer than 2 samples")
    std = descriptors.std(axis=0)
    z = (descriptors - descriptors.mean(axis=0)) / np.where(std > 1e-12, std, 1.0)

    sums = {lbl: z[labels == lbl].sum(axis=0) for lbl in unique}
    counts = {lbl: int(np.sum(labels == lbl)) for lbl in unique}
    correct = 0
    for i in range(len(z)):
        best, best_dist = None, np.inf
        for lbl in unique:
            if lbl == labels[i]:
                centroid = (sums[lbl] - z[i]) / (counts[lbl] - 1)
            else:
                centroid = sums[lbl] / counts[lbl]
            dist = float(np.sum((z[i] - centroid) ** 2))
            if dist < best_dist:
                best, best_dist = lbl, dist
        correct += best == labels[i]
    return correct / len(z)


# pooled-corpus helpers ------------------------------------------------------


def pooled_channels(sequences: list[np.ndarray]) -> np.ndarray:
    """Concatenate [3, L_i] sequences into one [3, sum L_i] matrix."""
    return np.concatenate(list(sequences), axis=1)


def linear_channels(prosody: np.ndarray) -> np.ndarray:
    """Map (log-pitch, energy, log-duration) to natural positive scales
    (Hz, energy, seconds) for variation measures."""
    return np.stack([np.exp(prosody[0]), prosody[1], np.exp(prosody[2])])


def js_report(generated: list[np.ndarray], reference: list[Utterance]) -> dict[str, float]:
    """Per-channel JS divergence of generated vs held-out prosody (natural units)."""
    ref_pool = pooled_channels([u.prosody for u in reference])
    gen_pool = pooled_channels(generated)
    report = {}
    for ch, name in enumerate(CHANNEL_NAMES):
        edges = uniform_edges(ref_pool[ch])
        report[name] = js_divergence(build_histogram(gen_pool[ch], edges), build_histogram(ref_pool[ch], edges))
    return report


def mean_cv(sequences: list[np.ndarray]) -> np.ndarray:
    """Per-channel coefficient of variation on linear scales, averaged over utterances."""
    cvs = np.array([[coefficient_of_variation(ch) for ch in linear_channels(seq)] for seq in sequences])
    return cvs.mean(axis=0)
