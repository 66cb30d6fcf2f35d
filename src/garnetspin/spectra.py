"""Synthetic hole-burning and RF-resonance spectra plus peak extraction.

Burning at a fixed laser frequency redistributes population between the
two spin states of both levels, so the transmission change shows a main
hole at zero offset, side holes at +-De, and anti-holes at +-Dg and
+-(Dg +- De) for every symmetry class, where Dg and De are the ground
and excited doublet splittings.  RF scans show a resonance at each
class's ground splitting.  These generators are the oracles used to
exercise the tensor-fitting code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import project_onto_site, site_frame, symmetry_classes
from .hamiltonian import EffectiveGTensor, hyperfine_splitting

MAIN_HOLE_AMPLITUDE = -1.0
SIDE_HOLE_AMPLITUDE = -0.25
ANTI_HOLE_AMPLITUDE = 0.25


@dataclass(frozen=True)
class Feature:
    """One spectral feature: offset from the burn frequency and weight."""

    offset: float
    amplitude: float
    label: str
    sites: tuple[int, ...]


@dataclass(frozen=True)
class SpectrumTrace:
    """Uniformly sampled spectrum; offsets MHz, amplitude dimensionless."""

    offsets: np.ndarray
    amplitude: np.ndarray
    kind: str
    undersampled: bool = False

    def __post_init__(self):
        steps = np.diff(self.offsets)
        # sub-Hz slack tolerates rounding in exported text traces
        if len(steps) and not np.allclose(steps, steps[0], rtol=1e-6, atol=1e-6):
            raise ValueError("offset grid must be uniform")


def predict_hole_offsets(
    ground: EffectiveGTensor,
    excited: EffectiveGTensor,
    b: np.ndarray,
    convention: str = "si-table",
    merge_tol: float = 1e-6,
) -> list[Feature]:
    """All hole and anti-hole offsets for a lab field, merged across classes.

    Amplitudes follow the convention main -1, side -1/4, anti +1/4,
    scaled by the number of sites in each symmetry class; coinciding
    offsets (within ``merge_tol`` MHz) are summed into one feature.
    """
    b = np.asarray(b, dtype=float)
    if np.linalg.norm(b) == 0:
        return [Feature(0.0, 6 * MAIN_HOLE_AMPLITUDE, "main", (1, 2, 3, 4, 5, 6))]
    features: list[Feature] = []
    for members in symmetry_classes(b):
        local = project_onto_site(b, site_frame(members[0]), convention)
        dg = hyperfine_splitting(ground, local)
        de = hyperfine_splitting(excited, local)
        mult = len(members)
        raw = [
            (0.0, mult * MAIN_HOLE_AMPLITUDE, "main"),
            (+de, mult * SIDE_HOLE_AMPLITUDE, "side"),
            (-de, mult * SIDE_HOLE_AMPLITUDE, "side"),
            (+dg, mult * ANTI_HOLE_AMPLITUDE, "anti"),
            (-dg, mult * ANTI_HOLE_AMPLITUDE, "anti"),
            (+(dg - de), mult * ANTI_HOLE_AMPLITUDE, "anti"),
            (-(dg - de), mult * ANTI_HOLE_AMPLITUDE, "anti"),
            (+(dg + de), mult * ANTI_HOLE_AMPLITUDE, "anti"),
            (-(dg + de), mult * ANTI_HOLE_AMPLITUDE, "anti"),
        ]
        for off, amp, label in raw:
            features.append(Feature(off, amp, label, tuple(members)))
    merged: list[Feature] = []
    for f in sorted(features, key=lambda f: f.offset):
        if merged and abs(f.offset - merged[-1].offset) <= merge_tol:
            prev = merged[-1]
            merged[-1] = Feature(
                prev.offset,
                prev.amplitude + f.amplitude,
                prev.label if prev.label == f.label else "merged",
                tuple(sorted(set(prev.sites) | set(f.sites))),
            )
        else:
            merged.append(f)
    return merged


def _lorentzian(x: np.ndarray, center: float, fwhm: float) -> np.ndarray:
    hw = fwhm / 2.0
    return hw * hw / ((x - center) ** 2 + hw * hw)


def synth_shb(
    features,
    offset_min: float,
    offset_max: float,
    step: float,
    linewidth: float,
    noise_level: float = 0.0,
    seed: int | None = None,
) -> SpectrumTrace:
    """Render features as Lorentzians on a uniform grid, optional noise."""
    if linewidth <= 0:
        raise ValueError("linewidth must be positive")
    if step <= 0:
        raise ValueError("grid step must be positive")
    n = int(round((offset_max - offset_min) / step)) + 1
    offsets = offset_min + step * np.arange(n)
    amplitude = np.zeros(n)
    for f in features:
        amplitude += f.amplitude * _lorentzian(offsets, f.offset, linewidth)
    if noise_level > 0:
        rng = np.random.default_rng(seed)
        amplitude = amplitude + rng.normal(0.0, noise_level, n)
    return SpectrumTrace(offsets, amplitude, "shb", undersampled=step > linewidth / 2.0)


def synth_odnmr(
    ground: EffectiveGTensor,
    b: np.ndarray,
    convention: str = "si-table",
    rf_linewidth: float = 0.1,
    scan_min: float = 0.1,
    scan_max: float = 4.0,
    step: float = 0.02,
    noise_level: float = 0.0,
    seed: int | None = None,
) -> SpectrumTrace:
    """Hole-depth change versus RF frequency: a bump at each class's Dg."""
    if scan_max <= scan_min:
        raise ValueError("scan range must be positive")
    b = np.asarray(b, dtype=float)
    n = int(round((scan_max - scan_min) / step)) + 1
    offsets = scan_min + step * np.arange(n)
    amplitude = np.zeros(n)
    if np.linalg.norm(b) > 0:
        for members in symmetry_classes(b):
            local = project_onto_site(b, site_frame(members[0]), convention)
            dg = hyperfine_splitting(ground, local)
            amplitude += len(members) * _lorentzian(offsets, dg, rf_linewidth)
    if noise_level > 0:
        rng = np.random.default_rng(seed)
        amplitude = amplitude + rng.normal(0.0, noise_level, n)
    return SpectrumTrace(offsets, amplitude, "odnmr")


def _flank_minima(values) -> list[float]:
    """Per sample, the minimum back to the last strictly higher sample.

    The minimum includes the sample itself and runs to the trace edge
    when no earlier sample is higher.  One pass over a stack of
    ``(value, minimum since the entry below)`` whose values strictly
    decrease from the bottom, so the cost is linear in ``len(values)``.
    """
    minima = []
    stack: list[tuple[float, float]] = []
    for v in values:
        low = v
        while stack and stack[-1][0] <= v:
            low = min(low, stack.pop()[1])
        stack.append((v, low))
        minima.append(low)
    return minima


def find_peaks(
    trace: SpectrumTrace, window: int = 5, prominence: float = 0.1
) -> list[tuple[float, float]]:
    """Smooth, detect local maxima above a prominence floor, refine.

    The trace is moving-average smoothed over ``window`` samples (odd),
    strict local maxima are kept when they rise at least ``prominence``
    above the higher of the two flanking minima, and each peak position
    is refined by a 3-point parabola.  Peaks return sorted by offset.
    A flanking minimum is the lowest sample between the peak and the
    nearest strictly higher sample on that side (or the trace edge), the
    definition of SciPy's ``peak_prominences``; the cost is linear in
    the trace length.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be odd and >= 1")
    y = np.asarray(trace.amplitude, dtype=float)
    if y.size == 0:
        return []
    if window > 1:
        kernel = np.ones(window) / window
        pad = window // 2
        padded = np.pad(y, pad, mode="edge")
        y = np.convolve(padded, kernel, mode="valid")
    n = y.size
    y = y.tolist()
    left_min = _flank_minima(y)
    right_min = _flank_minima(y[::-1])[::-1]
    step = trace.offsets[1] - trace.offsets[0] if n > 1 else 0.0
    peaks = []
    for i in range(1, n - 1):
        if not (y[i] > y[i - 1] and y[i] >= y[i + 1]):
            continue
        if y[i] - max(left_min[i], right_min[i]) < prominence:
            continue
        denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
        frac = 0.0 if denom == 0 else 0.5 * (y[i - 1] - y[i + 1]) / denom
        frac = min(max(frac, -0.5), 0.5)
        peaks.append((float(trace.offsets[i] + frac * step), y[i]))
    return sorted(peaks, key=lambda p: p[0])


def find_dips(trace: SpectrumTrace, window: int = 5, prominence: float = 0.1):
    """Negative-going counterpart of :func:`find_peaks` (holes)."""
    flipped = SpectrumTrace(trace.offsets, -np.asarray(trace.amplitude), trace.kind)
    return [(off, -amp) for off, amp in find_peaks(flipped, window, prominence)]
