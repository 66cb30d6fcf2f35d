import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garnetspin.cli import main
from garnetspin.geometry import symmetry_classes
from garnetspin.hamiltonian import EffectiveGTensor, default_models, hyperfine_splitting
from garnetspin.geometry import LocalField, project_onto_site, site_frame
from garnetspin.spectra import (
    Feature,
    SpectrumTrace,
    _flank_minima,
    find_dips,
    find_peaks,
    predict_hole_offsets,
    synth_odnmr,
    synth_shb,
)

GROUND = EffectiveGTensor(27.0, 146.0, 36.0)
EXCITED = EffectiveGTensor(7.0, 92.0, 16.0)
B111 = 0.09 * np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)


class TestPredictHoleOffsets:
    def test_zero_field_single_feature(self):
        features = predict_hole_offsets(GROUND, EXCITED, np.zeros(3))
        assert len(features) == 1
        assert features[0].offset == 0.0
        assert features[0].amplitude < 0

    def test_111_equal_projection_offsets(self):
        features = predict_hole_offsets(GROUND, EXCITED, B111, "equal-projection")
        offsets = {round(f.offset, 3) for f in features}
        dg, de = 9.570, 5.943
        for expect in (0.0, dg, -dg, de, -de, dg - de, dg + de):
            assert any(abs(o - expect) < 2e-3 for o in offsets), expect

    def test_class_count_matches_symmetry(self):
        rng = np.random.default_rng(1)
        b = 0.05 * rng.normal(size=3)
        features = predict_hole_offsets(GROUND, EXCITED, b)
        class_sets = {f.sites for f in features if f.label != "main"}
        assert len({s for f in features for s in f.sites}) == 6
        assert len(class_sets) <= len(symmetry_classes(b))

    def test_generic_orientation_feature_budget(self):
        rng = np.random.default_rng(3)
        b = 0.05 * rng.normal(size=3)
        features = predict_hole_offsets(GROUND, EXCITED, b)
        non_main = [f for f in features if abs(f.offset) > 1e-9]
        assert len(non_main) <= 48

    def test_symmetric_under_negation(self):
        rng = np.random.default_rng(4)
        b = 0.05 * rng.normal(size=3)
        features = predict_hole_offsets(GROUND, EXCITED, b)
        offsets = sorted(round(f.offset, 9) for f in features)
        assert offsets == sorted(-o for o in offsets)


class TestSynthShb:
    def test_single_feature_peak_position(self):
        f = [Feature(3.0, 1.0, "anti", (1,))]
        trace = synth_shb(f, -10.0, 10.0, 0.05, 0.5)
        idx = np.argmax(trace.amplitude)
        assert abs(trace.offsets[idx] - 3.0) <= 0.05

    def test_close_features_merge(self):
        f = [Feature(0.0, 1.0, "anti", (1,)), Feature(0.1, 1.0, "anti", (1,))]
        trace = synth_shb(f, -5.0, 5.0, 0.02, 0.5)
        assert len(find_peaks(trace, window=1, prominence=0.2)) == 1

    def test_deterministic_for_seed(self):
        f = [Feature(0.0, 1.0, "anti", (1,))]
        a = synth_shb(f, -5.0, 5.0, 0.05, 0.5, noise_level=0.1, seed=42)
        b = synth_shb(f, -5.0, 5.0, 0.05, 0.5, noise_level=0.1, seed=42)
        assert np.array_equal(a.amplitude, b.amplitude)

    def test_coarse_grid_flagged(self):
        f = [Feature(0.0, 1.0, "anti", (1,))]
        assert synth_shb(f, -5.0, 5.0, 0.4, 0.5).undersampled
        assert not synth_shb(f, -5.0, 5.0, 0.05, 0.5).undersampled

    def test_bad_linewidth(self):
        with pytest.raises(ValueError):
            synth_shb([], -1.0, 1.0, 0.01, 0.0)


class TestSynthOdnmr:
    def test_zero_field_flat(self):
        trace = synth_odnmr(GROUND, np.zeros(3))
        assert np.allclose(trace.amplitude, 0.0)

    def test_resonances_at_class_splittings(self):
        rng = np.random.default_rng(5)
        b = 0.03 * rng.normal(size=3)
        b /= np.linalg.norm(b) / 0.03
        trace = synth_odnmr(GROUND, b, scan_max=6.0)
        peaks = find_peaks(trace, window=1, prominence=0.3)
        expected = sorted(
            hyperfine_splitting(GROUND, project_onto_site(b, site_frame(c[0])))
            for c in symmetry_classes(b)
        )
        assert len(peaks) <= 6
        for e in expected:
            assert any(abs(p[0] - e) < 0.05 for p in peaks)

    def test_exact_linearity_in_field(self):
        rng = np.random.default_rng(6)
        b = 0.02 * rng.normal(size=3)
        for c in symmetry_classes(b):
            local1 = project_onto_site(b, site_frame(c[0]))
            local2 = project_onto_site(2.0 * b, site_frame(c[0]))
            d1 = hyperfine_splitting(GROUND, local1)
            d2 = hyperfine_splitting(GROUND, local2)
            assert abs(d2 - 2.0 * d1) <= 1e-9 * d2


class TestFindPeaks:
    def test_single_lorentzian_snr20(self):
        f = [Feature(1.25, 1.0, "anti", (1,))]
        trace = synth_shb(f, -5.0, 5.0, 0.02, 0.5, noise_level=0.05, seed=0)
        peaks = find_peaks(trace, window=5, prominence=0.3)
        assert len(peaks) >= 1
        best = min(peaks, key=lambda p: abs(p[0] - 1.25))
        assert abs(best[0] - 1.25) < 0.05

    def test_pure_noise_rarely_peaks(self):
        sigma = 0.05
        false_alarm = 0
        for seed in range(100):
            trace = synth_shb([], -5.0, 5.0, 0.02, 0.5, noise_level=sigma, seed=seed)
            if find_peaks(trace, window=5, prominence=5.0 * sigma):
                false_alarm += 1
        assert false_alarm <= 1

    def test_two_resolved_peaks(self):
        f = [Feature(-1.0, 1.0, "anti", (1,)), Feature(0.5, 1.0, "anti", (1,))]
        trace = synth_shb(f, -5.0, 5.0, 0.02, 0.5)
        peaks = find_peaks(trace, window=1, prominence=0.3)
        assert len(peaks) == 2

    def test_empty_trace(self):
        trace = SpectrumTrace(np.array([]), np.array([]), "shb")
        assert find_peaks(trace) == []

    def test_even_window_rejected(self):
        trace = SpectrumTrace(np.arange(5.0), np.zeros(5), "shb")
        with pytest.raises(ValueError):
            find_peaks(trace, window=4)

    def test_round_trip_all_features(self):
        # a <001> field leaves two symmetry classes whose features are
        # all separated by at least two linewidths, so every offset is
        # individually recoverable
        g, e = default_models()
        b = np.array([0.0, 0.0, 0.09])
        features = predict_hole_offsets(g.g, e.g, b)
        lw = 0.15
        span = max(abs(f.offset) for f in features) + 2.0
        trace = synth_shb(features, -span, span, 0.03, lw, noise_level=0.05, seed=1)
        found_pos = find_peaks(trace, window=3, prominence=0.15)
        found_neg = find_dips(trace, window=3, prominence=0.15)
        found = [p[0] for p in found_pos] + [p[0] for p in found_neg]
        for f in features:
            assert any(abs(f.offset - x) <= lw / 5.0 for x in found), f


def walk_find_peaks(trace, window, prominence):
    """Reference: each maximum walks out to a higher sample on both sides."""
    y = np.asarray(trace.amplitude, dtype=float)
    if y.size == 0:
        return []
    if window > 1:
        kernel = np.ones(window) / window
        pad = window // 2
        padded = np.pad(y, pad, mode="edge")
        y = np.convolve(padded, kernel, mode="valid")
    peaks = []
    n = y.size
    for i in range(1, n - 1):
        if not (y[i] > y[i - 1] and y[i] >= y[i + 1]):
            continue
        left_min = y[i]
        j = i - 1
        while j >= 0 and y[j] <= y[i]:
            left_min = min(left_min, y[j])
            j -= 1
        right_min = y[i]
        j = i + 1
        while j < n and y[j] <= y[i]:
            right_min = min(right_min, y[j])
            j += 1
        if y[i] - max(left_min, right_min) < prominence:
            continue
        denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
        frac = 0.0 if denom == 0 else 0.5 * (y[i - 1] - y[i + 1]) / denom
        frac = float(np.clip(frac, -0.5, 0.5))
        step = trace.offsets[1] - trace.offsets[0] if n > 1 else 0.0
        peaks.append((float(trace.offsets[i] + frac * step), float(y[i])))
    return sorted(peaks, key=lambda p: p[0])


# integer-valued samples make ties and plateaus common
SAMPLES = st.one_of(
    st.lists(st.integers(0, 3).map(float), max_size=40),
    st.lists(st.floats(-10.0, 10.0, allow_nan=False), max_size=40),
)


def ripple_on_ramp(n):
    i = np.arange(n)
    return SpectrumTrace(0.02 * i, 0.001 * i + 0.01 * np.sin(2.0 * i), "shb")


class TestLinearProminence:
    @settings(max_examples=300, deadline=None)
    @given(
        SAMPLES,
        st.sampled_from([1, 3, 5]),
        st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    )
    def test_equals_walk_reference(self, samples, window, prominence):
        trace = SpectrumTrace(0.1 * np.arange(len(samples)), np.array(samples), "shb")
        assert find_peaks(trace, window, prominence) == walk_find_peaks(
            trace, window, prominence
        )
        flipped = SpectrumTrace(trace.offsets, -trace.amplitude, "shb")
        assert find_dips(trace, window, prominence) == [
            (off, -amp) for off, amp in walk_find_peaks(flipped, window, prominence)
        ]

    @pytest.mark.filterwarnings("ignore:some peaks have a prominence of 0")
    @settings(max_examples=200, deadline=None)
    @given(SAMPLES)
    def test_prominence_matches_scipy(self, samples):
        signal = pytest.importorskip("scipy.signal")
        y = np.array(samples)
        maxima = [
            i for i in range(1, y.size - 1) if y[i] > y[i - 1] and y[i] >= y[i + 1]
        ]
        trace = SpectrumTrace(np.arange(float(y.size)), y, "shb")
        # at zero prominence every local maximum is reported
        assert [amp for _, amp in find_peaks(trace, 1, 0.0)] == [y[i] for i in maxima]
        if not maxima:
            return
        left = _flank_minima(y.tolist())
        right = _flank_minima(y[::-1].tolist())[::-1]
        ours = [y[i] - max(left[i], right[i]) for i in maxima]
        theirs = signal.peak_prominences(y, maxima)[0]
        assert np.allclose(ours, theirs, rtol=0.0, atol=1e-12)

    def test_100k_ramp_under_one_second(self):
        trace = ripple_on_ramp(100_000)
        start = time.perf_counter()
        peaks = find_peaks(trace, window=1, prominence=0.01)
        elapsed = time.perf_counter() - start
        assert len(peaks) > 30_000
        assert elapsed < 1.0

    def test_cli_stdout_matches_reference(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        argv = ["--seed", "3", "synth", "--b-mag", "0.09", "--axis", "0.3,0.5,0.8"]
        assert main([*argv, "--noise", "0.003", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["find-peaks", "--data", str(path)]) == 0
        out = capsys.readouterr().out
        rows = [
            l for l in path.read_text().splitlines() if l.strip() and not l.startswith("#")
        ][1:]
        data = np.array([[float(c) for c in l.split(",")[:2]] for l in rows])
        peaks = walk_find_peaks(SpectrumTrace(data[:, 0], data[:, 1], "shb"), 5, 0.1)
        assert peaks
        assert out == "offset_MHz,amplitude\n" + "".join(
            f"{off:.6g},{amp:.6g}\n" for off, amp in peaks
        )
