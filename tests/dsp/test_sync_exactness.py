"""Exactness of the memoised sync search and its RSSI gate.

The sequential receiver computes each capture's correlation, threshold
crossings and RSSI gate once and reuses them across re-armed searches,
and selects the gate's 90th percentile with ``np.partition`` instead of
``np.percentile``.  Decisions must not move: the percentile replica is
bit-identical to NumPy, every re-armed search equals a fresh one, and
both equal the unmemoised mask-and-percentile search kept below as the
oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.dsp.gfsk import (
    FskDemodulator,
    GfskConfig,
    SyncStatics,
    _correlate_valid,
    _sync_template,
    percentile90,
)
from repro.dsp.msk import chips_to_transitions
from repro.dsp.oqpsk import OqpskDemodulator, OqpskModulator
from repro.dsp.signal import IQSignal
from repro.phy.ieee802154 import PN_SEQUENCES, Ppdu

SYNC_CHIPS = np.concatenate([PN_SEQUENCES[0], PN_SEQUENCES[0]])
SYNC_START = 32


def _bits(value) -> bytes:
    return np.asarray(value).tobytes()


def _values(dtype):
    """Finite floats (signed zeros included), ties from a small pool."""
    width = 32 if dtype == np.float32 else 64
    finite = st.floats(min_value=-1e6, max_value=1e6, width=width)
    pool = st.sampled_from([0.0, -0.0, 1.0, 2.5, 0.125])
    return st.one_of(finite, pool)


def _arrays(dtype, shape):
    return hnp.arrays(dtype, shape, elements=_values(dtype))


class TestPercentile90:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bit_identical_1d(self, dtype, data):
        n = data.draw(st.integers(1, 5000), label="n")
        values = data.draw(_arrays(dtype, n), label="values")
        ours = percentile90(values)
        ref = np.percentile(values, 90)
        assert ours.dtype == ref.dtype
        assert _bits(ours) == _bits(ref)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bit_identical_rowwise(self, dtype, data):
        rows = data.draw(st.integers(1, 6), label="rows")
        n = data.draw(st.integers(1, 700), label="n")
        values = data.draw(_arrays(dtype, (rows, n)), label="values")
        ours = percentile90(values)
        ref = np.percentile(values, 90, axis=-1)
        assert ours.dtype == ref.dtype and ours.shape == ref.shape
        assert _bits(ours) == _bits(ref)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 2, 10, 11, 101, 4999, 5000])
    def test_constant_and_zero_arrays(self, dtype, n):
        for fill in (0.0, 3.25, -7.0):
            values = np.full(n, fill, dtype=dtype)
            assert _bits(percentile90(values)) == _bits(np.percentile(values, 90))
        stacked = np.zeros((3, n), dtype=dtype)
        assert _bits(percentile90(stacked)) == _bits(
            np.percentile(stacked, 90, axis=-1)
        )

    def test_nan_propagates_like_numpy(self):
        values = np.arange(20.0)
        values[3] = np.nan
        assert np.isnan(percentile90(values))
        rows = np.stack([np.arange(20.0), values])
        ours = percentile90(rows)
        ref = np.percentile(rows, 90, axis=-1)
        assert ours[0] == ref[0] and np.isnan(ours[1]) and np.isnan(ref[1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile90(np.zeros(0))


def _reference_find_sync(dem, disc, sync_bits, threshold, power, search_start):
    """The unmemoised search: full mask, ``np.percentile`` RSSI gate."""
    sps = dem.config.samples_per_symbol
    template = np.repeat(np.asarray(sync_bits, dtype=np.float64) * 2.0 - 1.0, sps)
    if disc.size < template.size:
        return None
    centered = template - template.mean()
    corr = _correlate_valid(disc, centered) / float(np.dot(centered, centered))
    valid = corr >= threshold
    valid[: min(search_start, valid.size)] = False
    if not valid.any():
        return None
    if power is not None and power.size >= disc.size:
        window = template.size
        cumulative = np.concatenate([[0.0], np.cumsum(power[: disc.size])])
        windowed = ((cumulative[window:] - cumulative[:-window]) / window)[
            : corr.size
        ]
        valid &= windowed >= 0.25 * float(np.percentile(windowed, 90))
    above = np.nonzero(valid)[0]
    if above.size == 0:
        return None
    first = int(above[0])
    best = first + int(np.argmax(corr[first : min(first + 2 * sps, corr.size)]))
    dc = float(disc[best : best + template.size].mean() - template.mean())
    return best, float(corr[best]), dc * dem.frequency_deviation


def _capture(weak_gain, strong_gain, spc=2, seed=0, gap_chips=200, burst=0.0):
    """A weak 802.15.4 frame, a gap, then a strong one, plus noise.

    With the weak frame first, its preamble is the first sync candidate
    and sits below a quarter of the capture's peak power, so the search
    must fall back to the exact percentile gate.  *burst* appends a short
    carrier of that amplitude: it raises the peak power but not the 90th
    percentile, so a weak first candidate can pass the fallback gate.
    """
    rng = np.random.default_rng(seed)
    mod = OqpskModulator(samples_per_chip=spc)
    psdu = bytes(rng.integers(0, 256, 20, dtype=np.uint8)) + bytes(2)
    frame = mod.modulate(Ppdu(psdu).to_chips()).samples
    lead = np.zeros(64 * spc, dtype=complex)
    gap = np.zeros(gap_chips * spc, dtype=complex)
    samples = np.concatenate(
        [lead, weak_gain * frame, gap, strong_gain * frame,
         np.full(75 * spc, burst, dtype=complex), lead]
    )
    samples = samples + 0.02 * (
        rng.standard_normal(samples.size) + 1j * rng.standard_normal(samples.size)
    )
    return IQSignal(samples, mod.sample_rate)


class TestReArmedSearch:
    """Every re-arm over one capture equals a fresh search from that start."""

    @pytest.mark.parametrize(
        "weak,strong,burst",
        [(1.0, 1.0, 0.0), (0.3, 1.0, 0.0), (0.08, 1.0, 0.0), (1.0, 0.2, 0.0),
         (0.6, 0.0, 1.5)],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rearm_matches_fresh_and_reference(self, weak, strong, burst, seed):
        dem = OqpskDemodulator(samples_per_chip=2)
        fsk = dem._fsk
        sig = _capture(weak, strong, seed=seed, burst=burst)
        disc, power, statics = dem.front_end(sig)
        template = chips_to_transitions(SYNC_CHIPS, start_index=SYNC_START)
        power_arr = power()
        starts = [0]
        for _ in range(12):
            shared = fsk.find_sync(
                disc, template, power=power, search_start=starts[-1],
                statics=statics,
            )
            fresh = fsk.find_sync(
                disc, template, power=power_arr, search_start=starts[-1]
            )
            ref = _reference_find_sync(
                fsk, disc, template, 0.45, power_arr, starts[-1]
            )
            assert shared == fresh
            if ref is None:
                assert shared is None
                break
            assert (shared.start, shared.score, shared.dc_offset) == ref
            # Re-arm one symbol past the lock, as the radio does.
            starts.append(shared.start + 32 * 2)
        assert len(starts) > 1

    @pytest.mark.parametrize(
        "weak,strong,burst,passes",
        [(0.08, 1.0, 0.0, False), (0.6, 0.0, 1.5, True)],
    )
    def test_weak_first_candidate_takes_percentile_gate(
        self, weak, strong, burst, passes
    ):
        """The fallback gate is selected, both ways, and agrees with the oracle."""
        dem = OqpskDemodulator(samples_per_chip=2)
        sig = _capture(weak, strong, burst=burst)
        disc, power, statics = dem.front_end(sig)
        template = chips_to_transitions(SYNC_CHIPS, start_index=SYNC_START)
        first_candidate = int(
            statics.search(_sync_template(template.tobytes(), 2), 0.45, None)[1][0]
        )
        lock = dem._fsk.find_sync(disc, template, power=power, statics=statics)
        ref = _reference_find_sync(dem._fsk, disc, template, 0.45, power(), 0)
        (entry,) = statics._rssi.values()
        assert entry[2] is not None  # the percentile gate was selected
        assert lock is not None and (lock.start, lock.score, lock.dc_offset) == ref
        assert (lock.start - first_candidate < 4) == passes

    def test_receive_chips_rearm_sequence_unchanged(self):
        """Shared-front-end re-arms decode exactly like fresh calls."""
        dem = OqpskDemodulator(samples_per_chip=2)
        sig = _capture(0.3, 1.0, seed=5)
        front = dem.front_end(sig)
        start = 0
        for _ in range(4):
            shared = dem.receive_chips(
                sig, SYNC_CHIPS, SYNC_START, 4000, search_start=start,
                front_end=front,
            )
            fresh = dem.receive_chips(
                sig, SYNC_CHIPS, SYNC_START, 4000, search_start=start
            )
            if fresh is None:
                assert shared is None
                break
            assert np.array_equal(shared[0], fresh[0])
            assert shared[1] == fresh[1]
            start = shared[1].sync.start + 64

    def test_statics_bound_to_their_capture(self):
        dem = OqpskDemodulator(samples_per_chip=2)
        disc, power, statics = dem.front_end(_capture(1.0, 1.0))
        template = chips_to_transitions(SYNC_CHIPS, start_index=SYNC_START)
        with pytest.raises(ValueError):
            dem._fsk.find_sync(disc.copy(), template, statics=statics)


class TestCorrelatorValidation:
    @pytest.mark.parametrize("bad", ["FFT", "Direct", "", "auto", 1])
    def test_unknown_correlator_rejected(self, bad):
        haystack = np.random.default_rng(0).standard_normal(300)
        with pytest.raises(ValueError):
            _correlate_valid(haystack, haystack[:32], force=bad)
        dem = FskDemodulator(GfskConfig(8, 0.5, None), 2e6)
        with pytest.raises(ValueError):
            dem.find_sync(haystack, [0, 1] * 8, correlator=bad)

    @pytest.mark.parametrize("good", [None, "direct", "fft"])
    def test_known_correlators_accepted(self, good):
        haystack = np.random.default_rng(0).standard_normal(300)
        assert _correlate_valid(haystack, haystack[:32], force=good).size == 269
        statics = SyncStatics(haystack)
        dem = FskDemodulator(GfskConfig(8, 0.5, None), 2e6)
        dem.find_sync(haystack, [0, 1] * 8, correlator=good, statics=statics)
