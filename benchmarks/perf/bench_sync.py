"""Sync-correlation microbenchmark (the acquisition hot path).

Times :meth:`FskDemodulator.find_sync` over a realistic frame-sized
capture with both correlator implementations pinned — the O(N·M)
time-domain ``np.correlate`` and the FFT overlap path — plus the
automatic crossover the receivers actually use.  Both implementations
must return the same lock before anything is timed.

The ``dot15d4_*`` extras time the 802.15.4 receiver's search as the
fleet runs it: 2 samples/chip, the 63-transition preamble template, the
RSSI gate live, and a four-attempt re-arm sequence per capture.  The
``shared`` rate carries one :class:`~repro.dsp.gfsk.SyncStatics` across
the four searches, as ``Dot15d4Radio`` does; the ``fresh`` rate
recomputes the correlation and gate on every attempt.  Each sequence
includes its capture's front end (discriminator), as in the receiver.
"""

from __future__ import annotations

from typing import List

import numpy as np

from benchmarks.perf.harness import BenchRecord, best_of
from repro.core.encoding import frame_to_msk_bits, wazabee_access_address_bits
from repro.dot15d4.frames import Address, build_data
from repro.dsp.gfsk import FskDemodulator, FskModulator, GfskConfig
from repro.dsp.msk import chips_to_transitions
from repro.dsp.oqpsk import OqpskDemodulator, OqpskModulator
from repro.dsp.signal import IQSignal
from repro.phy.ieee802154 import CHIPS_PER_SYMBOL, PN_SEQUENCES, Ppdu

__all__ = ["bench_sync"]

_SRC = Address(pan_id=0x1234, address=0x0063)
_DST = Address(pan_id=0x1234, address=0x0042)

_CONFIG = GfskConfig(samples_per_symbol=8, modulation_index=0.5, bt=None)
_SYMBOL_RATE = 2e6


def _capture(payload_size: int, snr_margin: float = 0.05, seed: int = 23):
    """A noisy frame capture plus the Access-Address sync template."""
    rng = np.random.default_rng(seed)
    frame = build_data(
        source=_SRC,
        destination=_DST,
        payload=bytes(rng.integers(0, 256, payload_size, dtype=np.uint8)),
        sequence_number=1,
    )
    bits = frame_to_msk_bits(frame.to_bytes())
    modulator = FskModulator(_CONFIG, _SYMBOL_RATE, use_cache=False)
    clean = modulator.modulate_direct(bits).samples
    noise = snr_margin * (
        rng.standard_normal(clean.size) + 1j * rng.standard_normal(clean.size)
    )
    sig = IQSignal(clean + noise, _SYMBOL_RATE * _CONFIG.samples_per_symbol)
    return sig, wazabee_access_address_bits()


#: 802.15.4 receiver shape: chip oversampling, sync chips and their parity,
#: and re-arm attempts, as in ``repro.chips.rzusbstick``.
_DOT15D4_SPC = 2
_DOT15D4_SYNC = np.concatenate([PN_SEQUENCES[0], PN_SEQUENCES[0]])
_DOT15D4_ATTEMPTS = 4


def _dot15d4_capture(payload_size: int, seed: int = 29) -> IQSignal:
    """A noisy 802.15.4 frame with idle margins on both sides."""
    rng = np.random.default_rng(seed)
    frame = build_data(
        source=_SRC,
        destination=_DST,
        payload=bytes(rng.integers(0, 256, payload_size, dtype=np.uint8)),
        sequence_number=2,
    )
    mod = OqpskModulator(samples_per_chip=_DOT15D4_SPC)
    body = mod.modulate(Ppdu(frame.to_bytes()).to_chips()).samples
    margin = np.zeros(200 * _DOT15D4_SPC, dtype=complex)
    samples = np.concatenate([margin, body, margin])
    samples = samples + 0.05 * (
        rng.standard_normal(samples.size) + 1j * rng.standard_normal(samples.size)
    )
    return IQSignal(samples, mod.sample_rate)


def _dot15d4_rates(payload_size: int, captures: int, repeats: int) -> dict:
    """Searches/s over four-attempt re-arm sequences, shared vs fresh."""
    demod = OqpskDemodulator(samples_per_chip=_DOT15D4_SPC)
    fsk = demod._fsk
    sig = _dot15d4_capture(payload_size)
    template = chips_to_transitions(_DOT15D4_SYNC, start_index=CHIPS_PER_SYMBOL)
    rearm = CHIPS_PER_SYMBOL * _DOT15D4_SPC

    def sequence(shared: bool) -> list:
        disc, power, statics = demod.front_end(sig)
        starts, start = [], 0
        for _ in range(_DOT15D4_ATTEMPTS):
            lock = fsk.find_sync(
                disc,
                template,
                power=power,
                search_start=start,
                statics=statics if shared else None,
            )
            assert lock is not None
            starts.append(lock.start)
            start = lock.start + rearm
        return starts

    # Both modes must walk the same lock sequence before anything is timed.
    assert sequence(True) == sequence(False)

    def runner(shared: bool):
        def run() -> None:
            for _ in range(captures):
                sequence(shared)

        return run

    searches = captures * _DOT15D4_ATTEMPTS
    shared_s = best_of(runner(True), repeats=repeats)
    fresh_s = best_of(runner(False), repeats=repeats)
    return {
        "dot15d4_capture_samples": float(len(sig) - 1),
        "dot15d4_template_transitions": float(template.size),
        "dot15d4_searches_per_s": searches / shared_s,
        "dot15d4_fresh_searches_per_s": searches / fresh_s,
    }


def bench_sync(quick: bool = False) -> List[BenchRecord]:
    payload_size = 20 if quick else 60
    repeats = 3 if quick else 5
    searches = 3 if quick else 20
    demod = FskDemodulator(_CONFIG, _SYMBOL_RATE)
    sig, sync_bits = _capture(payload_size)
    disc = demod.discriminate(sig)
    power = np.abs(sig.samples[:-1]) ** 2

    # Cross-check: both correlators must produce the same lock.
    locks = {
        kind: demod.find_sync(disc, sync_bits, power=power, correlator=kind)
        for kind in ("direct", "fft")
    }
    assert locks["direct"] is not None and locks["fft"] is not None
    assert locks["direct"].start == locks["fft"].start

    def runner(correlator):
        def run() -> None:
            for _ in range(searches):
                demod.find_sync(
                    disc, sync_bits, power=power, correlator=correlator
                )

        return run

    auto_s = best_of(runner(None), repeats=repeats)
    direct_s = best_of(runner("direct"), repeats=repeats)
    fft_s = best_of(runner("fft"), repeats=repeats)
    return [
        BenchRecord(
            name="sync_search",
            metric="searches_per_s",
            value=searches / auto_s,
            repeats=repeats,
            extra={
                "capture_samples": int(disc.size),
                "template_bits": int(np.asarray(sync_bits).size),
                "direct_searches_per_s": searches / direct_s,
                "fft_searches_per_s": searches / fft_s,
                "fft_speedup_vs_direct": direct_s / fft_s,
                **_dot15d4_rates(
                    payload_size, captures=5 if quick else 50, repeats=repeats
                ),
            },
        )
    ]
