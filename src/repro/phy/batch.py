"""Batched frames-axis decode pipeline (mix → sync → despread → FCS).

The sequential receive path runs one capture at a time:
:class:`~repro.dsp.oqpsk.OqpskDemodulator` discriminates, correlates and
slices, then :func:`~repro.phy.ieee802154.despread_chips` despreads and
the PPDU layer frames.  A Table III cell repeats that ~100 times.  This
module runs the same hot path along a *frames axis*: a stack of
equal-length captures becomes one ``(F, N)`` tensor, and each stage —
quadrature discrimination, FFT sync correlation, integrate-and-dump chip
decisions, prefix-XOR rotation→chip inversion, and the PN-matrix
despread — is a single vectorised operation over all F rows.

The decisions are the same decisions the sequential demodulator makes
(same templates, thresholds, RSSI gate, DC compensation and re-arm
behaviour), so batched decode outcomes are bit-identical to running the
captures one-by-one — the property the differential test harness pins.

Despreading additionally produces a per-symbol soft output: the LLR of
each minimum-Hamming-distance decision, measured as the margin between
the best and runner-up PN match.  It complements PR 1's per-symbol
``confidences`` (1 − d/31 over MSK blocks): the margin says how much
evidence separated the chosen symbol from the next candidate, which is
exactly what a soft-input FEC or the FCS-failure salvage path wants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.dot15d4.fcs import verify_fcs
from repro.dsp.gfsk import percentile90
from repro.dsp.msk import chips_to_transitions
from repro.phy.ieee802154 import (
    CHIPS_PER_SYMBOL,
    MAX_PSDU_SIZE,
    PN_SEQUENCES,
    Ppdu,
    pn_distances,
    symbol_confidences,
)

__all__ = [
    "BatchDecodedFrame",
    "BatchDecodeResult",
    "despread_blocks_soft",
    "decode_chip_frames",
]

#: Chip-timing sync pattern and parity, mirroring the sequential
#: 802.15.4 receiver (two preamble symbols, stream index 32).
_SYNC_CHIPS = np.concatenate([PN_SEQUENCES[0], PN_SEQUENCES[0]])
_SYNC_START_INDEX = CHIPS_PER_SYMBOL

#: Decode ceiling per capture, as in the sequential radio.
_MAX_CHIPS = CHIPS_PER_SYMBOL * (10 + 2 * (1 + MAX_PSDU_SIZE))

#: Re-arm attempts after a sync that yielded no frame (sequential parity).
RESYNC_ATTEMPTS = 4

#: Discriminator limiter, as in :class:`~repro.dsp.gfsk.FskDemodulator`.
_CLIP_LEVEL = 1.5


@dataclass
class BatchDecodedFrame:
    """One frame recovered by the batched pipeline.

    Mirrors the information content of the sequential
    :class:`~repro.chips.rzusbstick.ReceivedPsdu` /
    :class:`~repro.core.rx.DecodedFrame` pair, plus the soft output.
    """

    psdu: bytes
    fcs_ok: bool
    sfd_index: int
    sync_start: int
    sync_score: float
    chip_index: int
    symbols: List[int] = field(default_factory=list)
    distances: List[int] = field(default_factory=list)
    #: Per-symbol LLR: Hamming margin between best and runner-up PN match.
    llrs: List[int] = field(default_factory=list)

    @property
    def mean_distance(self) -> float:
        if not self.distances:
            return 0.0
        return float(np.mean(self.distances))

    @property
    def confidences(self) -> List[float]:
        """Per-symbol confidence in [0, 1].

        Same mapping as the sequential
        :class:`~repro.core.rx.DecodedFrame` — both delegate to
        :func:`repro.phy.ieee802154.symbol_confidences`.
        """
        return symbol_confidences(self.distances)


@dataclass
class BatchDecodeResult:
    """Per-row outcomes of one batched decode call."""

    frames: List[Optional[BatchDecodedFrame]]
    sync_found: int
    decoded: int


def despread_blocks_soft(
    blocks: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched minimum-Hamming-distance despread with soft output.

    *blocks* is ``(..., 32)`` — any number of leading axes of 32-chip
    blocks.  Returns ``(symbols, distances, llrs)`` with the leading
    shape preserved; *llrs* is the margin ``d₂ − d₁`` between the two
    best PN matches (0 = ambiguous, 12+ = clean: distinct PN sequences
    are ≥16 chips apart within each cyclic-shift family and ≥12 across
    the conjugate family).
    """
    arr = np.asarray(blocks, dtype=np.uint8)
    if arr.shape[-1] != CHIPS_PER_SYMBOL:
        raise ValueError(
            f"expected trailing axis of {CHIPS_PER_SYMBOL} chips, got "
            f"{arr.shape[-1]}"
        )
    lead = arr.shape[:-1]
    dists = pn_distances(arr.reshape(-1, CHIPS_PER_SYMBOL)).astype(np.int32)
    symbols = dists.argmin(axis=1)
    best = dists.min(axis=1)
    two_best = np.partition(dists, 1, axis=1)[:, :2]
    llrs = two_best[:, 1] - two_best[:, 0]
    return (
        symbols.reshape(lead),
        best.reshape(lead),
        llrs.reshape(lead),
    )


def _discriminate(captures: np.ndarray, frequency_deviation: float, sample_rate: float) -> np.ndarray:
    """Batched quadrature discriminator, matching FskDemodulator's output."""
    phase = np.angle(captures[..., 1:] * np.conj(captures[..., :-1]))
    raw = phase * (sample_rate / (2.0 * np.pi)) / frequency_deviation
    return np.clip(raw, -_CLIP_LEVEL, _CLIP_LEVEL)


def _batched_correlate(disc: np.ndarray, template: np.ndarray) -> np.ndarray:
    """``np.correlate(row, template, "valid")`` for every row, via one FFT.

    scipy's pocketfft preserves single precision (numpy's always upcasts
    to float64), so a float32 discriminator output stays float32 end to
    end — the wideband sweep's hot path relies on that.
    """
    try:
        from scipy import fft as sp_fft

        n_fft = sp_fft.next_fast_len(disc.shape[-1])
        spec = sp_fft.rfft(disc, n_fft, axis=-1, workers=2)
        spec *= np.conj(sp_fft.rfft(template, n_fft))
        full = sp_fft.irfft(spec, n_fft, axis=-1, workers=2)
    except ImportError:  # pragma: no cover - scipy is a hard dep elsewhere
        n_fft = int(2 ** np.ceil(np.log2(disc.shape[-1])))
        spec = np.fft.rfft(disc, n_fft, axis=-1)
        spec *= np.conj(np.fft.rfft(template, n_fft))
        full = np.fft.irfft(spec, n_fft, axis=-1)
    return full[..., : disc.shape[-1] - template.size + 1]


def _sync_statics(
    disc: np.ndarray,
    power: np.ndarray,
    template: np.ndarray,
    threshold: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Search-start-independent sync statistics, computed once per stack.

    Returns ``(corr, valid, disc_cum)``: the normalised template
    correlation, the threshold ∧ RSSI-gate mask over all alignments, and
    the discriminator prefix sums for DC estimation.  Re-arm attempts
    only move each row's search start, so these never need recomputing.
    """
    centered = (template - template.mean()).astype(disc.dtype)
    norm = float(np.dot(centered, centered))
    corr = _batched_correlate(disc, centered) / norm
    valid = corr >= threshold
    m = valid.shape[-1]
    # RSSI gate: windowed mean power vs 0.25 × its 90th percentile.
    window = template.size
    cumulative = np.concatenate(
        [
            np.zeros(disc.shape[:-1] + (1,), dtype=power.dtype),
            np.cumsum(power, axis=-1),
        ],
        axis=-1,
    )
    windowed = (cumulative[..., window:] - cumulative[..., :-window]) / window
    windowed = windowed[..., :m]
    gate = 0.25 * percentile90(windowed)[..., None]
    valid &= windowed >= gate
    disc_cum = np.concatenate(
        [
            np.zeros(disc.shape[:-1] + (1,), dtype=disc.dtype),
            np.cumsum(disc, axis=-1),
        ],
        axis=-1,
    )
    return corr, valid, disc_cum


def _sync_pick(
    corr: np.ndarray,
    valid: np.ndarray,
    disc_cum: np.ndarray,
    template_mean: float,
    window: int,
    spc: int,
    search_start: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """First gated alignment at/after each row's search start, refined.

    Decision order matches the sequential implementation: first
    alignment above threshold that survives the RSSI gate, refined to
    the local correlation maximum within two symbols.
    """
    m = valid.shape[-1]
    col = np.arange(m)
    masked = valid & (col[None, :] >= search_start[:, None])
    found = masked.any(axis=-1)
    first = np.where(found, masked.argmax(axis=-1), 0)
    # Refine to the local maximum within two symbols of the first hit.
    span = 2 * spc
    offsets = np.arange(span)
    win_idx = np.minimum(first[:, None] + offsets[None, :], m - 1)
    win = np.take_along_axis(corr, win_idx, axis=-1)
    # Mask positions that fell past the row's window end (clamped dups).
    win = np.where(first[:, None] + offsets[None, :] <= m - 1, win, -np.inf)
    best = first + win.argmax(axis=-1)
    score = np.take_along_axis(corr, best[:, None], axis=-1)[:, 0]
    # DC estimate: mean of the locked window minus the template mean.
    win_mean = (
        np.take_along_axis(disc_cum, best[:, None] + window, axis=-1)[:, 0]
        - np.take_along_axis(disc_cum, best[:, None], axis=-1)[:, 0]
    ) / window
    dc_norm = win_mean - template_mean
    return found, best, score, dc_norm


def _frame_from_symbols(
    symbols: np.ndarray,
    distances: np.ndarray,
    llrs: np.ndarray,
    sync_start: int,
    sync_score: float,
    chip_index: int,
    max_chip_distance: int,
) -> Optional[BatchDecodedFrame]:
    """SFD search + PPDU parse + FCS: the per-frame (cheap) tail."""
    symbol_list = np.asarray(symbols).tolist()
    sfd_index = Ppdu.find_sfd(symbol_list)
    if sfd_index is None:
        return None
    ppdu = Ppdu.parse_symbols(symbol_list[sfd_index:])
    if ppdu is None:
        return None
    frame_symbols = 4 + 2 * len(ppdu.psdu)
    frame_slice = slice(sfd_index, sfd_index + frame_symbols)
    frame_distances = np.asarray(distances[frame_slice]).tolist()
    mean_distance = (
        sum(frame_distances) / len(frame_distances) if frame_distances else 0.0
    )
    if max_chip_distance and mean_distance > max_chip_distance:
        return None
    return BatchDecodedFrame(
        psdu=ppdu.psdu,
        fcs_ok=verify_fcs(ppdu.psdu),
        sfd_index=sfd_index,
        sync_start=sync_start,
        sync_score=sync_score,
        chip_index=chip_index,
        symbols=symbol_list[frame_slice],
        distances=frame_distances,
        llrs=np.asarray(llrs[frame_slice]).tolist(),
    )


def decode_chip_frames(
    captures: np.ndarray,
    samples_per_chip: int,
    chip_rate: float = 2e6,
    sync_threshold: float = 0.45,
    max_chip_distance: int = 12,
) -> BatchDecodeResult:
    """Decode a stack of equal-length baseband captures in one pass.

    *captures* is ``(F, N)`` complex — already tuned and channel-filtered
    basebands (e.g. one channelizer output per frame slot).  Each row is
    taken through the full 802.15.4-over-MSK receive chain with every
    stage batched along the frames axis.  Rows whose first sync lock
    yields no frame are re-armed up to :data:`RESYNC_ATTEMPTS` times,
    exactly like the sequential radio.
    """
    captures = np.atleast_2d(np.asarray(captures))
    num_rows = captures.shape[0]
    sample_rate = chip_rate * samples_per_chip
    deviation = 0.5 * chip_rate / 2.0
    spc = samples_per_chip
    disc = _discriminate(captures, deviation, sample_rate)
    power = np.abs(captures[..., :-1]) ** 2
    transitions_template = chips_to_transitions(
        _SYNC_CHIPS, start_index=_SYNC_START_INDEX
    )
    nrz = transitions_template.astype(np.float64) * 2.0 - 1.0
    template = np.repeat(nrz, spc)
    template_mean = float(template.mean())
    first_chip_index = _SYNC_START_INDEX + _SYNC_CHIPS.size
    previous_chip = int(_SYNC_CHIPS[-1])
    parity = (
        np.arange(first_chip_index, first_chip_index + _MAX_CHIPS) & 1
    ).astype(np.uint8)

    frames: List[Optional[BatchDecodedFrame]] = [None] * num_rows
    search_start = np.zeros(num_rows, dtype=np.int64)
    active = np.arange(num_rows)
    sync_found_rows: set = set()
    # Correlation, RSSI gate and prefix sums are independent of the
    # search start — compute once, reuse across re-arm attempts.
    corr, valid, disc_cum = _sync_statics(
        disc, power, template, sync_threshold
    )
    for _attempt in range(RESYNC_ATTEMPTS):
        if active.size == 0:
            break
        found, best, score, dc_norm = _sync_pick(
            corr[active],
            valid[active],
            disc_cum[active],
            template_mean,
            template.size,
            spc,
            search_start[active],
        )
        hit = active[found]
        if hit.size == 0:
            break
        sync_found_rows.update(int(r) for r in hit)
        starts = best[found]
        dcs = dc_norm[found]
        scores = score[found]
        payload_start = starts + template.size
        counts = np.minimum(
            _MAX_CHIPS, (disc.shape[-1] - payload_start) // spc
        )
        usable = counts > 0
        hit, starts, dcs, scores, payload_start, counts = (
            hit[usable],
            starts[usable],
            dcs[usable],
            scores[usable],
            payload_start[usable],
            counts[usable],
        )
        if hit.size == 0:
            break
        count_max = int(counts.max())
        # Gather each row's payload window; indices past a row's count
        # are clamped in-range and masked out after the per-row slice.
        gather = payload_start[:, None] + np.arange(count_max * spc)[None, :]
        gather = np.minimum(gather, disc.shape[-1] - 1)
        window = disc[hit[:, None], gather] - dcs[:, None]
        soft = window.reshape(hit.size, count_max, spc).sum(axis=2)
        transitions = (soft > 0).astype(np.uint8)
        # transitions → chips: prefix XOR along the frames axis.
        chips = np.bitwise_xor.accumulate(
            transitions ^ parity[None, :count_max], axis=1
        )
        chips ^= np.uint8(previous_chip & 1)
        sym_max = count_max // CHIPS_PER_SYMBOL
        if sym_max:
            blocks = chips[:, : sym_max * CHIPS_PER_SYMBOL].reshape(
                hit.size, sym_max, CHIPS_PER_SYMBOL
            )
            symbols, distances, llrs = despread_blocks_soft(blocks)
        still_active: List[int] = []
        for i, row in enumerate(hit):
            row = int(row)
            count = int(counts[i])
            num_symbols = count // CHIPS_PER_SYMBOL
            frame = None
            if num_symbols:
                frame = _frame_from_symbols(
                    symbols[i, :num_symbols],
                    distances[i, :num_symbols],
                    llrs[i, :num_symbols],
                    sync_start=int(starts[i]),
                    sync_score=float(scores[i]),
                    chip_index=first_chip_index,
                    max_chip_distance=max_chip_distance,
                )
            if frame is not None:
                frames[row] = frame
            else:
                # Re-arm one symbol past the failed lock (sequential parity).
                search_start[row] = int(starts[i]) + CHIPS_PER_SYMBOL * spc
                still_active.append(row)
        active = np.array(still_active, dtype=np.int64)
    decoded = sum(1 for f in frames if f is not None)
    return BatchDecodeResult(
        frames=frames, sync_found=len(sync_found_rows), decoded=decoded
    )
