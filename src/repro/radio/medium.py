"""Shared RF medium with path loss, noise and interference.

The medium is where a BLE emission and a Zigbee receiver actually meet: a
transmission is recorded with its RF centre frequency and start time; every
attached, listening transceiver whose tuning overlaps gets a *capture* — the
superposition of all transmissions overlapping its window, mixed to the
receiver's centre frequency, scaled by log-distance path loss and log-normal
shadowing, plus interferer bursts and the thermal noise floor.

Power convention: a linear sample power of 1.0 corresponds to 0 dBm, so
``amplitude = 10^(dBm/20)``.

Determinism contract: every per-capture random draw (thermal noise,
shadowing, interferer bursts) comes from a *per-receiver* stream derived
from the medium seed and keyed by the receiver's name — never from the
order radios were attached or the order deliveries interleave across
receivers.  Two simulations that agree on (seed, per-receiver delivery
sequence) therefore produce byte-identical captures, which is what lets
the cell-grid scans below prove decision-identity against a brute-force
scan of every radio and every transmission.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.dsp.signal import IQSignal
from repro.obs import MEDIUM_DELIVERY
from repro.obs import metrics as _current_metrics
from repro.obs import trace_bus as _current_bus
from repro.radio.interference import WifiInterferer
from repro.radio.scheduler import Scheduler
from repro.radio.shard import BufferPool, Cell, CellGrid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector
    from repro.radio.transceiver import Transceiver

__all__ = ["PropagationModel", "Transmission", "RfMedium"]

Position = Tuple[float, float]


@dataclass
class PropagationModel:
    """Log-distance path loss with optional log-normal shadowing.

    ``reference_loss_db`` is the loss at ``reference_distance_m``;
    ``exponent`` is the decay exponent (2 free space, 2.5–3 indoors);
    ``shadowing_sigma_db`` adds a per-capture Gaussian term, the simulator's
    stand-in for multipath fading and people walking through the lab.
    """

    reference_loss_db: float = 40.0
    reference_distance_m: float = 1.0
    exponent: float = 2.5
    shadowing_sigma_db: float = 0.0

    def path_gain_db(
        self, a: Position, b: Position, rng: Optional[np.random.Generator] = None
    ) -> float:
        distance = math.dist(a, b)
        distance = max(distance, self.reference_distance_m / 10.0)
        loss = self.reference_loss_db + 10.0 * self.exponent * math.log10(
            distance / self.reference_distance_m
        )
        if self.shadowing_sigma_db > 0.0 and rng is not None:
            loss += float(rng.normal(0.0, self.shadowing_sigma_db))
        return -loss


@dataclass
class Transmission:
    """A signal on the air.

    ``origin`` is the emitter's position *at transmit time*: path loss and
    range gating are evaluated against where the energy actually left the
    antenna, so a source that moves while its frame is still in flight
    cannot retroactively change the physics of an emission already made.
    """

    source: "Transceiver"
    signal: IQSignal
    start_time: float
    power_dbm: float
    identifier: int
    origin: Position = (0.0, 0.0)

    @property
    def end_time(self) -> float:
        return self.start_time + self.signal.duration


class RfMedium:
    """The shared channel connecting every simulated radio.

    ``range_cutoff_m`` (optional) bounds the interaction radius: a
    transmission is neither delivered to, nor mixed into the capture of, a
    receiver farther than the cutoff from its origin, and CSMA-CA CCA does
    not see it.  ``None`` (the default) leaves the medium unbounded.

    Scans go through interest sets kept on a
    :class:`~repro.radio.shard.CellGrid` whose cell edge is the cutoff (one
    infinite cell when unbounded): radios are indexed by (cell, 1 MHz
    tuning bucket) and in-flight transmissions by origin cell, so a
    transmission visits only the co-channel radios of the 3x3 cells around
    its origin, and a capture composes only the transmissions of the 3x3
    cells around its receiver.  The grid narrows *candidates* only: the
    listening/in-band/in-range predicates decide, radios are scanned in
    attach order and transmissions summed in identifier order, exactly as
    a brute-force scan over everything would (``tests/radio/dense.py``
    holds that scan as the differential oracle).
    """

    #: Margin added to half the receiver bandwidth when deciding whether a
    #: transmission is deliverable (beyond it, the channel filter would bury
    #: the signal anyway).  Roughly the occupied bandwidth of the signals
    #: simulated here.
    DELIVERY_MARGIN_HZ = 3e6

    #: Width of one tuning interest bucket.  1 MHz is fine-grained enough
    #: that a Zigbee channel plan (5 MHz spacing) lands adjacent PANs in
    #: disjoint bucket ranges, and coarse enough that the bucket arithmetic
    #: stays integer.
    BUCKET_HZ = 1e6

    #: How far behind the current time a finished transmission is kept
    #: before being pruned from the superposition list.  It must exceed the
    #: longest capture window (frame airtime + capture margins) or a late
    #: delivery would compose against a half-forgotten past; anything much
    #: larger only wastes memory on a busy medium.
    DEFAULT_PRUNE_HORIZON_S = 0.01

    def __init__(
        self,
        scheduler: Scheduler,
        sample_rate: float = 16e6,
        noise_floor_dbm: float = -100.0,
        propagation: Optional[PropagationModel] = None,
        interferers: Sequence[WifiInterferer] = (),
        rng: Optional[np.random.Generator] = None,
        capture_margin_s: float = 16e-6,
        seed: int = 0,
        prune_horizon_s: float = DEFAULT_PRUNE_HORIZON_S,
        fault_injector: Optional["FaultInjector"] = None,
        range_cutoff_m: Optional[float] = None,
    ):
        self.scheduler = scheduler
        self.sample_rate = sample_rate
        self.noise_floor_dbm = noise_floor_dbm
        # Observability: bind to the bus/registry scoped at construction
        # time, so one experiment cell traces only its own medium.
        self.trace = _current_bus()
        self.metrics = _current_metrics()
        self.propagation = propagation or PropagationModel()
        self.interferers = list(interferers)
        self.seed = seed
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.capture_margin_s = capture_margin_s
        if prune_horizon_s <= 0.0:
            raise ValueError("prune_horizon_s must be positive")
        self.prune_horizon_s = prune_horizon_s
        if range_cutoff_m is not None and range_cutoff_m <= 0.0:
            raise ValueError("range_cutoff_m must be positive")
        self.range_cutoff_m = range_cutoff_m
        self.grid = CellGrid(
            math.inf if range_cutoff_m is None else range_cutoff_m
        )
        # Every in-flight transmission, in identifier order.
        self._transmissions: List[Transmission] = []
        self._next_id = 0
        # radio -> attach sequence number (the delivery-scan order) and
        # radio -> (cell, bucket) as currently indexed.
        self._attach_seq: Dict["Transceiver", int] = {}
        self._next_seq = 0
        self._radio_keys: Dict["Transceiver", Tuple[Cell, int]] = {}
        # (cell, bucket) -> radios; origin cell -> in-flight transmissions.
        self._cell_radios: Dict[Tuple[Cell, int], Set["Transceiver"]] = {}
        self._cell_txs: Dict[Cell, List[Transmission]] = {}
        # Widest in-band acceptance window over attached radios; bounds the
        # bucket span a transmission must query.
        self._max_limit_hz = 0.0
        # Per-receiver random streams, keyed by radio *name* (not insertion
        # order): each receiver's noise/shadowing/interference draws advance
        # only with its own captures.
        self._rx_streams: dict = {}
        # Capture-composition scratch: mixed-signal memo (a transmission is
        # mixed to a given receiver tuning once, not once per delivery),
        # recycled composition buffers, and reusable noise buffers
        # (grow-only, so steady-state captures do no float allocation for
        # the thermal floor).
        self._mixed_cache: dict = {}
        self.buffer_pool = BufferPool()
        self._noise_re = np.empty(0)
        self._noise_im = np.empty(0)
        self.fault_injector: Optional["FaultInjector"] = None
        if fault_injector is not None:
            self.install_fault_injector(fault_injector)

    def derive_rng(self, label: str) -> np.random.Generator:
        """A deterministic per-device generator tied to the medium's seed.

        Devices that are not handed an explicit ``rng`` draw theirs from
        here, keyed by name, so a whole experiment is reproducible from the
        single medium seed.
        """
        key = zlib.crc32(label.encode("utf-8"))
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
        )

    def install_fault_injector(self, injector: "FaultInjector") -> None:
        """Attach a fault injector; scripted bursts are scheduled now."""
        injector.install(self)
        self.fault_injector = injector

    # -- attachment ---------------------------------------------------------
    def attach(self, radio: "Transceiver") -> None:
        if radio in self._attach_seq:
            return
        # A fresh sequence number on every attach: a re-attached radio is
        # scanned after every radio attached before it.
        self._attach_seq[radio] = self._next_seq
        self._next_seq += 1
        self._max_limit_hz = max(self._max_limit_hz, self._band_limit(radio))
        self._index_radio(radio)

    def detach(self, radio: "Transceiver") -> None:
        if self._attach_seq.pop(radio, None) is not None:
            self._unindex_radio(radio)

    def reindex(self, radio: "Transceiver") -> None:
        """Re-file *radio* after its position or tuning changed."""
        old = self._radio_keys.get(radio)
        if old is None:
            return  # not attached yet (mid-construction) or detached
        if self._index_key(radio) != old:
            self._unindex_radio(radio)
            self._index_radio(radio)

    def _index_key(self, radio: "Transceiver") -> Tuple[Cell, int]:
        return (
            self.grid.cell_of(radio.position),
            int(radio.tuned_hz // self.BUCKET_HZ),
        )

    def _index_radio(self, radio: "Transceiver") -> None:
        key = self._index_key(radio)
        self._radio_keys[radio] = key
        self._cell_radios.setdefault(key, set()).add(radio)

    def _unindex_radio(self, radio: "Transceiver") -> None:
        key = self._radio_keys.pop(radio)
        members = self._cell_radios[key]
        members.discard(radio)
        if not members:
            del self._cell_radios[key]

    def _rx_stream(self, radio: "Transceiver") -> np.random.Generator:
        # Created on first use and never dropped, so detach + re-attach
        # continues a receiver's stream rather than rewinding it.
        stream = self._rx_streams.get(radio.name)
        if stream is None:
            stream = self.derive_rng(f"medium.rx:{radio.name}")
            self._rx_streams[radio.name] = stream
        return stream

    # -- transmission ---------------------------------------------------------
    def transmit(
        self, source: "Transceiver", signal: IQSignal, power_dbm: float
    ) -> Transmission:
        """Put *signal* on the air now; schedule deliveries at its end."""
        if signal.sample_rate != self.sample_rate:
            raise ValueError(
                f"signal sample rate {signal.sample_rate} differs from medium "
                f"rate {self.sample_rate}"
            )
        self._prune(self.scheduler.now - self.prune_horizon_s)
        tx = Transmission(
            source=source,
            signal=signal,
            start_time=self.scheduler.now,
            power_dbm=power_dbm,
            identifier=self._next_id,
            origin=tuple(source.position),
        )
        self._next_id += 1
        self._transmissions.append(tx)
        self._cell_txs.setdefault(self.grid.cell_of(tx.origin), []).append(tx)
        self.metrics.counter("medium.transmissions").inc()
        for radio in self._delivery_candidates(tx):
            if radio is source:
                continue
            if not radio.is_listening:
                continue
            if not self._in_band(radio, signal.center_frequency):
                continue
            if not self._within_range(tx, radio):
                continue
            deliveries = 1
            if self.fault_injector is not None:
                deliveries = self.fault_injector.delivery_count(radio, tx)
            if deliveries == 0:
                self.metrics.counter("medium.deliveries.suppressed").inc()
                self._trace_delivery(radio, tx, "suppressed")
                continue
            if deliveries > 1:
                self.metrics.counter("medium.deliveries.duplicated").inc()
            for _ in range(deliveries):
                self.metrics.counter("medium.deliveries.scheduled").inc()
                self._trace_delivery(radio, tx, "scheduled")
                self._schedule_delivery(radio, tx)
        return tx

    def _delivery_candidates(self, tx: Transmission) -> List["Transceiver"]:
        """Radios near *tx*'s origin and tuning, in attach order.

        Attach order fixes the scheduler's delivery event sequence, and
        with it every downstream tie-break.
        """
        center = tx.signal.center_frequency
        lo = int((center - self._max_limit_hz) // self.BUCKET_HZ)
        hi = int((center + self._max_limit_hz) // self.BUCKET_HZ)
        found: List["Transceiver"] = []
        for cell in self.grid.neighborhood(self.grid.cell_of(tx.origin)):
            for bucket in range(lo, hi + 1):
                members = self._cell_radios.get((cell, bucket))
                if members:
                    found.extend(members)
        found.sort(key=self._attach_seq.__getitem__)
        return found

    def _trace_delivery(
        self, radio: "Transceiver", tx: Transmission, status: str
    ) -> None:
        if self.trace.active:
            self.trace.emit(
                MEDIUM_DELIVERY,
                time=self.scheduler.now,
                status=status,
                rx=radio.name,
                tx=getattr(tx.source, "name", "?"),
                tx_id=tx.identifier,
            )

    def _band_limit(self, radio: "Transceiver") -> float:
        return radio.bandwidth_hz / 2.0 + self.DELIVERY_MARGIN_HZ

    def _in_band(self, radio: "Transceiver", center_frequency: float) -> bool:
        return abs(radio.tuned_hz - center_frequency) <= self._band_limit(radio)

    def _within_range(self, tx: Transmission, radio: "Transceiver") -> bool:
        if self.range_cutoff_m is None:
            return True
        return math.dist(tx.origin, radio.position) <= self.range_cutoff_m

    def _schedule_delivery(self, radio: "Transceiver", tx: Transmission) -> None:
        def deliver() -> None:
            # Re-check state at delivery time: the radio may have re-tuned,
            # stopped listening, or moved out of range while the frame was
            # in flight.
            if (
                not radio.is_listening
                or not self._in_band(radio, tx.signal.center_frequency)
                or not self._within_range(tx, radio)
            ):
                self.metrics.counter("medium.deliveries.skipped").inc()
                self._trace_delivery(radio, tx, "skipped")
                return
            start = tx.start_time - self.capture_margin_s
            end = tx.end_time + self.capture_margin_s
            capture = self.compose_capture(radio, start, end)
            raw = capture.samples
            if self.fault_injector is not None:
                capture = self.fault_injector.transform_capture(
                    radio, capture, start
                )
            self.metrics.counter("medium.deliveries.delivered").inc()
            self._trace_delivery(radio, tx, "delivered")
            try:
                radio.handle_capture(capture, tx)
            finally:
                # The transceiver filters into a fresh array, so the raw
                # composition buffer can be recycled.
                self.buffer_pool.release(raw)

        self.scheduler.schedule_at(tx.end_time, deliver)

    # -- capture composition ----------------------------------------------------
    def compose_capture(
        self, radio: "Transceiver", start_time: float, end_time: float
    ) -> IQSignal:
        """Superpose everything a receiver hears in a time window."""
        num = max(1, int(round((end_time - start_time) * self.sample_rate)))
        total = self.buffer_pool.acquire(num)
        rng = self._rx_stream(radio)
        for tx in self._compose_candidates(radio):
            if tx.end_time <= start_time or tx.start_time >= end_time:
                continue
            if tx.source is radio:
                continue
            if not self._in_band(radio, tx.signal.center_frequency):
                continue
            if not self._within_range(tx, radio):
                continue
            gain_db = tx.power_dbm + self.propagation.path_gain_db(
                tx.origin, radio.position, rng=rng
            )
            amplitude = 10.0 ** (gain_db / 20.0)
            mixed = self._mixed_samples(tx, radio.tuned_hz)
            offset = int(round((tx.start_time - start_time) * self.sample_rate))
            self._add_at(total, mixed, offset, scale=amplitude)
        for interferer in self.interferers:
            burst = interferer.contribution(
                rx_center_hz=radio.tuned_hz,
                rx_bandwidth_hz=radio.bandwidth_hz,
                num_samples=num,
                sample_rate=self.sample_rate,
                rng=rng,
            )
            total += burst.samples
        noise_power = 10.0 ** (
            (self.noise_floor_dbm + radio.noise_figure_db) / 10.0
        )
        scale = np.sqrt(noise_power / 2.0)
        if self._noise_re.size < num:
            self._noise_re = np.empty(num)
            self._noise_im = np.empty(num)
        re, im = self._noise_re[:num], self._noise_im[:num]
        # Same generator stream (and therefore bit-identical captures) as
        # drawing two fresh arrays — ``out=`` only skips the allocations.
        rng.standard_normal(out=re)
        rng.standard_normal(out=im)
        total.real += scale * re
        total.imag += scale * im
        return IQSignal(total, self.sample_rate, radio.tuned_hz)

    def _compose_candidates(self, radio: "Transceiver") -> List[Transmission]:
        """Transmissions from the cells around *radio*, in identifier order.

        Identifier order fixes the floating-point summation order, which is
        part of the byte-identity contract.
        """
        found: List[Transmission] = []
        for cell in self.grid.neighborhood(self.grid.cell_of(radio.position)):
            found.extend(self._cell_txs.get(cell, ()))
        found.sort(key=lambda tx: tx.identifier)
        return found

    def _mixed_samples(self, tx: Transmission, tuned_hz: float) -> np.ndarray:
        """*tx*'s samples mixed to a receiver tuning, memoised per pairing.

        The cached array is shared between deliveries; callers must treat
        it as read-only (``_add_at`` only reads it).
        """
        key = (tx.identifier, tuned_hz)
        samples = self._mixed_cache.get(key)
        if samples is None:
            samples = tx.signal.mixed_to(tuned_hz).samples
            self._mixed_cache[key] = samples
        return samples

    @staticmethod
    def _add_at(
        buffer: np.ndarray,
        samples: np.ndarray,
        offset: int,
        scale: float = 1.0,
    ) -> None:
        if offset >= buffer.size or offset + samples.size <= 0:
            return
        src_start = max(0, -offset)
        dst_start = max(0, offset)
        length = min(samples.size - src_start, buffer.size - dst_start)
        if length > 0:
            buffer[dst_start : dst_start + length] += scale * samples[
                src_start : src_start + length
            ]

    def _prune(self, before: float) -> None:
        kept = [tx for tx in self._transmissions if tx.end_time >= before]
        if len(kept) == len(self._transmissions):
            return
        live = {tx.identifier for tx in kept}
        self._mixed_cache = {
            key: val for key, val in self._mixed_cache.items() if key[0] in live
        }
        cell_txs: Dict[Cell, List[Transmission]] = {}
        for cell, txs in self._cell_txs.items():
            remaining = [tx for tx in txs if tx.identifier in live]
            if remaining:
                cell_txs[cell] = remaining
        self._cell_txs = cell_txs
        self._transmissions = kept

    # -- introspection ---------------------------------------------------------
    @property
    def active_transmissions(self) -> List[Transmission]:
        now = self.scheduler.now
        return [
            tx
            for tx in self._transmissions
            if tx.start_time <= now <= tx.end_time
        ]

    def channel_busy(self, radio: "Transceiver") -> bool:
        """Clear-channel assessment for *radio*'s current tuning.

        True when any in-flight transmission from another source overlaps
        the radio's receive band (within the range cutoff, when one is
        configured) — the energy-detect CCA that backs the MAC's unslotted
        CSMA-CA.
        """
        now = self.scheduler.now
        for tx in self._compose_candidates(radio):
            if not tx.start_time <= now <= tx.end_time:
                continue
            if tx.source is radio:
                continue
            if not self._in_band(radio, tx.signal.center_frequency):
                continue
            if not self._within_range(tx, radio):
                continue
            return True
        return False
