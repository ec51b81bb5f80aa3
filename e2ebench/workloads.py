"""The closed-loop simulation workloads: Table III grid, fleet, wideband.

Each workload calls only public entry points of the program, in one
process, with ``workers=1``.  A *pass* is one fixed unit of work whose
outputs are checked; the benchmark repeats passes for the requested time
and reports medians.  Every pass at one seed must produce identical
outputs, and at :data:`DEFAULT_SEED` they must equal the reference stored
in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

DEFAULT_SEED = 0

CHIPS = ("nRF52832", "CC1352-R1")
PRIMITIVES = ("rx", "tx")
CHANNELS = tuple(range(11, 27))

#: Table III of the paper: average valid-frame rate per (chip, primitive).
PAPER_VALID_RATE = {
    ("nRF52832", "rx"): 0.98625,
    ("CC1352-R1", "rx"): 0.99375,
    ("nRF52832", "tx"): 0.975,
    ("CC1352-R1", "tx"): 0.99438,
}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def digest(value) -> str:
    """SHA-256 of *value* as canonical JSON."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


#: Seconds :func:`calibrate` takes on a quiet 2-core x86 host.  The
#: closed loops' host times are scaled to a host of that speed.
CALIBRATION_REF_S = 0.025

_KERNEL_DATA = None


def calibrate() -> float:
    """Host seconds one run of a fixed kernel takes right now.

    The kernel is the benchmark's own and calls nothing of the program:
    a Python loop over a dict and small NumPy filter, phase and FFT
    correlation steps, the mix the simulator's closed loops spend their
    time in.  On a shared virtual host the speed of the CPU drifts by
    tens of percent within minutes; timed right before and after a pass,
    the kernel tells how fast the host ran during it.
    """
    global _KERNEL_DATA
    import numpy as np

    if _KERNEL_DATA is None:
        rng = np.random.default_rng(0)
        _KERNEL_DATA = (
            rng.standard_normal(2048) + 1j * rng.standard_normal(2048),
            rng.standard_normal(33),
        )
    samples, taps = _KERNEL_DATA
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(120):
        for j in range(500):
            table[j] = table.get(j, 0) + i
        filtered = np.convolve(samples.real, taps, mode="same")
        phase = np.angle(samples[1:] * np.conj(samples[:-1]))
        spectrum = np.fft.fft(samples)
        peak = np.abs(np.fft.ifft(spectrum * np.conj(spectrum))).argmax()
        table[-1] = int(peak) + int(filtered.sum() + phase.sum() > 0)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class PassResult:
    """One pass: its host time, the work it completed and its checks."""

    wall_s: float
    frames: int
    sim_s: float
    valid: int
    valid_of: int
    unit_ms: List[float]
    outputs: object
    problems: List[str] = field(default_factory=list)
    #: valid count per (chip, primitive), for the Table III comparison.
    valid_by_pair: Dict[Tuple[str, str], Tuple[int, int]] = field(
        default_factory=dict
    )
    #: CALIBRATION_REF_S over the kernel's time around this pass: host
    #: seconds times this are seconds on the reference host.
    host_scale: float = 1.0


class Workload:
    """A closed-loop workload: set-up, then repeated checked passes."""

    name = ""

    def __init__(self, seed: int, reference: Optional[Dict]):
        self.seed = seed
        self.reference = reference if seed == DEFAULT_SEED else None
        self._first_outputs = None

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> None:
        """Repeats agree; at the default seed outputs equal the reference."""
        if self._first_outputs is None:
            self._first_outputs = result.outputs
            if self.seed == DEFAULT_SEED and self.reference != result.outputs:
                result.problems.append("outputs differ from reference.json")
        elif result.outputs != self._first_outputs:
            result.problems.append("outputs differ between repeats")


def _clear_caches() -> None:
    from repro.dsp.gfsk import clear_waveform_caches

    clear_waveform_caches()


def _tally(cell, frames: int, key: str, problems: List[str]) -> List[int]:
    counts = [cell.valid, cell.corrupted, cell.lost]
    if sum(counts) != frames:
        problems.append(f"{key}: valid+corrupted+lost={sum(counts)} != {frames}")
    return counts


class Table3Grid(Workload):
    """``run_table3`` over all 64 (chip, primitive, channel) cells."""

    name = "table3-grid"
    FRAMES_PER_CELL = 4
    #: Simulated time the runner advances per frame (``scheduler.run``).
    SIM_S_PER_FRAME = 2e-3

    def setup(self) -> None:
        from repro.experiments.environment import build_testbed
        from repro.experiments.table3 import run_table3

        _clear_caches()
        build_testbed(seed=self.seed)
        for chip in CHIPS:
            run_table3(
                frames=1, channels=(CHANNELS[0],), chips=(chip,),
                seed=self.seed, workers=1,
            )

    def run_pass(self) -> PassResult:
        from repro.experiments.table3 import run_table3

        problems: List[str] = []
        outputs: Dict[str, List[int]] = {}
        unit_ms: List[float] = []
        pairs: Dict[Tuple[str, str], List[int]] = {}
        start = time.perf_counter()
        for chip in CHIPS:
            for primitive in PRIMITIVES:
                for channel in CHANNELS:
                    t0 = time.perf_counter()
                    result = run_table3(
                        frames=self.FRAMES_PER_CELL,
                        channels=(channel,),
                        chips=(chip,),
                        primitives=(primitive,),
                        seed=self.seed,
                        workers=1,
                    )
                    unit_ms.append((time.perf_counter() - t0) * 1e3)
                    key = f"{chip}/{primitive}/{channel}"
                    counts = _tally(
                        result.cells[(chip, primitive)][channel],
                        self.FRAMES_PER_CELL, key, problems,
                    )
                    outputs[key] = counts
                    pair = pairs.setdefault((chip, primitive), [0, 0])
                    pair[0] += counts[0]
                    pair[1] += sum(counts)
        wall = time.perf_counter() - start
        frames = sum(sum(c) for c in outputs.values())
        return PassResult(
            wall_s=wall,
            frames=frames,
            sim_s=frames * self.SIM_S_PER_FRAME,
            valid=sum(c[0] for c in outputs.values()),
            valid_of=frames,
            unit_ms=unit_ms,
            outputs={"frames_per_cell": self.FRAMES_PER_CELL, "cells": outputs},
            problems=problems,
            valid_by_pair={k: tuple(v) for k, v in pairs.items()},
        )


class WidebandSweep(Workload):
    """``run_table3_wideband(mode="spectral")``, one call per (chip, primitive)."""

    name = "wideband-sweep"
    SLOTS = 8

    def _slot_airtime_s(self) -> float:
        # Every slot carries one counter frame (two-byte counter payload)
        # on every channel at once; its PPDU lasts chips / 2 Mchip/s.
        from repro.dot15d4.frames import Address, build_data
        from repro.phy.ieee802154 import Ppdu

        address = Address(pan_id=0x1234, address=0x0042)
        frame = build_data(
            source=address, destination=address, payload=b"\x10\x00\x00",
            sequence_number=0, ack_request=False,
        )
        return len(Ppdu(frame.to_bytes()).to_chips()) / 2e6

    def setup(self) -> None:
        from repro.experiments.table3 import run_table3_wideband

        _clear_caches()
        run_table3_wideband(frames=1, seed=self.seed, mode="spectral", workers=1)
        self.airtime_s = self._slot_airtime_s()

    def run_pass(self) -> PassResult:
        from repro.experiments.table3 import run_table3_wideband

        problems: List[str] = []
        outputs: Dict[str, List[int]] = {}
        unit_ms: List[float] = []
        pairs: Dict[Tuple[str, str], Tuple[int, int]] = {}
        start = time.perf_counter()
        for chip in CHIPS:
            for primitive in PRIMITIVES:
                t0 = time.perf_counter()
                result = run_table3_wideband(
                    frames=self.SLOTS,
                    chips=(chip,),
                    primitives=(primitive,),
                    seed=self.seed,
                    mode="spectral",
                    workers=1,
                )
                unit_ms.append((time.perf_counter() - t0) * 1e3)
                cells = result.cells[(chip, primitive)]
                valid = total = 0
                for channel in CHANNELS:
                    key = f"{chip}/{primitive}/{channel}"
                    counts = _tally(cells[channel], self.SLOTS, key, problems)
                    outputs[key] = counts
                    valid += counts[0]
                    total += sum(counts)
                pairs[(chip, primitive)] = (valid, total)
        wall = time.perf_counter() - start
        frames = sum(sum(c) for c in outputs.values())
        return PassResult(
            wall_s=wall,
            frames=frames,
            sim_s=self.SLOTS * len(pairs) * self.airtime_s,
            valid=sum(c[0] for c in outputs.values()),
            valid_of=frames,
            unit_ms=unit_ms,
            outputs={"slots": self.SLOTS, "cells": outputs},
            problems=problems,
            valid_by_pair=pairs,
        )


class FleetDepletion(Workload):
    """``run_fleet_campaign`` on a 208-node, 16-PAN, one-channel fleet."""

    name = "fleet-depletion"
    NODES = 208
    PANS = 16
    #: Simulated seconds per campaign.  The flood keeps every receiver
    #: decoding, so a simulated second costs about a host minute; a short
    #: burst keeps several campaigns inside one run.
    DURATION_S = 0.015
    #: Sensor report interval, compressed with the campaign so that the
    #: sensors whose phase falls inside the burst report once, contending
    #: with the flood (CSMA backoffs, ACK timeouts and retries).
    REPORT_INTERVAL_S = 0.01

    def setup(self) -> None:
        from repro.experiments.fleet import run_fleet_campaign
        from repro.zigbee.fleet import make_fleet

        _clear_caches()
        self.spec = make_fleet(
            num_nodes=self.NODES,
            num_pans=self.PANS,
            seed=self.seed,
            channel_reuse=True,
            report_interval_s=self.REPORT_INTERVAL_S,
        )
        run_fleet_campaign(
            self.spec, duration_s=0.002, attack=True, medium_kind="sharded",
            workers=1,
        )

    def run_pass(self) -> PassResult:
        from repro.experiments.fleet import run_fleet_campaign

        problems: List[str] = []
        start = time.perf_counter()
        result = run_fleet_campaign(
            self.spec,
            duration_s=self.DURATION_S,
            attack=True,
            medium_kind="sharded",
            workers=1,
        )
        wall = time.perf_counter() - start
        if not result.ledger_balanced:
            problems.append(f"delivery ledger unbalanced: {result.ledger}")
        transmissions = result.ledger.get("medium.transmissions", 0)
        delivered = result.ledger.get("medium.deliveries.delivered", 0)
        if transmissions == 0 or delivered == 0:
            problems.append("campaign put nothing on the air")
        return PassResult(
            wall_s=wall,
            frames=transmissions,
            sim_s=self.DURATION_S,
            valid=result.totals("received"),
            valid_of=max(delivered, 1),
            unit_ms=[wall * 1e3],
            outputs={
                "duration_s": self.DURATION_S,
                "nodes_digest": digest([r.to_dict() for r in result.reports]),
                "ledger": result.ledger,
                "flood_frames": result.flood_frames,
            },
            problems=problems,
        )


WORKLOADS = {
    cls.name: cls for cls in (Table3Grid, FleetDepletion, WidebandSweep)
}
