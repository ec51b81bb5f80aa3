"""The ``serve-fanout`` workload: an open-loop load on ``SnifferServer``.

Set-up pre-generates a pool of records (frames plus forwarded trace
records) with the program's own ``SimWorldSource``, then attaches two
subscribers to a ``SnifferServer``: one JSONL and one PCAP, both under
the ``block`` policy, so every frame must arrive.  Each subscriber writes
into one end of a socket pair; one reader thread drains both other ends
and timestamps every chunk it receives.

One generator thread publishes records on a fixed schedule (record *i*
of a rung is due at ``t0 + i / rate``), whether or not the server keeps
up.  A record's latency runs from its *due* time to the arrival of its
last byte at the reader, so a stall also delays every record queued
behind it.  The generator samples the rings' fill fraction on every
tick, to tell a steady queue from a growing backlog.  Latencies are
scaled to the reference host speed by the kernel timed around each
repetition (``workloads.calibrate``).

The timed phase runs a fixed ladder of rates whose first rung is the
moderate rate (the latency figures), each rung several times, with the
repetitions of all rungs interleaved.  A rung's p50 and p99 pool the
frame latencies of all its repetitions.  A rung meets the limit when
that p99 is at most :data:`P99_LIMIT_MS` and none of its repetitions
lost a frame or grew a backlog.  ``max_rate_rps`` is the rate at which
the ladder's p99 reaches the limit, interpolated linearly between the
highest rung that meets it and the rung above it (from the origin when
the first rung already misses; the top rung when every rung meets).

The p99 figures, ``max_rate_rps`` with them, are reported as per-layer
metrics, which carry no bound: on a virtual host that loses its CPU for
about 1% of the time in millisecond slices, a p99 sits right at that
share and jumps between runs.  The gated latency is the p50.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import selectors
import socket
import statistics
import threading
import time
from typing import Dict, List, Optional, Tuple

from workloads import (
    CALIBRATION_REF_S,
    DEFAULT_SEED,
    calibrate,
    digest,
    peak_rss_mb,
    percentile,
)

#: Frames the world produces for the record pool (about 6 records each).
POOL_FRAMES = 120
#: The rate ladder, records per second; its first rung is the moderate
#: rate, well below saturation.  On one CPU of a 2-core x86 virtual host
#: the pooled p99 frame latency read 0.2-9 ms up to 16k and 8-15 ms at
#: 32k, by the host's load; the p50 at 2k was 0.18 ms.
LADDER_RPS = (2000, 4000, 8000, 16000, 32000)
MODERATE_RPS = LADDER_RPS[0]
#: Repetitions per rung, interleaved across rungs, so that a slow spell
#: of the host falls on several rungs rather than on all of one.
MODERATE_REPS = 5
LADDER_REPS = 3
#: Moderate-rate repetitions of the traced run.
TRACED_REPS = 2
#: Share of ``--seconds`` given to one repetition at the moderate rate
#: and at each faster rung; the fewest records a repetition publishes
#: (3000 records carry about 1000 frame-latency samples).
MODERATE_SHARE = 0.1
RUNG_SHARE = 0.04
MIN_RECORDS = 3000
#: p99 frame-latency limit a rung must meet.
P99_LIMIT_MS = 6.0
#: A repetition's backlog grows when the rings' mean fill over its last
#: quarter exceeds that over its first quarter by more than this.
BACKLOG_GROWTH = 0.10
#: World seconds a frame record stands for (the world advances 2 ms per
#: frame, ``ServeConfig``).
SIM_S_PER_FRAME = 2e-3

_PCAP_GLOBAL = 24
_PCAP_RECORD = 16


class PipeSink:
    """The benchmark's subscriber sink: one end of a socket pair."""

    def __init__(self, conn: socket.socket):
        self.conn = conn

    def write(self, data: bytes) -> None:
        self.conn.sendall(data)

    def close(self) -> None:
        try:
            self.conn.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        self.conn.close()


class Reader(threading.Thread):
    """Drains every subscriber socket, timestamping each chunk."""

    def __init__(self, conns: Dict[str, socket.socket]):
        super().__init__(name="e2ebench-reader", daemon=True)
        self.conns = conns
        #: name -> received chunks.  Kept as a list and joined after the
        #: run: growing one buffer would copy it, holding the interpreter
        #: lock for longer as the stream grows.
        self.parts: Dict[str, List[bytes]] = {name: [] for name in conns}
        #: name -> [(cumulative end offset, arrival time)]
        self.chunks: Dict[str, List[Tuple[int, float]]] = {
            name: [] for name in conns
        }
        self.received = {name: 0 for name in conns}
        self._ends: Dict[str, List[int]] = {}

    def run(self) -> None:
        selector = selectors.DefaultSelector()
        for name, conn in self.conns.items():
            conn.setblocking(False)
            selector.register(conn, selectors.EVENT_READ, name)
        open_streams = len(self.conns)
        while open_streams:
            for key, _mask in selector.select(timeout=1.0):
                name = key.data
                try:
                    chunk = key.fileobj.recv(1 << 16)
                except BlockingIOError:
                    continue
                now = time.perf_counter()
                if not chunk:
                    selector.unregister(key.fileobj)
                    key.fileobj.close()
                    open_streams -= 1
                    continue
                self.parts[name].append(chunk)
                self.received[name] += len(chunk)
                self.chunks[name].append((self.received[name], now))
        selector.close()

    def data(self, name: str) -> bytes:
        return b"".join(self.parts[name])

    def arrival(self, name: str, end_offset: int) -> float:
        """Arrival time of the byte just before *end_offset* (call after
        the streams closed)."""
        if name not in self._ends:
            self._ends[name] = [c[0] for c in self.chunks[name]]
        return self.chunks[name][bisect.bisect_left(self._ends[name], end_offset)][1]


class ServeFanout:
    """Set-up, open-loop timed phase and output checks for serve-fanout."""

    name = "serve-fanout"

    def __init__(self, seed: int, reference: Optional[Dict]):
        self.seed = seed
        self.reference = reference if seed == DEFAULT_SEED else None
        self.problems: List[str] = []
        self.server = None
        self.reader: Optional[Reader] = None
        self.published: List[Dict] = []
        #: Due time and repetition of each published frame, in order.
        self.frame_due: List[float] = []
        self.frame_rung: List[int] = []

    # -- set-up --------------------------------------------------------------
    def setup(self) -> None:
        from repro.dsp.gfsk import clear_waveform_caches
        from repro.obs import scoped
        from repro.serve import ServeConfig, SimWorldSource, SnifferServer

        # Every thread of the run on one CPU, set before any starts (new
        # threads inherit it).  On a virtual host a hand-off to a thread
        # on another, idle CPU waits for the host to wake that vCPU: from
        # tens of microseconds to milliseconds, by the host's load.  On
        # one CPU the pipeline's hand-offs are plain context switches.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        clear_waveform_caches()
        pool: List[Dict] = []
        world = ServeConfig(seed=self.seed, frames=POOL_FRAMES, forward_trace=True)
        with scoped():
            SimWorldSource(world, pool.append).run(threading.Event())
        self.pool = pool
        self.pool_digest = digest(pool)
        self.server = SnifferServer(
            ServeConfig(
                seed=self.seed,
                default_policy="block",
                # No heartbeats between rungs: the streams carry only
                # what the generator published.
                heartbeat_s=3600.0,
            )
        )
        conns = {}
        self.sessions = {}
        for fmt in ("jsonl", "pcap"):
            ours, theirs = socket.socketpair()
            conns[fmt] = ours
            self.sessions[fmt] = self.server.attach_session(
                PipeSink(theirs), fmt=fmt, policy="block", name=fmt
            )
        self.reader = Reader(conns)
        self.reader.start()

    def close(self) -> Dict:
        ledger = self.server.shutdown(drain=True)
        self.reader.join(timeout=30.0)
        if self.reader.is_alive():
            self.problems.append("reader did not see both streams close")
        return ledger

    # -- the open loop -------------------------------------------------------
    def _records(self, count: int) -> List[Dict]:
        start = len(self.published)
        records = []
        for k in range(count):
            record = dict(self.pool[(start + k) % len(self.pool)])
            record["seq"] = start + k
            records.append(record)
        self.published.extend(records)
        return records

    def _frames_lost(self) -> int:
        shed = self.server.ladder.shed
        frames = shed.get("corrupt", 0) + shed.get("downsample", 0)
        return frames + sum(s.frames_dropped for s in self.sessions.values())

    def run_rung(self, rung: int, rate: float, count: int) -> Dict:
        """Publish *count* records at *rate* from one generator thread."""
        kernel_before = calibrate()
        records = self._records(count)
        # The benchmark's own bookkeeping (every published record, every
        # received chunk) would otherwise make each full collection walk
        # it while records are in flight.
        gc.collect()
        gc.freeze()
        rings = [s.ring for s in self.sessions.values()]
        late: List[float] = []
        fills: List[float] = []
        busy = [0.0]
        before = self._frames_lost()

        def generate() -> None:
            try:
                publish_all()
            except Exception as exc:  # reported as a failed check
                self.problems.append(f"publish raised {type(exc).__name__}: {exc}")

        def publish_all() -> None:
            publish = self.server.publish
            t0 = time.perf_counter() + 0.005
            for i, record in enumerate(records):
                if record["type"] == "frame":
                    self.frame_due.append(t0 + i / rate)
                    self.frame_rung.append(rung)
            for i, record in enumerate(records):
                due = t0 + i / rate
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                    now = time.perf_counter()
                late.append(now - due)
                publish(record)
                busy[0] += time.perf_counter() - now
                fills.append(max(ring.fill_fraction for ring in rings))

        generator = threading.Thread(target=generate, name="e2ebench-generator")
        start = time.perf_counter()
        generator.start()
        generator.join()
        wall = time.perf_counter() - start
        self._settle(rings)
        host_scale = 2 * CALIBRATION_REF_S / (kernel_before + calibrate())
        quarter = max(1, len(fills) // 4)
        growth = (
            statistics.fmean(fills[-quarter:]) - statistics.fmean(fills[:quarter])
            if fills else 0.0
        )
        frames = [r for r in records if r["type"] == "frame"]
        return {
            "rung": rung,
            "rate": rate,
            "records": count,
            "frames": len(frames),
            "valid_frames": sum(1 for r in frames if r["fcs_ok"]),
            "generator": generator.ident,
            "wall_s": wall,
            "busy_s": busy[0],
            "gen_late_ms": [x * 1e3 for x in late],
            "max_fill": max(fills, default=0.0),
            "growth": growth,
            "lost": self._frames_lost() - before,
            "host_scale": host_scale,
        }

    def _settle(self, rings) -> None:
        """Wait until both rings are empty and the writers went quiet."""
        deadline = time.perf_counter() + 30.0
        while time.perf_counter() < deadline:
            if all(len(ring) == 0 for ring in rings):
                sent = dict(self.reader.received)
                time.sleep(0.02)
                if sent == self.reader.received and all(
                    len(ring) == 0 for ring in rings
                ):
                    return
            else:
                time.sleep(0.005)
        self.problems.append("subscriber rings did not drain between rungs")

    # -- checks and latency --------------------------------------------------
    def finish(self) -> Tuple[Dict[int, List[float]], List[str]]:
        """Shut down, check every output, and return the frame latencies
        (ms) per repetition with the list of failed checks."""
        for name, session in self.sessions.items():
            # Under ``block`` only a stall closes a session before shutdown.
            if session.closed:
                self.problems.append(
                    f"{name}: session closed during the run ({session.close_reason})"
                )
        ledger = self.close()
        published_frames = [r for r in self.published if r["type"] == "frame"]
        by_seq = {r["seq"]: r for r in self.published}
        frame_index = {r["seq"]: i for i, r in enumerate(published_frames)}
        latency: Dict[int, List[float]] = {}

        for name, entry in ledger["sessions"].items():
            total = entry["delivered"] + entry["dropped"] + entry["shed"]
            if total != ledger["produced"]:
                self.problems.append(
                    f"{name}: delivered+dropped+shed={total} != "
                    f"produced={ledger['produced']}"
                )
        if ledger["produced"] != len(published_frames):
            self.problems.append("server produced count != frames published")

        # JSONL: every data record is a published one, in order.
        data = self.reader.data("jsonl")
        offset, last_seq = 0, -1
        for line in data.split(b"\n")[:-1]:
            offset += len(line) + 1
            record = json.loads(line)
            if record["type"] not in ("frame", "trace"):
                continue
            seq = record["seq"]
            if seq <= last_seq or by_seq.get(seq) != record:
                self.problems.append(f"jsonl record {seq} out of order or altered")
                break
            last_seq = seq
            if record["type"] == "frame":
                i = frame_index[seq]
                arrival = self.reader.arrival("jsonl", offset)
                latency.setdefault(self.frame_rung[i], []).append(
                    (arrival - self.frame_due[i]) * 1e3
                )

        # PCAP: parses strictly; packets are the published frames in order.
        from repro.errors import SpoolError
        from repro.serve import parse_pcap

        data = self.reader.data("pcap")
        try:
            _header, packets = parse_pcap(data)
        except SpoolError as exc:
            self.problems.append(f"pcap stream does not parse: {exc}")
            packets = []
        offset, cursor = _PCAP_GLOBAL, 0
        for packet in packets:
            offset += _PCAP_RECORD + len(packet["psdu"])
            while (
                cursor < len(published_frames)
                and bytes.fromhex(published_frames[cursor]["psdu"]) != packet["psdu"]
            ):
                cursor += 1
            if cursor == len(published_frames):
                self.problems.append("pcap packet not among published frames")
                break
            arrival = self.reader.arrival("pcap", offset)
            latency.setdefault(self.frame_rung[cursor], []).append(
                (arrival - self.frame_due[cursor]) * 1e3
            )
            cursor += 1

        if self.seed == DEFAULT_SEED and self.reference != {
            "pool_digest": self.pool_digest
        }:
            self.problems.append("record pool differs from reference.json")
        return latency, self.problems


def _records_for(share: float, rate: float, seconds: float) -> int:
    return max(MIN_RECORDS, int(rate * seconds * share))


def _undelivered(rep: Dict, samples: List[float]) -> int:
    return rep["frames"] * 2 - len(samples)


def _rung_stats(reps: List[Dict], latency: Dict[int, List[float]]) -> Dict:
    """Pooled latency of one rung's repetitions, at reference host speed,
    and whether the rung held up."""
    samples = [
        x * rep["host_scale"] for rep in reps for x in latency.get(rep["rung"], [])
    ]
    healthy = all(
        rep["lost"] == 0
        and _undelivered(rep, latency.get(rep["rung"], [])) == 0
        and rep["growth"] <= BACKLOG_GROWTH
        for rep in reps
    )
    return {
        "samples": len(samples),
        "p50": percentile(samples, 50) if samples else float("inf"),
        "p99": percentile(samples, 99) if samples else float("inf"),
        "healthy": healthy,
    }


def crossing_rate(rungs: Dict[float, Dict]) -> float:
    """Rate at which the ladder's p99 reaches the limit (see module doc)."""
    low_rate, low_p99 = 0.0, 0.0
    for rate in LADDER_RPS:
        p99 = rungs[rate]["p99"]
        if not rungs[rate]["healthy"]:
            return low_rate
        if p99 > P99_LIMIT_MS:
            share = (P99_LIMIT_MS - low_p99) / (p99 - low_p99)
            return low_rate + share * (rate - low_rate)
        low_rate, low_p99 = float(rate), p99
    return low_rate


def _moderate_ledger(moderate: List[Dict], latency, problems) -> Tuple[int, int]:
    """attempted and failed: the moderate-rate frames, both subscribers.

    The faster rungs probe for the limit: a frame they shed only marks
    their rung as missing it.  A stall that closes a session, at any
    rung, is a failed check and fails every attempted frame.
    """
    attempted = 2 * sum(rep["frames"] for rep in moderate)
    if problems:
        return attempted, attempted
    return attempted, sum(
        _undelivered(rep, latency.get(rep["rung"], [])) for rep in moderate
    )


def _ladder(workload: ServeFanout, seconds: float) -> List[Dict]:
    """Interleaved repetitions of every ladder rung, untraced."""
    plan = [(MODERATE_RPS, MODERATE_REPS, MODERATE_SHARE)] + [
        (rate, LADDER_REPS, RUNG_SHARE) for rate in LADDER_RPS[1:]
    ]
    reps: List[Dict] = []
    for round_ in range(max(n for _rate, n, _share in plan)):
        for rate, count, share in plan:
            if round_ < count:
                reps.append(
                    workload.run_rung(
                        len(reps), rate, _records_for(share, rate, seconds)
                    )
                )
    return reps


def _rungs(reps: List[Dict], latency) -> Tuple[List[Dict], Dict[float, Dict]]:
    """The moderate-rate repetitions, and every rung's pooled statistics."""
    by_rate: Dict[float, List[Dict]] = {}
    for rep in reps:
        by_rate.setdefault(rep["rate"], []).append(rep)
    rungs = {rate: _rung_stats(group, latency) for rate, group in by_rate.items()}
    return by_rate[MODERATE_RPS], rungs


def _tails(moderate: List[Dict], rungs: Dict[float, Dict]) -> Dict[str, float]:
    """The figures the host's own stalls decide (not gated; README.md)."""
    return {
        "serve.lat_p99_ms": rungs[MODERATE_RPS]["p99"],
        "serve.max_rate_rps": crossing_rate(rungs),
        "serve.gen_late_p99_ms": percentile(
            [x for rep in moderate for x in rep["gen_late_ms"]], 99
        ),
    }


def measure(workload: ServeFanout, seconds: float):
    """The untraced run: the gated metrics come from the moderate rate."""
    reps = _ladder(workload, seconds)
    # Before the checks, whose parsing of both streams is the
    # benchmark's own memory, not the server's.
    rss = peak_rss_mb()
    latency, problems = workload.finish()
    moderate, rungs = _rungs(reps, latency)
    delivered = sum(rep["frames"] * 2 for rep in moderate) - sum(
        _undelivered(rep, latency.get(rep["rung"], [])) for rep in moderate
    )
    wall = sum(rep["wall_s"] for rep in moderate)
    metrics = {
        # Fixed by the generator's schedule: they move only when frames
        # are lost (see README.md).
        "frames_per_s": delivered / wall,
        "sim_s_per_s": delivered / 2 * SIM_S_PER_FRAME / wall,
        "valid_rate": sum(rep["valid_frames"] for rep in moderate)
        / sum(rep["frames"] for rep in moderate),
        "lat_p50_ms": rungs[MODERATE_RPS]["p50"],
        "peak_rss_mb": rss,
    }
    tails = _tails(moderate, rungs)
    notes = [
        f"moderate rate {MODERATE_RPS} records/s: {len(moderate)} repetitions, "
        f"{rungs[MODERATE_RPS]['samples']} frame-latency samples pooled "
        "(both subscribers)",
        f"ladder (p99 limit {P99_LIMIT_MS} ms; pooled p99 ms per rung, "
        "* = a repetition lost frames or grew a backlog): "
        + "; ".join(
            f"{rate}: {st['p99']:.3f}{'' if st['healthy'] else '*'}"
            for rate, st in rungs.items()
        ),
        "not gated (per-layer metrics of --trace 1): "
        f"lat_p99_ms: {tails['serve.lat_p99_ms']:.6g} ms, "
        f"max_rate_rps: {tails['serve.max_rate_rps']:.6g} 1/s, "
        f"gen_late_p99_ms: {tails['serve.gen_late_p99_ms']:.6g} ms",
    ]
    attempted, failed = _moderate_ledger(moderate, latency, problems)
    return metrics, notes, attempted, failed, problems


def measure_traced(workload: ServeFanout, seconds: float):
    """The untraced ladder, then moderate-rate repetitions traced."""
    from tracing import Tracer

    plain = _ladder(workload, seconds)
    count = _records_for(MODERATE_SHARE, MODERATE_RPS, seconds)
    tracer = Tracer()
    tracer.install()
    try:
        traced = [
            workload.run_rung(len(plain) + i, MODERATE_RPS, count)
            for i in range(TRACED_REPS)
        ]
    finally:
        tracer.remove()
    latency, problems = workload.finish()
    moderate, rungs = _rungs(plain, latency)
    wall = sum(rep["wall_s"] for rep in traced)
    busy = sum(rep["busy_s"] for rep in traced)
    # Thread idents are reused once a thread ends: count each one once.
    generator_self = sum(
        tracer.thread_self_seconds(ident)
        for ident in {rep["generator"] for rep in traced}
    )
    layer = tracer.layer_metrics(wall)
    shed = workload.server.ladder.shed
    layer.update(_tails(moderate, rungs))
    layer.update({
        "serve.ring.max_fill": max(rep["max_fill"] for rep in traced),
        "serve.shed.trace": float(shed.get("trace", 0)),
        "serve.shed.corrupt": float(shed.get("corrupt", 0)),
        "serve.shed.downsample": float(shed.get("downsample", 0)),
        # The generator's time inside publish, less the spans it covers.
        "unattributed_ms": (busy - generator_self) * 1e3,
        # Generator busy time per repetition, traced over untraced.
        "trace.overhead_frac": (busy / len(traced))
        / statistics.fmean(rep["busy_s"] for rep in moderate) - 1.0,
    })
    attempted, failed = _moderate_ledger(moderate + traced, latency, problems)
    notes = [
        f"untraced ladder, then {len(traced)} traced repetitions of {count} records"
    ]
    return layer, tracer, attempted, failed, problems, notes
