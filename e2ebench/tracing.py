"""Per-layer spans and counts, recorded from outside the program.

A boundary names a function of the program (or of this benchmark) and
the layer it belongs to.  :meth:`Tracer.install` replaces every boundary
with a wrapper that pushes a span on a per-thread stack; a layer's self
time is the duration of its spans minus the time their child spans
cover.  :meth:`Tracer.remove` puts the original objects back.  The
program itself is never edited: wrappers exist only while a traced pass
runs, and :func:`installed_wrappers` lets the untraced passes assert
that none is left.

Module-level names that another module imported by value (for example
``apply_filter`` inside ``repro.radio.transceiver``) are wrapped where
they are *bound*, which is where calls look them up.
"""

from __future__ import annotations

import contextlib
import importlib
import threading
import time
from typing import Dict, List, Tuple

#: (layer, module, attribute path).  "Class.method" boundaries also wrap
#: overriding definitions in subclasses.
SPAN_BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("experiments.setup", "repro.experiments.table3", "build_testbed"),
    ("core.tx", "repro.core.tx", "WazaBeeTransmitter.transmit_psdu"),
    ("dsp.gfsk.modulate", "repro.dsp.gfsk", "FskModulator.modulate"),
    ("dsp.oqpsk.modulate", "repro.dsp.oqpsk", "OqpskModulator.modulate"),
    ("radio.medium.transmit", "repro.radio.medium", "RfMedium.transmit"),
    ("radio.medium.compose", "repro.radio.medium", "RfMedium.compose_capture"),
    ("radio.scheduler", "repro.radio.scheduler", "Scheduler.run_until"),
    ("radio.transceiver.rx", "repro.radio.transceiver", "Transceiver.handle_capture"),
    ("dsp.filters.apply_filter", "repro.radio.transceiver", "apply_filter"),
    ("dsp.gfsk.discriminate", "repro.dsp.gfsk", "FskDemodulator.discriminate"),
    ("dsp.gfsk.find_sync", "repro.dsp.gfsk", "FskDemodulator.find_sync"),
    ("dsp.oqpsk.receive_chips", "repro.dsp.oqpsk", "OqpskDemodulator.receive_chips"),
    ("phy.ieee802154.despread", "repro.chips.rzusbstick", "despread_chips"),
    ("core.rx.decode", "repro.core.rx", "decode_payload_bits"),
    ("chips.wideband.capture", "repro.chips.wideband", "WidebandFrontEnd.capture_slots"),
    ("phy.batch.decode", "repro.phy.batch", "decode_chip_frames"),
    ("serve.publish", "repro.serve.server", "SnifferServer.publish"),
    ("serve.offer", "repro.serve.session", "SubscriberSession.offer"),
    ("serve.codec", "repro.serve.session", "encode_jsonl"),
    ("serve.codec", "repro.serve.session", "encode_pcap_record"),
    ("serve.sink", "serve_load", "PipeSink.write"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(b[0] for b in SPAN_BOUNDARIES))

#: Boundaries that count instead of timing: 802.15.4 decode successes
#: (the numerator of ``rx.sync_yield``), capture-buffer pools, and the
#: scoped metric registries the experiment runners create per cell or
#: campaign (their program counters feed the scheduler/medium/MAC counts).
_COUNT_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.chips.rzusbstick", "Dot15d4Radio._decode_capture"),
    ("repro.radio.shard", "BufferPool.__init__"),
    ("repro.experiments.table3", "scoped"),
    ("repro.experiments.fleet", "scoped"),
)

_MARK = "__e2ebench_wrapper__"


def _resolve(module: str, path: str):
    """(owner object, attribute name) for a boundary."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _owners(owner, attr: str) -> List:
    """*owner* plus every subclass that overrides *attr* itself."""
    if not isinstance(owner, type):
        return [owner]
    found, stack = [owner], list(owner.__subclasses__())
    while stack:
        cls = stack.pop()
        if attr in vars(cls):
            found.append(cls)
        stack.extend(cls.__subclasses__())
    return found


def _targets():
    """Every (owner, attribute) a tracer replaces."""
    for _layer, module, path in SPAN_BOUNDARIES:
        owner, attr = _resolve(module, path)
        for target in _owners(owner, attr):
            yield target, attr
    for module, path in _COUNT_TARGETS:
        yield _resolve(module, path)


def installed_wrappers() -> List[str]:
    """Names of boundaries that currently hold a benchmark wrapper."""
    return sorted(
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in _targets()
        if getattr(vars(owner).get(attr), _MARK, False)
    )


class _Frame:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer: str, start: float):
        self.layer = layer
        self.start = start
        self.child = 0.0


class Tracer:
    """Span stacks per thread, plus the counts gathered at boundaries."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        #: layer -> thread ident -> self seconds
        self.self_s: Dict[str, Dict[int, float]] = {layer: {} for layer in LAYERS}
        self.decoded_802154 = 0
        self.registries: List = []
        self.pools: List = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, layer: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].layer == layer:
                # A subclass override calling up to its base: one span.
                return fn(*args, **kwargs)
            frame = _Frame(layer, time.perf_counter())
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame.start
                if stack:
                    stack[-1].child += duration
                ident = threading.get_ident()
                with tracer._lock:
                    tracer.calls[layer] += 1
                    per_thread = tracer.self_s[layer]
                    per_thread[ident] = (
                        per_thread.get(ident, 0.0) + duration - frame.child
                    )

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- counting boundaries -------------------------------------------------
    def _count_decodes(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result is not None:
                tracer.decoded_802154 += 1
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _keep_pools(self, fn):
        tracer = self

        def wrapper(pool, *args, **kwargs):
            fn(pool, *args, **kwargs)
            tracer.pools.append(pool)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _keep_registries(self, fn):
        tracer = self

        @contextlib.contextmanager
        def wrapper(*args, **kwargs):
            with fn(*args, **kwargs) as (bus, registry):
                tracer.registries.append(registry)
                yield bus, registry

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- install / remove ----------------------------------------------------
    def _replace(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, module, path in SPAN_BOUNDARIES:
            owner, attr = _resolve(module, path)
            for target in _owners(owner, attr):
                self._replace(
                    target, attr, self._span_wrapper(layer, vars(target)[attr])
                )
        makers = {
            "Dot15d4Radio._decode_capture": self._count_decodes,
            "BufferPool.__init__": self._keep_pools,
            "scoped": self._keep_registries,
        }
        for module, path in _COUNT_TARGETS:
            owner, attr = _resolve(module, path)
            self._replace(owner, attr, makers[path](vars(owner)[attr]))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------
    def self_seconds(self, layer: str, thread: int = None) -> float:
        per_thread = self.self_s[layer]
        if thread is None:
            return sum(per_thread.values())
        return per_thread.get(thread, 0.0)

    def layer_metrics(self, wall_s: float, per: int = 1) -> Dict[str, float]:
        """``<layer>.calls`` and ``.self_ms`` per *per* units of work, and
        ``.share``: self time over *wall_s*."""
        metrics = {}
        for layer in LAYERS:
            self_s = self.self_seconds(layer)
            metrics[f"{layer}.calls"] = self.calls[layer] / per
            metrics[f"{layer}.self_ms"] = self_s * 1e3 / per
            metrics[f"{layer}.share"] = self_s / wall_s
        return metrics

    def thread_self_seconds(self, thread: int) -> float:
        return sum(self.self_seconds(layer, thread) for layer in LAYERS)

    def counters(self) -> Dict[str, int]:
        """Program counters summed over every scoped registry seen."""
        total: Dict[str, int] = {}
        for registry in self.registries:
            for name, value in registry.counter_values().items():
                total[name] = total.get(name, 0) + value
        return total
