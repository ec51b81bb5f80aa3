#!/usr/bin/env python3
"""End-to-end benchmark of the WazaBee simulator.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload table3-grid --seed 0 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all --seconds 20

One run is one fresh process per workload.  It sets up (imports, cache
warm-up, builds, pre-generation), measures for ``--seconds`` with no
wrapper installed, checks every output, and prints every end-to-end
metric with its unit.  ``--trace 1`` instead measures the same work
untraced and then traced, and prints the per-layer metrics.  The last
line of standard output is one JSON object; the exit code is 0 only when
every output check passed.  See ``README.md`` for the definitions.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOAD_NAMES = ("table3-grid", "fleet-depletion", "wideband-sweep", "serve-fanout")

#: name -> unit, for the end-to-end metrics, in print order.
END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "1/s",
    "sim_s_per_s": "s/s",
    "valid_rate": "fraction",
    "lat_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Boundaries that must fire at least once in a workload's traced run.
EXPECTED_LAYERS = {
    "table3-grid": (
        "experiments.setup", "core.tx", "dsp.gfsk.modulate",
        "dsp.oqpsk.modulate", "radio.medium.transmit", "radio.medium.compose",
        "radio.scheduler", "radio.transceiver.rx", "dsp.filters.apply_filter",
        "dsp.gfsk.discriminate", "dsp.gfsk.find_sync",
        "dsp.oqpsk.receive_chips", "phy.ieee802154.despread", "core.rx.decode",
    ),
    "fleet-depletion": (
        "core.tx", "dsp.gfsk.modulate", "dsp.oqpsk.modulate",
        "radio.medium.transmit", "radio.medium.compose", "radio.scheduler",
        "radio.transceiver.rx", "dsp.filters.apply_filter",
        "dsp.gfsk.discriminate", "dsp.gfsk.find_sync",
        "dsp.oqpsk.receive_chips", "phy.ieee802154.despread",
    ),
    "wideband-sweep": (
        "dsp.gfsk.modulate", "dsp.oqpsk.modulate", "chips.wideband.capture",
        "phy.batch.decode",
    ),
    "serve-fanout": ("serve.publish", "serve.offer", "serve.codec", "serve.sink"),
}

#: Minimum passes per measured phase of a closed-loop workload.
MIN_PASSES = 3
#: Set-ups per run: this process plus fresh set-up-only processes.
SETUP_REPS = 3


def _import_program() -> None:
    """Import the program from this checkout's ``src``, or exit 2."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        sys.stderr.write(f"cannot import the program from {SRC}: {exc}\n")
        raise SystemExit(2)
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"repro imported from {repro.__file__}, not {SRC}\n")
        raise SystemExit(2)


def _load_reference(name: str):
    try:
        with open(REFERENCE) as fh:
            return json.load(fh).get(name)
    except FileNotFoundError:
        return None


def _make(name: str, seed: int):
    from serve_load import ServeFanout
    from workloads import WORKLOADS

    cls = ServeFanout if name == ServeFanout.name else WORKLOADS[name]
    return cls(seed, _load_reference(name))


def _setup_seconds(args, own_setup_s: float) -> float:
    """Median set-up time over this process and fresh set-up-only ones."""
    samples = [own_setup_s]
    for _ in range(SETUP_REPS - 1):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def _assert_untraced() -> None:
    from tracing import installed_wrappers

    left = installed_wrappers()
    if left:
        raise RuntimeError(f"wrappers installed during a timed run: {left}")


# -- closed-loop workloads ---------------------------------------------------

def _passes(workload, seconds: float, count: int = 0):
    """Run checked passes for *seconds* (at least MIN_PASSES), or *count*.

    A pass that raises ends the run; it counts as one failed frame.
    """
    from workloads import CALIBRATION_REF_S, PassResult, calibrate

    results = []
    start = time.perf_counter()
    while True:
        try:
            before = calibrate()
            result = workload.run_pass()
            result.host_scale = 2 * CALIBRATION_REF_S / (before + calibrate())
        except Exception as exc:  # reported as a failed check, not a crash
            results.append(PassResult(
                wall_s=float("nan"), frames=1, sim_s=0.0, valid=0, valid_of=1,
                unit_ms=[], outputs=None,
                problems=[f"pass raised {type(exc).__name__}: {exc}"],
            ))
            return results
        workload.check(result)
        results.append(result)
        if count:
            if len(results) >= count:
                return results
        elif len(results) >= MIN_PASSES and time.perf_counter() - start >= seconds:
            return results


def _closed_loop_failures(results):
    attempted = sum(r.frames for r in results)
    failed = sum(r.frames for r in results if r.problems)
    problems = sorted({p for r in results for p in r.problems})
    return attempted, failed, problems


def _closed_loop_metrics(results):
    from workloads import percentile

    results = [r for r in results if r.outputs is not None]
    if not results:
        raise SystemExit("no pass completed; no metric to report")
    # Host times scaled to the reference host (see workloads.calibrate).
    walls = [r.wall_s * r.host_scale for r in results]
    units = [u * r.host_scale for r in results for u in r.unit_ms]
    first = results[0]
    # Every workload prints every metric; on a closed loop some of them
    # only mirror another (see "The mirrors" in README.md).
    metrics = {
        "frames_per_s": statistics.median(r.frames / w for r, w in zip(results, walls)),
        "sim_s_per_s": statistics.median(r.sim_s / w for r, w in zip(results, walls)),
        "valid_rate": first.valid / first.valid_of,
        "lat_p50_ms": percentile(units, 50),
    }
    raw = statistics.median(r.frames / r.wall_s for r in results)
    notes = [
        f"passes: {len(results)}, latency samples: {len(units)}",
        f"host speed: scale {min(r.host_scale for r in results):.3f}.."
        f"{max(r.host_scale for r in results):.3f} over the passes; "
        f"frames_per_s unscaled: {raw:.6g} 1/s",
    ]
    from workloads import PAPER_VALID_RATE

    for (chip, primitive), (valid, total) in sorted(first.valid_by_pair.items()):
        notes.append(
            f"valid_rate {primitive}/{chip}: {valid / total:.4f} "
            f"(paper Table III: {PAPER_VALID_RATE[(chip, primitive)]:.5f}; "
            f"{total} frames per pass, a shape check only)"
        )
    return metrics, notes


def _closed_loop_traced(workload, seconds: float):
    from tracing import Tracer

    # Untraced and traced passes alternate, so that a drift in host
    # speed does not read as tracing overhead.
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        _assert_untraced()
        plain += _passes(workload, 0, count=1)
        tracer.install()
        try:
            traced += _passes(workload, 0, count=1)
        finally:
            tracer.remove()
        if plain[-1].outputs is None or traced[-1].outputs is None:
            break  # a pass raised
    _assert_untraced()
    n = len(traced)
    wall = sum(r.wall_s for r in traced)
    counters = tracer.counters()
    main = threading.main_thread().ident
    layer = tracer.layer_metrics(wall, per=n)
    transmissions = counters.get("medium.transmissions", 0)
    captures = tracer.calls["radio.transceiver.rx"]
    hits = sum(p.hits for p in tracer.pools)
    misses = sum(p.misses for p in tracer.pools)
    layer.update({
        "scheduler.events": counters.get("scheduler.events", 0) / n,
        "medium.deliveries_per_tx": (
            counters.get("medium.deliveries.delivered", 0) / transmissions
            if transmissions else 0.0
        ),
        "mac.retries": counters.get("mac.retries", 0) / n,
        "mac.csma_backoffs": counters.get("mac.csma_backoffs", 0) / n,
        "mac.ack_timeouts": counters.get("mac.ack_timeouts", 0) / n,
        "rx.sync_yield": (
            (counters.get("rx.decode.ok", 0) + tracer.decoded_802154) / captures
            if captures else 0.0
        ),
        "pool.buffer.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "unattributed_ms": (wall - tracer.thread_self_seconds(main)) * 1e3 / n,
        "trace.overhead_frac": (
            statistics.median(r.wall_s * r.host_scale for r in traced)
            / statistics.median(r.wall_s * r.host_scale for r in plain) - 1.0
        ),
    })
    return plain + traced, layer, tracer


# -- output -------------------------------------------------------------------

def _per_layer_names():
    from tracing import LAYERS

    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_ms", "share")]
    names += [
        "scheduler.events", "medium.deliveries_per_tx", "mac.retries",
        "mac.csma_backoffs", "mac.ack_timeouts", "rx.sync_yield",
        "pool.buffer.hit_rate", "serve.ring.max_fill", "serve.shed.trace",
        "serve.shed.corrupt", "serve.shed.downsample", "serve.gen_late_p99_ms",
        "serve.lat_p99_ms", "serve.max_rate_rps", "unattributed_ms",
        "trace.overhead_frac",
    ]
    return names


_FRACTIONS = (".share", "_frac", "_yield", "_rate", "max_fill")


def _per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(_FRACTIONS):
        return "fraction"
    if name.endswith("_per_tx"):
        return "ratio"
    if name.endswith("_rps"):
        return "1/s"
    return "count"


def _emit(correct, attempted, failed, metrics, units, notes, problems):
    for line in notes:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"failed_frac: {failed / max(attempted, 1):.6f} ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))


def _run_one(args) -> int:
    _import_program()
    workload = _make(args.workload, args.seed)
    workload.setup()
    own_setup_s = time.perf_counter() - _T0
    from workloads import CALIBRATION_REF_S, calibrate

    # At reference host speed, as the timed phase (see workloads.calibrate).
    own_setup_s *= 2 * CALIBRATION_REF_S / (calibrate() + calibrate())
    if args.setup_only:
        if hasattr(workload, "close"):
            workload.close()
        print(json.dumps({"setup_s": own_setup_s}))
        return 0
    if args.record_reference:
        return _record_reference(workload)
    setup_s = _setup_seconds(args, own_setup_s)
    serve = args.workload == "serve-fanout"
    import serve_load

    if args.trace:
        from tracing import LAYERS

        if serve:
            _assert_untraced()
            layer, tracer, attempted, failed, problems, notes = (
                serve_load.measure_traced(workload, args.seconds)
            )
            _assert_untraced()
        else:
            results, layer, tracer = _closed_loop_traced(workload, args.seconds)
            attempted, failed, problems = _closed_loop_failures(results)
            notes = [f"passes: {len(results) // 2} untraced + {len(results) // 2} traced"]
        silent = [
            name for name in EXPECTED_LAYERS[args.workload] if tracer.calls[name] == 0
        ]
        if silent:
            problems.append(f"boundaries that never fired: {silent}")
        names = _per_layer_names()
        metrics = {name: float(layer.get(name, 0.0)) for name in names}
        units = {name: _per_layer_unit(name) for name in names}
        notes.append("layers by self time: " + ", ".join(
            f"{name} {layer[name + '.share']:.1%}"
            for name in sorted(LAYERS, key=lambda n: -layer[n + ".share"])
            if layer[name + ".calls"]
        ))
    else:
        if serve:
            _assert_untraced()
            metrics, notes, attempted, failed, problems = serve_load.measure(
                workload, args.seconds
            )
        else:
            _assert_untraced()
            results = _passes(workload, args.seconds)
            metrics, notes = _closed_loop_metrics(results)
            attempted, failed, problems = _closed_loop_failures(results)
        if "peak_rss_mb" not in metrics:
            from workloads import peak_rss_mb

            metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["setup_s"] = setup_s
        metrics = {name: metrics[name] for name in END_TO_END}
        units = END_TO_END
    correct = not problems and failed == 0
    _emit(correct, attempted, failed, metrics, units, notes, problems)
    return 0 if correct else 1


def _record_reference(workload) -> int:
    """Store this workload's outputs at the default seed in reference.json."""
    from workloads import DEFAULT_SEED

    if workload.seed != DEFAULT_SEED:
        sys.stderr.write(f"references are recorded at --seed {DEFAULT_SEED}\n")
        return 2
    if hasattr(workload, "pool_digest"):
        entry = {"pool_digest": workload.pool_digest}
        workload.close()
    else:
        entry = workload.run_pass().outputs
    try:
        with open(REFERENCE) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    data[workload.name] = entry
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def _run_all(args) -> int:
    """Each workload in a fresh process; print every metric per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        print(f"== {name} (exit {out.returncode})")
        print(out.stdout.rstrip())
        if out.returncode:
            print(out.stderr.rstrip())
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="write this workload's --seed 0 outputs to reference.json")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
