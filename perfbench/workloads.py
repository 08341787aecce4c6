"""The benchmark workloads.

A workload is built from its seed (``WORKLOADS[name](seed, seconds)``),
builds its network several times to time set-up, then measures one
network for the run's seconds.  ``run(seconds, traced)`` returns
``(correct, attempted, failed, metrics)`` where *metrics* maps a name
to ``(value, unit)``: the end-to-end metrics when *traced* is false,
the per-layer metrics when it is true.  A traced run raises on the
first wrong result.  See ``NOTES.md`` for why each workload exists and
what it bypasses.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import SFILTER_WAITFORALL, TFILTER_SUM, Network
from repro.core.packet import Packet
from repro.core.protocol import FIRST_APP_TAG
from repro.gateway import BackendResponder, Gateway, GatewayError, Overloaded, Query
from repro.sim.logp import LogGPParams
from repro.topology import balanced_tree

import layers
import proctree

WAIT = 10.0  # seconds one operation may take before it counts as timed out
TRACE_WAVES = 300  # traced closed-loop waves (bounds the span rings)
TRACED_WINDOW_OPS = 100  # a traced run names no percentile from its windows
CHUNK_BYTES = 256 << 10
PAYLOAD_ELEMENTS = (2 << 20) // 8  # 2 MiB of float64

Metrics = Dict[str, Tuple[float, str]]

#: Every per-layer metric a workload computes, with its unit.  All
#: workloads print all of them; NOTES.md says which are measured off a
#: workload's own path.  ``run.py`` adds the ``host.*`` rows.
PER_LAYER_UNITS = {
    "packet.encode_us": "us",
    "packet.decode_us": "us",
    "batching.encode_batch_us": "us",
    "batching.decode_batch_us": "us",
    "batching.packets_per_message": "count",
    "chunking.split_us": "us",
    "chunking.reassemble_us": "us",
    "chunking.chunks_retransmitted": "count",
    "transport.wakeups_per_op": "count",
    "transport.writes_per_op": "count",
    "transport.bytes_out_per_op": "B",
    "transport.send_queue_full": "count",
    "commnode.recv_ms": "ms",
    "commnode.demux_ms": "ms",
    "commnode.rebatch_ms": "ms",
    "commnode.send_ms": "ms",
    "commnode.zero_copy_frac": "frac",
    "sync.wait_ms": "ms",
    "transform.filter_ms": "ms",
    "transform.sum_MBps": "MB/s",
    "routing.links_for_group_us": "us",
    "frontend.send_us": "us",
    "frontend.recv_ms": "ms",
    "backend.recv_us": "us",
    "backend.send_us": "us",
    "gateway.submit_us": "us",
    "gateway.coalesced_frac": "frac",
    "gateway.waves_per_query": "count",
    "gateway.shed_frac": "frac",
    "gateway.shed_queue_frac": "frac",
    "gateway.shed_backpressure_frac": "frac",
    "gateway.generator_late_ms": "ms",
    "sched.vol_ctx_per_op": "count",
    "sched.invol_ctx_per_op": "count",
    "sched.frontend_cpu_ms_per_op": "ms",
    "sched.commnode_cpu_ms_per_op": "ms",
    "trace.wave_ms": "ms",
    "unattributed_ms": "ms",
    "trace.overhead_frac": "frac",
    "model.o_us": "us",
    "model.g_us": "us",
    "model.L_us": "us",
    "model.G_ns": "ns",
    "model.logp_predicted_ms": "ms",
    "model.logp_error_frac": "frac",
}


def layer_metrics(rows: Dict[str, float]) -> Metrics:
    """Attach units to a workload's per-layer rows, checking the set."""
    if set(rows) != set(PER_LAYER_UNITS):
        missing = sorted(set(PER_LAYER_UNITS) - set(rows))
        extra = sorted(set(rows) - set(PER_LAYER_UNITS))
        raise RuntimeError(f"per-layer rows: missing {missing}, unexpected {extra}")
    return {name: (rows[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; failed operations enter as ``inf``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile, refused unless ten samples lie beyond it."""
    if len(values) * (100 - q) / 100 < 10:
        raise RuntimeError(
            f"{len(values)} operations are too few to name a p{q:g}; run longer"
        )
    return percentile(values, q)


def require(ok: int, attempted: int, what: str) -> None:
    if ok != attempted:
        raise RuntimeError(f"{what}: {attempted - ok} of {attempted} operations failed")


def median_setup(build, teardown, baseline_threads: int, repeats: int):
    """Build *repeats* times; return (median seconds, last build).

    Every build but the last is torn down and checked for leftover
    processes and threads; the caller measures on the last one.
    """
    times = []
    for i in range(repeats):
        t0 = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - t0)
        if i < repeats - 1:
            teardown(built)
            proctree.check_clean(baseline_threads)
            # A torn-down network is a large reference cycle; left to
            # the collector it makes later gen-2 passes slower and
            # would tax the measured network with its predecessors.
            gc.collect()
    return statistics.median(times), built


def cpu_between(before: proctree.TreeSample, after: proctree.TreeSample) -> float:
    """CPU seconds the whole process tree spent between two samples."""
    return (after.cpu_self + after.cpu_children) - (
        before.cpu_self + before.cpu_children
    )


def end_to_end(
    setup_s: float, p50_s: float, tail_s: float, goodput: float,
    cpu_s_per_op: float, last: proctree.TreeSample, ok: int, attempted: int,
) -> Metrics:
    return {
        "setup_s": (setup_s, "s"),
        "p50_ms": (p50_s * 1e3, "ms"),
        "tail_ms": (tail_s * 1e3, "ms"),
        "goodput_per_s": (goodput, "1/s"),
        "cpu_ms_per_op": (cpu_s_per_op * 1e3, "ms"),
        "peak_rss_mb": (last.rss_peak_mb, "MB"),
        "threads": (last.threads, "count"),
        "ok_frac": (ok / attempted, "frac"),
    }


@dataclass
class Window:
    """Consecutive closed-loop waves and the tree samples around them."""

    latencies: List[float]
    ok: int
    before: proctree.TreeSample
    after: proctree.TreeSample


def closed_loop(wave, seconds: float, window_ops: int) -> Tuple[List[Window], int, int]:
    """Run ``wave()`` back to back for *seconds* in windows of *window_ops*.

    Returns ``(windows, ok, attempted)``.  The process tree is sampled
    at every window boundary; waves after the last full window are
    counted but not kept.  On a slow host the loop runs on, up to three
    times *seconds* in all, until one window is full.  A failed or
    timed-out wave enters its window's latencies as ``inf``, closes
    that window and ends the loop: the tree's wave state is unknown
    after a failure.
    """
    windows: List[Window] = []
    ok = attempted = window_ok = 0
    latencies: List[float] = []
    before = proctree.sample()
    start = time.perf_counter()
    end, cap = start + seconds, start + 3 * seconds
    while (now := time.perf_counter()) < end or (not windows and now < cap):
        attempted += 1
        t0 = time.perf_counter()
        try:
            good = wave()
        except TimeoutError:
            good = False
        latencies.append(time.perf_counter() - t0 if good else math.inf)
        ok += good
        window_ok += good
        if good and len(latencies) < window_ops:
            continue
        windows.append(Window(latencies, window_ok, before, proctree.sample()))
        if not good:
            break
        latencies, window_ok, before = [], 0, windows[-1].after
    if not windows:
        raise RuntimeError(
            f"{attempted} waves in {3 * seconds:g} s fill no window of "
            f"{window_ops}; run longer"
        )
    return windows, ok, attempted


def closed_loop_metrics(
    setup_s: float, windows: Sequence[Window], tail_q: float, ok: int, attempted: int
) -> Metrics:
    """End-to-end metrics of a closed loop: medians over its windows.

    A window's tail needs ten waves beyond it, unless the run failed:
    then what was measured is printed beside ``correct: false``.
    """
    pct = tail if ok == attempted else percentile

    def median_of(f):
        return statistics.median(f(w) for w in windows)

    return end_to_end(
        setup_s,
        median_of(lambda w: percentile(w.latencies, 50)),
        median_of(lambda w: pct(w.latencies, tail_q)),
        median_of(lambda w: w.ok / (w.after.wall - w.before.wall)),
        median_of(lambda w: cpu_between(w.before, w.after) / max(w.ok, 1)),
        windows[-1].after, ok, attempted,
    )


def sched_rows(before, after, cpu_nodes: float, ops: int) -> Dict[str, float]:
    """Context switches and the front-end / comm-node CPU split per op."""
    cpu_total = cpu_between(before, after)
    return {
        "sched.vol_ctx_per_op": (after.vol_ctx - before.vol_ctx) / ops,
        "sched.invol_ctx_per_op": (after.invol_ctx - before.invol_ctx) / ops,
        "sched.frontend_cpu_ms_per_op": (cpu_total - cpu_nodes) / ops * 1e3,
        "sched.commnode_cpu_ms_per_op": cpu_nodes / ops * 1e3,
    }


def window_sched_rows(windows: Sequence[Window]) -> Dict[str, float]:
    """``sched_rows`` over closed-loop windows on comm-node processes."""
    before, after = windows[0].before, windows[-1].after
    return sched_rows(
        before, after, after.cpu_children - before.cpu_children,
        sum(w.ok for w in windows),
    )


def payload_chunk_rows(payload: np.ndarray) -> Dict[str, float]:
    """``chunking.*`` call times on one 2 MiB array payload."""
    packet = Packet(1, FIRST_APP_TAG, "%alf", (payload,), origin_rank=0)
    return layers.chunk_rows(packet, CHUNK_BYTES)


def seeded_payload(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(PAYLOAD_ELEMENTS)


def gateway_probe(net, backends, n_backends: int, count: int = 100):
    """Gateway rows for a closed-loop workload, whose waves bypass it.

    Serves *count* distinct one-int SUM queries, one at a time, through
    a started gateway over the workload's own network while a
    ``BackendResponder`` answers on *backends*; every result is
    checked.  Returns ``(attempted, rows)``: the median submit time and
    the gateway's own coalescing, wave and shedding counters.
    """
    responder = BackendResponder(backends)
    gw = Gateway(net, cache_ttl=0.0)
    try:
        session = gw.session("probe")
        stats0 = gw.stats()
        submits, shed = [], 0
        for v in range(1, count + 1):
            t0 = time.perf_counter()
            try:
                ticket = session.submit(Query("%d", (v,), transform=TFILTER_SUM))
                submits.append(time.perf_counter() - t0)
                got = ticket.result(timeout=WAIT)
            except Overloaded:
                shed += 1
                continue
            if got != (n_backends * v,):
                raise RuntimeError(f"gateway probe: query {v} returned {got}")
        stats1 = gw.stats()
    finally:
        gw.close()
        responder.stop()

    def delta(key):
        return stats1.get(key, 0) - stats0.get(key, 0)

    queries = max(delta("queries"), 1)
    return count, {
        "gateway.submit_us": statistics.median(submits) * 1e6,
        "gateway.coalesced_frac": delta("coalesced") / queries,
        "gateway.waves_per_query": delta("waves") / queries,
        "gateway.shed_frac": shed / count,
        "gateway.shed_queue_frac": delta("shed_queue") / count,
        "gateway.shed_backpressure_frac": delta("shed_backpressure") / count,
    }


def tree_children_ranks(spec) -> List[List[int]]:
    """Ranks behind each child of the root, in topology leaf order."""
    rank_of = {leaf.key: i for i, leaf in enumerate(spec.leaves())}

    def under(node):
        if node.is_leaf:
            return [rank_of[node.key]]
        return [r for c in node.children for r in under(c)]

    return [under(c) for c in spec.root.children]


def quarters(n: int) -> List[frozenset]:
    step = n // 4
    return [frozenset(range(i * step, (i + 1) * step)) for i in range(4)]


def closed_loop_attribution(spans, windows) -> Dict[str, float]:
    """Per-operation exclusive split of the traced windows, in seconds."""
    split = layers.attribute(spans, windows)
    return {k: v / len(windows) for k, v in split.items()}


def traced_loop(wave, seconds: float) -> int:
    """Run ``wave()`` for at most TRACE_WAVES waves or *seconds*.

    Returns the number of waves; raises on the first wrong one.
    """
    attempted = 0
    end = time.perf_counter() + seconds
    while attempted < TRACE_WAVES and time.perf_counter() < end:
        attempted += 1
        require(wave(), 1, "traced wave")
    return attempted


def inter_op_gap_ms(windows) -> float:
    """p99 gap between one operation's end and the next one's start.

    The closed-loop analogue of open-loop generator lateness: time the
    benchmark itself spends between operations.
    """
    gaps = [b[0] - a[1] for a, b in zip(windows, windows[1:])]
    return percentile(gaps, 99) * 1e3 if gaps else 0.0


# ---------------------------------------------------------------------------
# small_reduce: 64 back-ends, one-int SUM waves


class SmallReduce:
    """One-int SUM waves over 64 back-ends on comm-node processes.

    Runtime spans exist only on the colocated runtime, so a
    ``--trace 1`` run takes its Figure-3 split from a colocated twin of
    the same tree (``build(colocate=True)``).
    """

    FANOUT, DEPTH = 4, 3
    SETUP_REPEATS = 5
    WINDOW_OPS = 1000  # the fewest waves that name a p99

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = balanced_tree(self.FANOUT, self.DEPTH)
        self.n = len(self.spec.leaves())
        rng = random.Random(seed)
        self.probes = [rng.randrange(1, 1 << 30) for _ in range(4096)]
        self.i = 0

    def next_probe(self) -> int:
        self.i += 1
        return self.probes[self.i % len(self.probes)]

    def build(self, colocate: bool = False):
        if colocate:
            net = Network(self.spec, colocate=True)
        else:
            net = Network(self.spec, transport="process")
        try:
            stream = net.new_stream(
                net.get_broadcast_communicator(),
                transform=TFILTER_SUM, sync=SFILTER_WAITFORALL,
            )
            backends = [be for _, be in sorted(net.backends.items())]
            if not self.wave(stream, backends, self.next_probe()):
                raise RuntimeError("small_reduce: first wave was wrong")
        except BaseException:
            net.shutdown()
            raise
        return net, stream, backends

    def wave(self, stream, backends, probe) -> bool:
        stream.send("%d", probe)
        ok = True
        for be in backends:
            packet, bstream = be.recv(timeout=WAIT)
            ok &= packet.values == (probe,)
            bstream.send("%d", 1)
        (total,) = stream.recv_values(timeout=WAIT)
        return ok and total == self.n

    def traced_wave(self, stream, backends, probe, spans, windows) -> bool:
        clock = time.monotonic
        t_start = clock()
        stream.send("%d", probe)
        spans.append(("frontend.send", t_start, clock()))
        ok = True
        recv_class = "backend.recv_first"
        for be in backends:
            t0 = clock()
            packet, bstream = be.recv(timeout=WAIT)
            spans.append((recv_class, t0, clock()))
            recv_class = "backend.recv"
            ok &= packet.values == (probe,)
            t0 = clock()
            bstream.send("%d", 1)
            spans.append(("backend.send", t0, clock()))
        t0 = clock()
        (total,) = stream.recv_values(timeout=WAIT)
        t_end = clock()
        spans.append(("frontend.recv", t0, t_end))
        windows.append((t_start, t_end))
        return ok and total == self.n

    def run(self, seconds: float, traced: bool):
        baseline = threading.active_count()
        setup_s, (net, stream, backends) = median_setup(
            self.build, lambda b: b[0].shutdown(), baseline, self.SETUP_REPEATS
        )
        try:
            stats0 = net.stats()
            windows, ok, attempted = closed_loop(
                lambda: self.wave(stream, backends, self.next_probe()),
                seconds / 2 if traced else seconds,
                TRACED_WINDOW_OPS if traced else self.WINDOW_OPS,
            )
            stats1 = net.stats()
            if not traced:
                return ok == attempted, attempted, attempted - ok, closed_loop_metrics(
                    setup_s, windows, 99, ok, attempted
                )
            require(ok, attempted, "small_reduce")
            rows = layers.counter_rows(
                layers.counter_delta(
                    layers.counter_sums(stats0), layers.counter_sums(stats1)
                ),
                ok,
            )
            rows.update(window_sched_rows(windows))
            probed, gateway_rows = gateway_probe(net, backends, self.n)
            rows.update(gateway_rows)
        finally:
            net.shutdown()
            proctree.check_clean(baseline)
        net, stream, backends = self.build(colocate=True)
        try:
            pre, pre_ok, pre_attempted = closed_loop(
                lambda: self.wave(stream, backends, self.next_probe()),
                seconds / 4, TRACED_WINDOW_OPS,
            )
            require(pre_ok, pre_attempted, "small_reduce twin")
            untraced = [x for w in pre for x in w.latencies]
            twin_attempted, twin_rows = self.layer_rows(
                net, stream, backends, seconds / 4, untraced
            )
        finally:
            net.shutdown()
            proctree.check_clean(baseline)
        rows.update(twin_rows)
        rows.update(payload_chunk_rows(seeded_payload(self.seed)))
        attempted += probed + pre_attempted + twin_attempted
        return True, attempted, 0, layer_metrics(rows)

    def layer_rows(self, net, stream, backends, seconds, untraced):
        """Figure-3 split, module rows and LogGP fit from traced waves.

        *net* must be colocated (the runtime that exports spans);
        *untraced* are wave latencies on it without tracing.  Returns
        ``(attempted, rows)`` for the traced waves.
        """
        spans: List[Tuple[str, float, float]] = []
        windows: List[Tuple[float, float]] = []
        stats0 = layers.counter_sums(net.stats())
        origin = time.monotonic()
        net.start_trace(maxlen=400_000)
        attempted = traced_loop(
            lambda: self.traced_wave(stream, backends, self.next_probe(), spans, windows),
            seconds,
        )
        net.stop_trace()
        runtime, sync_wait = layers.runtime_spans(net.trace_chrome_json(), origin)
        split = closed_loop_attribution(runtime + spans, windows)
        traced = [b - a for a, b in windows]
        wave_s = sum(traced) / len(traced)
        n = self.n
        # Work per call.  Send calls never block.  Every receive but a
        # wave's first finds its packet queued, so their mean is the
        # receive work; the first receive's excess over it, and the
        # part of Stream.recv the front-end core spent outside its own
        # spans, is waiting and stays unattributed.
        recv_call = split["backend.recv"] / (n - 1)
        work = {
            "commnode.recv": split["commnode.recv"],
            "commnode.demux": split["commnode.demux"],
            "commnode.rebatch": split["commnode.rebatch"],
            "commnode.send": split["commnode.send"],
            "transform.filter": split["transform.filter"],
            "frontend.send": split["frontend.send"] + split["frontend.flush"],
            "frontend.recv": split["frontend.pump"],
            "backend.recv": recv_call * n,
            "backend.send": split["backend.send"],
        }
        unattributed = wave_s - sum(work.values())
        if unattributed < 0:
            raise RuntimeError(
                f"layer work {sum(work.values()) * 1e3:.4f} ms exceeds the traced "
                f"wave's {wave_s * 1e3:.4f} ms: a layer is counted twice"
            )
        reply = Packet(stream.stream_id, FIRST_APP_TAG, "%d", (1,), origin_rank=0)
        rows = layers.codec_rows(reply, self.FANOUT)
        sum_mbps = layers.sum_filter_mbps(net.registry, TFILTER_SUM, [reply] * self.FANOUT)
        nodes = layers.counter_delta(stats0, layers.counter_sums(net.stats()))["nodes"]
        params = layers.fit_loggp(
            work["commnode.recv"] + work["commnode.demux"],
            work["commnode.rebatch"] + work["commnode.send"],
            nodes.get("messages_in", 0) / attempted,
            nodes.get("messages_sent", 0) / attempted,
            unattributed, 2 * self.DEPTH, 1.0 / (sum_mbps * 1e6),
        )
        rows.update({
            "commnode.recv_ms": work["commnode.recv"] * 1e3,
            "commnode.demux_ms": work["commnode.demux"] * 1e3,
            "commnode.rebatch_ms": work["commnode.rebatch"] * 1e3,
            "commnode.send_ms": work["commnode.send"] * 1e3,
            "sync.wait_ms": sync_wait / len(windows) * 1e3,
            "transform.filter_ms": work["transform.filter"] * 1e3,
            "transform.sum_MBps": sum_mbps,
            "routing.links_for_group_us": layers.routing_us(
                tree_children_ranks(self.spec), quarters(n)
            ),
            "frontend.send_us": work["frontend.send"] * 1e6,
            "frontend.recv_ms": work["frontend.recv"] * 1e3,
            "backend.recv_us": recv_call * 1e6,
            "backend.send_us": work["backend.send"] / n * 1e6,
            "gateway.generator_late_ms": inter_op_gap_ms(windows),
            "trace.wave_ms": wave_s * 1e3,
            "unattributed_ms": unattributed * 1e3,
            "trace.overhead_frac": percentile(traced, 50)
            / percentile(untraced, 50) - 1.0,
        })
        rows.update(layers.logp_rows(
            self.spec, params, wave_s, len(reply.to_bytes()), roundtrip=True
        ))
        return attempted, rows


# ---------------------------------------------------------------------------
# large_reduce: 8 back-ends x 2 MiB float64 arrays over comm-node processes


class LargeReduce:
    FANOUT, DEPTH = 2, 3
    SETUP_REPEATS = 5
    WINDOW_OPS = 100  # the fewest waves that name a p90
    PAYLOADS = 4  # rotated per wave so a stale result cannot pass

    def __init__(self, seed: int):
        self.spec = balanced_tree(self.FANOUT, self.DEPTH)
        self.n = len(self.spec.leaves())
        rng = np.random.default_rng(seed)
        self.payloads = [rng.standard_normal(PAYLOAD_ELEMENTS) for _ in range(self.PAYLOADS)]
        # Summing n equal addends pairwise up a binary tree doubles the
        # value at every level, which is exact in binary floating point.
        self.expected = [p * self.n for p in self.payloads]
        self.i = 0

    def next_index(self) -> int:
        self.i += 1
        return self.i % self.PAYLOADS

    def build(self, colocate: bool = False):
        if colocate:
            net = Network(self.spec, colocate=True)
        else:
            net = Network(self.spec, transport="process")
        try:
            stream = net.new_stream(
                net.get_broadcast_communicator(),
                transform=TFILTER_SUM, sync=SFILTER_WAITFORALL,
                chunk_bytes=CHUNK_BYTES,
            )
            backends = [be for _, be in sorted(net.backends.items())]
            deadline = time.monotonic() + WAIT
            while not all(stream.stream_id in be.stream_ids for be in backends):
                if time.monotonic() > deadline:
                    raise RuntimeError("large_reduce: stream never reached back-ends")
                for be in backends:
                    be.poll()
                time.sleep(0.0005)
            bstreams = [be.get_stream(stream.stream_id) for be in backends]
            if not self.wave(stream, bstreams, self.next_index()):
                raise RuntimeError("large_reduce: first wave was wrong")
        except BaseException:
            net.shutdown()
            raise
        return net, stream, backends, bstreams

    def wave(self, stream, bstreams, k) -> bool:
        for bs in bstreams:
            bs.send("%alf", self.payloads[k])
        got = stream.recv(timeout=WAIT).array(0)
        return bool(np.array_equal(got, self.expected[k]))

    def traced_wave(self, stream, bstreams, k, spans, windows) -> bool:
        clock = time.monotonic
        t_start = clock()
        for bs in bstreams:
            t0 = clock()
            bs.send("%alf", self.payloads[k])
            spans.append(("backend.send", t0, clock()))
        t0 = clock()
        got = stream.recv(timeout=WAIT).array(0)
        t_end = clock()
        spans.append(("frontend.recv", t0, t_end))
        windows.append((t_start, t_end))
        return bool(np.array_equal(got, self.expected[k]))

    def run(self, seconds: float, traced: bool):
        baseline = threading.active_count()
        setup_s, (net, stream, backends, bstreams) = median_setup(
            self.build, lambda b: b[0].shutdown(), baseline, self.SETUP_REPEATS
        )
        try:
            stats0 = net.stats()
            windows, ok, attempted = closed_loop(
                lambda: self.wave(stream, bstreams, self.next_index()),
                seconds / 2 if traced else seconds,
                TRACED_WINDOW_OPS if traced else self.WINDOW_OPS,
            )
            stats1 = net.stats()
            if not traced:
                return ok == attempted, attempted, attempted - ok, closed_loop_metrics(
                    setup_s, windows, 90, ok, attempted
                )
            require(ok, attempted, "large_reduce")
            untraced = [x for w in windows for x in w.latencies]
            delta = layers.counter_delta(
                layers.counter_sums(stats0), layers.counter_sums(stats1)
            )
            traced_attempted, rows = self.layer_rows(
                net, stream, bstreams, seconds / 2, untraced, stats0, stats1, delta, ok
            )
            probed, gateway_rows = gateway_probe(net, backends, self.n)
            rows.update(gateway_rows)
            rows.update(self.frontend_probe(stream, backends, rows))
            rows.update(window_sched_rows(windows))
        finally:
            net.shutdown()
            proctree.check_clean(baseline)
        twin_attempted, twin_rows = self.twin_rows(baseline)
        rows.update(twin_rows)
        attempted += traced_attempted + probed + twin_attempted
        return True, attempted, 0, layer_metrics(rows)

    def layer_rows(self, net, stream, bstreams, seconds, untraced,
                   stats0, stats1, delta, ops):
        """Rows of the process run: call spans, counters, module costs."""
        spans: List[Tuple[str, float, float]] = []
        windows: List[Tuple[float, float]] = []
        attempted = traced_loop(
            lambda: self.traced_wave(stream, bstreams, self.next_index(), spans, windows),
            seconds,
        )
        split = closed_loop_attribution(spans, windows)
        traced = [b - a for a, b in windows]
        wave_s = sum(traced) / len(traced)
        wait_sum0, wait_n0 = layers.fe_histogram_mean(stats0, "wave_latency_seconds")
        wait_sum1, wait_n1 = layers.fe_histogram_mean(stats1, "wave_latency_seconds")
        reply = Packet(stream.stream_id, FIRST_APP_TAG, "%alf", (self.payloads[0],), origin_rank=0)
        rows = layers.codec_rows(reply, self.FANOUT)
        rows.update(payload_chunk_rows(self.payloads[0]))
        rows.update(layers.counter_rows(delta, ops))
        rows.update({
            "sync.wait_ms": (wait_sum1 - wait_sum0) / max(wait_n1 - wait_n0, 1) * 1e3,
            "transform.sum_MBps": layers.sum_filter_mbps(
                net.registry, TFILTER_SUM, [reply] * self.FANOUT
            ),
            "routing.links_for_group_us": layers.routing_us(
                tree_children_ranks(self.spec), quarters(self.n)
            ),
            "frontend.recv_ms": split["frontend.recv"] * 1e3,
            "backend.send_us": split["backend.send"] / self.n * 1e6,
            "gateway.generator_late_ms": inter_op_gap_ms(windows),
            "trace.wave_ms": wave_s * 1e3,
            "unattributed_ms": split["unattributed"] * 1e3,
            "trace.overhead_frac": percentile(traced, 50)
            / percentile(untraced, 50) - 1.0,
        })
        return attempted, rows

    def frontend_probe(self, stream, backends, rows, n: int = 200) -> Dict[str, float]:
        """Time ``Stream.send`` and ``BackEnd.recv`` of one-int packets,
        and fit the TCP LogGP parameters from them and *rows*.

        The large wave issues no downstream packet, so these calls are
        off its path; they are timed here on the same TCP tree, one
        broadcast at a time.  The first back-end's receive blocks until
        the packet crossed the tree; the last one's finds it already
        there, so it times the receive work.
        """
        sends, arrivals, recvs = [], [], []
        for v in range(n):
            t0 = time.perf_counter()
            stream.send("%d", v)
            t1 = time.perf_counter()
            packet, _ = backends[0].recv(timeout=WAIT)
            t2 = time.perf_counter()
            late, _ = backends[-1].recv(timeout=WAIT)
            recvs.append(time.perf_counter() - t2)
            sends.append(t1 - t0)
            arrivals.append(t2 - t0)
            if packet.values != (v,) or late.values != (v,):
                raise RuntimeError("large_reduce: probe packet out of order")
        send_s = statistics.median(sends)
        nbytes = PAYLOAD_ELEMENTS * 8
        per_byte = (
            (rows["packet.encode_us"] + rows["packet.decode_us"]
             + rows["chunking.split_us"] + rows["chunking.reassemble_us"])
            * 1e-6 / nbytes
            + 1.0 / (rows["transform.sum_MBps"] * 1e6)
        )
        # Process-transport nodes export no spans.  ``o`` and ``g`` take
        # the front-end's send cost per child message on TCP, ``L`` what
        # a one-int broadcast's per-hop time leaves over after ``2o``.
        o = send_s / self.FANOUT
        params = LogGPParams(
            L=statistics.median(arrivals) / self.DEPTH - 2 * o, o=o, g=o, G=per_byte
        )
        out = {
            "frontend.send_us": send_s * 1e6,
            "backend.recv_us": statistics.median(recvs) * 1e6,
        }
        out.update(layers.logp_rows(
            self.spec, params, rows["trace.wave_ms"] / 1e3, nbytes, roundtrip=False
        ))
        return out

    def twin_rows(self, baseline: int):
        """Comm-node stage times from a traced colocated twin of the tree.

        ``trace=True`` is refused on the process transport, so the
        Figure-3 stages of the same reduction (same tree, payloads and
        chunking, inproc links instead of TCP) are read here.
        """
        net, stream, _, bstreams = self.build(colocate=True)
        waves = 20
        try:
            spans, windows = [], []
            origin = time.monotonic()
            net.start_trace(maxlen=400_000)
            for _ in range(waves):
                if not self.traced_wave(stream, bstreams, self.next_index(),
                                        spans, windows):
                    raise RuntimeError("large_reduce: twin wave was wrong")
            net.stop_trace()
            runtime, _ = layers.runtime_spans(net.trace_chrome_json(), origin)
        finally:
            net.shutdown()
            proctree.check_clean(baseline)
        split = closed_loop_attribution(runtime + spans, windows)
        return waves, {
            "commnode.recv_ms": split["commnode.recv"] * 1e3,
            "commnode.demux_ms": split["commnode.demux"] * 1e3,
            "commnode.rebatch_ms": split["commnode.rebatch"] * 1e3,
            "commnode.send_ms": split["commnode.send"] * 1e3,
            "transform.filter_ms": split["transform.filter"] * 1e3,
        }


# ---------------------------------------------------------------------------
# gateway_mix: open-loop query mix through the serving gateway


@dataclass
class Served:
    """What one pass over a gateway schedule measured."""

    outcome: Dict[str, int]
    light: List[Tuple[float, float]]  # (due offset, latency); inf where not served
    light_traced: List[float]
    light_untraced: List[float]
    over_done: List[float]  # when correct overload queries completed, in-phase
    lateness: List[float]
    submit_s: List[float]
    before: proctree.TreeSample
    after: proctree.TreeSample
    stats0: dict
    stats1: dict
    gw0: dict
    gw1: dict
    trace: Dict[str, float] = field(default_factory=dict)


class GatewayMix:
    """Open-loop serving mix through ``repro.gateway`` on comm-node processes.

    A ``--trace 1`` run serves the schedule with the responder's
    back-end calls timed, then serves a third as long a schedule from
    the same seed on a traced colocated twin of the tree for the
    Figure-3 split.
    """

    FANOUT, DEPTH = 4, 3
    SETUP_REPEATS = 5
    SESSIONS = 256
    # The light rate is a small share of what the overload phase serves
    # (370-555 q/s measured), so the light phase shows service time, not
    # queueing, even on a loaded host.
    LIGHT_QPS, OVERLOAD_QPS = 30.0, 800.0
    LIGHT_SHARE = 2 / 3  # of the run's seconds; the rest is overload
    # Latency and goodput are medians over windows of each phase, so a
    # burst of host load in one window does not move them.  A 30 s run
    # has about 150 queries per light window (a p90 needs 100).
    LIGHT_WINDOWS, OVERLOAD_WINDOWS = 4, 10
    DRAIN_S = 10.0  # after the schedule ends, before a query counts as timed out

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.spec = balanced_tree(self.FANOUT, self.DEPTH)
        self.n = len(self.spec.leaves())
        self.groups = quarters(self.n)
        self.light_s = seconds * self.LIGHT_SHARE
        self.over_s = seconds - self.light_s
        rng = random.Random(seed)
        n_max = int((self.LIGHT_QPS * self.light_s + self.OVERLOAD_QPS * self.over_s) * 2) + 64
        distinct = iter(rng.sample(range(1, 1 << 24), n_max))
        self.hot = Query("%d", ((1 << 24) + rng.randrange(1 << 20),), transform=TFILTER_SUM)
        # (due offset, phase, session index, query, expected sum)
        self.ops: List[list] = []
        for phase, rate, start, dur in (
            ("light", self.LIGHT_QPS, 0.0, self.light_s),
            ("overload", self.OVERLOAD_QPS, self.light_s, self.over_s),
        ):
            # Arrivals are evenly spaced: the seed picks the queries,
            # not the gaps, so the light phase's tail shows service
            # time rather than the bunching of one seed's arrivals.
            t = 0.5 / rate
            while t < dur:
                r = rng.random()
                if r < 0.6:
                    v = next(distinct)
                    q, want = Query("%d", (v,), transform=TFILTER_SUM), self.n * v
                elif r < 0.8:
                    v, g = next(distinct), self.groups[rng.randrange(4)]
                    q, want = Query("%d", (v,), transform=TFILTER_SUM, ranks=g), len(g) * v
                else:
                    q, want = self.hot, self.n * self.hot.values[0]
                self.ops.append([start + t, phase, rng.randrange(self.SESSIONS), q, want])
                t += 1.0 / rate
        self.warmup = [Query("%d", (1,), transform=TFILTER_SUM)] + [
            Query("%d", (1,), transform=TFILTER_SUM, ranks=g) for g in self.groups
        ] + [self.hot]

    def build(self, colocate: bool = False, backends_wrapper=None):
        if colocate:
            net = Network(self.spec, colocate=True)
        else:
            net = Network(self.spec, transport="process")
        responder = gw = None
        try:
            bes = [be for _, be in sorted(net.backends.items())]
            responder = BackendResponder(backends_wrapper(bes) if backends_wrapper else bes)
            gw = Gateway(net, cache_ttl=0.0)
            sessions = [gw.session(f"client-{i}") for i in range(self.SESSIONS)]
            for q in self.warmup:
                want = (len(q.ranks) if q.ranks else self.n) * q.values[0]
                if sessions[0].submit(q).result(timeout=WAIT) != (want,):
                    raise RuntimeError("gateway_mix: warm-up query was wrong")
        except BaseException:
            self.teardown((net, responder, gw, None))
            raise
        return net, responder, gw, sessions

    @staticmethod
    def teardown(built) -> None:
        net, responder, gw, _ = built
        if gw is not None:
            gw.close()
        if responder is not None:
            responder.stop()
        net.shutdown()

    def run(self, seconds: float, traced: bool):
        baseline = threading.active_count()
        log: Dict[str, list] = {"backend.recv": [], "backend.send": []}
        wrapper = (lambda bes: [TimedBackend(be, log) for be in bes]) if traced else None
        setup_s, built = median_setup(
            lambda: self.build(backends_wrapper=wrapper), self.teardown, baseline,
            self.SETUP_REPEATS,
        )
        try:
            served = self.serve(*built)
        finally:
            self.teardown(built)
            proctree.check_clean(baseline)
        attempted, ok = len(self.ops), served.outcome["ok"]
        failed = served.outcome["failed"]
        if not traced:
            light: List[List[float]] = [[] for _ in range(self.LIGHT_WINDOWS)]
            for due_off, latency in served.light:
                i = int(due_off / self.light_s * self.LIGHT_WINDOWS)
                light[min(i, self.LIGHT_WINDOWS - 1)].append(latency)
            done = [0] * self.OVERLOAD_WINDOWS
            width = self.over_s / self.OVERLOAD_WINDOWS
            for offset in served.over_done:
                done[min(int(offset / width), self.OVERLOAD_WINDOWS - 1)] += 1
            return failed == 0, attempted, failed, end_to_end(
                setup_s,
                statistics.median(percentile(w, 50) for w in light),
                statistics.median(tail(w, 90) for w in light),
                statistics.median(done) / width,
                cpu_between(served.before, served.after) / max(ok, 1),
                served.after, ok, attempted,
            )
        require(attempted - failed, attempted, "gateway_mix")
        rows = self.process_rows(served, log)
        twin = GatewayMix(self.seed, seconds / 3)
        twin_attempted, twin_rows = twin.twin_rows(baseline)
        rows.update(twin_rows)
        return True, attempted + twin_attempted, 0, layer_metrics(rows)

    def serve(self, net, responder, gw, sessions, trace_at: float = math.inf) -> Served:
        """Submit the schedule, then collect and check every ticket.

        With a finite *trace_at* (seconds into the schedule) runtime
        tracing covers the light phase from there to its end.
        """
        with gw.paused():
            stats0 = layers.counter_sums(net.stats())
        gw0 = gw.stats()
        before = proctree.sample()
        lateness, submit_s = [], []
        trace: Dict[str, float] = {}
        start = time.monotonic() + 0.05
        for op in self.ops:
            due = start + op[0]
            if "origin" not in trace and op[0] >= trace_at:
                trace["origin"] = time.monotonic()
                trace["waves0"] = gw.stats()["waves"]
                net.start_trace(maxlen=400_000)
            if "end" not in trace and op[1] == "overload" and "origin" in trace:
                net.stop_trace()
                trace["end"] = time.monotonic()
                trace["waves1"] = gw.stats()["waves"]
            now = time.monotonic()
            if due > now:
                time.sleep(due - now)
            t0 = time.monotonic()
            lateness.append(t0 - due)
            try:
                op.append(sessions[op[2]].submit(op[3]))
            except Overloaded as exc:
                op.append(exc)
            submit_s.append(time.monotonic() - t0)
        over_end = start + self.light_s + self.over_s
        drain_until = max(time.monotonic(), over_end) + self.DRAIN_S
        outcome = {"ok": 0, "shed_queue": 0, "shed_rate": 0,
                   "shed_backpressure": 0, "failed": 0}
        light, light_traced, light_untraced, over_done = [], [], [], []
        for due_off, phase, _, _, want, ticket in self.ops:
            latency, good = math.inf, False
            if isinstance(ticket, Overloaded):
                outcome[f"shed_{ticket.reason}"] += 1
            else:
                try:
                    got = ticket.result(timeout=max(drain_until - time.monotonic(), 0.0))
                    good = got == (want,)
                    outcome["ok" if good else "failed"] += 1
                except Overloaded as exc:
                    outcome[f"shed_{exc.reason}"] += 1
                except (TimeoutError, GatewayError):
                    outcome["failed"] += 1
                if good:
                    latency = ticket.completed_at - (start + due_off)
            if phase == "light":
                light.append((due_off, latency))
                (light_traced if due_off >= trace_at else light_untraced).append(latency)
            elif good and ticket.completed_at <= over_end:
                over_done.append(ticket.completed_at - (start + self.light_s))
        after = proctree.sample()
        gw1 = gw.stats()
        with gw.paused():
            stats1 = layers.counter_sums(net.stats())
        return Served(outcome, light, light_traced, light_untraced, over_done,
                      lateness, submit_s, before, after, stats0, stats1, gw0, gw1,
                      trace)

    def process_rows(self, served: Served, log) -> Dict[str, float]:
        """Rows of the process run: gateway, counters, calls, module costs."""
        attempted, ok = len(self.ops), served.outcome["ok"]
        queries = served.gw1["queries"] - served.gw0["queries"]
        waves = served.gw1["waves"] - served.gw0["waves"]
        reply = Packet(1, FIRST_APP_TAG, "%d", (1,), origin_rank=0)
        rows = layers.codec_rows(reply, self.FANOUT)
        rows.update(payload_chunk_rows(seeded_payload(self.seed)))
        rows.update(layers.counter_rows(
            layers.counter_delta(served.stats0, served.stats1), ok
        ))
        before, after = served.before, served.after
        rows.update(sched_rows(before, after, after.cpu_children - before.cpu_children, ok))
        rows.update({
            "routing.links_for_group_us": layers.routing_us(
                tree_children_ranks(self.spec), self.groups
            ),
            "backend.recv_us": statistics.median(log["backend.recv"]) * 1e6,
            "backend.send_us": statistics.median(log["backend.send"]) * 1e6,
            "gateway.submit_us": statistics.median(served.submit_s) * 1e6,
            "gateway.coalesced_frac": (served.gw1["coalesced"] - served.gw0["coalesced"])
            / max(queries, 1),
            "gateway.waves_per_query": waves / max(queries, 1),
            "gateway.shed_frac": (attempted - ok - served.outcome["failed"]) / attempted,
            "gateway.shed_queue_frac": served.outcome["shed_queue"] / attempted,
            "gateway.shed_backpressure_frac": served.outcome["shed_backpressure"] / attempted,
            "gateway.generator_late_ms": percentile(served.lateness, 99) * 1e3,
        })
        return rows

    def twin_rows(self, baseline: int):
        """Figure-3 split and LogGP fit from a traced colocated twin.

        Returns ``(attempted, rows)``; raises if a query failed.
        """
        built = self.build(colocate=True)
        net = built[0]
        try:
            served = self.serve(*built, trace_at=self.light_s / 2)
            runtime, sync_wait = layers.runtime_spans(
                net.trace_chrome_json(), served.trace["origin"]
            )
            reply = Packet(1, FIRST_APP_TAG, "%d", (1,), origin_rank=0)
            sum_mbps = layers.sum_filter_mbps(
                net.registry, TFILTER_SUM, [reply] * self.FANOUT
            )
        finally:
            self.teardown(built)
            proctree.check_clean(baseline)
        attempted = len(self.ops)
        require(attempted - served.outcome["failed"], attempted, "gateway_mix twin")
        trace = served.trace
        traced_waves = max(trace["waves1"] - trace["waves0"], 1)
        waves = max(served.gw1["waves"] - served.gw0["waves"], 1)
        nodes = layers.counter_delta(served.stats0, served.stats1)["nodes"]
        split = layers.attribute(runtime, [(trace["origin"], trace["end"])])
        per_wave = {k: v / traced_waves for k, v in split.items()}
        stages = ("recv", "demux", "rebatch", "send")
        service = statistics.mean(x for x in served.light_traced if x != math.inf)
        layer_sum = (
            sum(per_wave[f"commnode.{s}"] for s in stages)
            + per_wave["transform.filter"] + statistics.median(served.submit_s)
            + per_wave["frontend.flush"] + per_wave["frontend.pump"]
        )
        unattributed = service - layer_sum
        params = layers.fit_loggp(
            per_wave["commnode.recv"] + per_wave["commnode.demux"],
            per_wave["commnode.rebatch"] + per_wave["commnode.send"],
            nodes.get("messages_in", 0) / waves,
            nodes.get("messages_sent", 0) / waves,
            unattributed, 2 * self.DEPTH, 1.0 / (sum_mbps * 1e6),
        )
        rows = {f"commnode.{s}_ms": per_wave[f"commnode.{s}"] * 1e3 for s in stages}
        rows.update({
            "sync.wait_ms": sync_wait / traced_waves * 1e3,
            "transform.filter_ms": per_wave["transform.filter"] * 1e3,
            "transform.sum_MBps": sum_mbps,
            "frontend.send_us": per_wave["frontend.flush"] * 1e6,
            "frontend.recv_ms": per_wave["frontend.pump"] * 1e3,
            "trace.wave_ms": service * 1e3,
            "unattributed_ms": unattributed * 1e3,
            "trace.overhead_frac": percentile(served.light_traced, 50)
            / percentile(served.light_untraced, 50) - 1.0,
        })
        rows.update(layers.logp_rows(
            self.spec, params, service, len(reply.to_bytes()), roundtrip=True
        ))
        return attempted, rows


class TimedBackend:
    """A back-end handle that logs ``poll`` and ``send`` call times.

    Handed to ``BackendResponder`` in the traced run so back-end calls
    made by the responder thread are timed from the benchmark's side.
    Only polls that returned a packet are logged as receives.
    """

    def __init__(self, backend, log: Dict[str, list]):
        self._be = backend
        self._log = log
        self.rank = backend.rank

    @property
    def shut_down(self) -> bool:
        return self._be.shut_down

    def poll(self):
        t0 = time.perf_counter()
        item = self._be.poll()
        if item is None:
            return None
        self._log["backend.recv"].append(time.perf_counter() - t0)
        packet, stream = item
        return packet, _TimedStream(stream, self._log)


class _TimedStream:
    def __init__(self, stream, log):
        self._stream = stream
        self._log = log

    def send(self, fmt, *values, **kwargs):
        t0 = time.perf_counter()
        self._stream.send(fmt, *values, **kwargs)
        self._log["backend.send"].append(time.perf_counter() - t0)


WORKLOADS = {
    "small_reduce": lambda seed, seconds: SmallReduce(seed),
    "large_reduce": lambda seed, seconds: LargeReduce(seed),
    "gateway_mix": GatewayMix,
}
