"""Per-layer measurement: call timings, span attribution, LogGP fit.

Everything here measures the program from outside: it calls each
module's public functions on the workload's own packets, parses the
Figure-3 spans the runtime exports through ``trace_chrome_json()``,
and folds ``Network.stats()`` counters into per-operation ratios.
"""

from __future__ import annotations

import heapq
import json
import statistics
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.core.batching import decode_batch, encode_batch
from repro.core.chunking import reassemble, split_packet
from repro.core.packet import Packet
from repro.core.routing import RoutingTable
from repro.sim.logp import LogGPParams, reduction_latency, roundtrip_latency

# -- timing public calls ----------------------------------------------------


def time_call(fn: Callable[[], object], budget_s: float = 0.05) -> float:
    """Median seconds per call of *fn*, over batches filling *budget_s*."""
    fn()  # warm caches and lazy imports
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    per_batch = max(1, int(budget_s / 5 / once))
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(per_batch):
            fn()
        samples.append((time.perf_counter() - t0) / per_batch)
    return statistics.median(samples)


def codec_rows(reply: Packet, fan_in: int) -> Dict[str, float]:
    """Packet and batching costs on the workload's reply packet.

    ``packet.decode_us`` reads ``raw_values``: the data plane's
    vectorised filters never build the tuple that ``values`` would.
    """
    fmt = reply.fmt.canonical
    values = reply.raw_values
    frame = Packet(reply.stream_id, reply.tag, fmt, values).to_bytes()
    rows = {
        "packet.encode_us": time_call(
            lambda: Packet(reply.stream_id, reply.tag, fmt, values).to_bytes()
        ) * 1e6,
        "packet.decode_us": time_call(
            lambda: Packet.lazy_from_wire(frame).raw_values
        ) * 1e6,
    }
    message = [Packet.lazy_from_wire(frame) for _ in range(fan_in)]
    batch = encode_batch(message)
    rows["batching.encode_batch_us"] = time_call(
        lambda: encode_batch(message)
    ) * 1e6
    rows["batching.decode_batch_us"] = time_call(
        lambda: [p.raw_values for p in decode_batch(batch)]
    ) * 1e6
    return rows


def chunk_rows(payload: Packet, chunk_bytes: int) -> Dict[str, float]:
    """``split_packet`` and ``reassemble`` of *payload* at *chunk_bytes*."""
    fragments = split_packet(payload, chunk_bytes, 1)
    if not fragments:
        raise RuntimeError("chunking probe: the payload was not split")
    return {
        "chunking.split_us": time_call(
            lambda: split_packet(payload, chunk_bytes, 1)
        ) * 1e6,
        "chunking.reassemble_us": time_call(lambda: reassemble(fragments)) * 1e6,
    }


def sum_filter_mbps(registry, filter_id: int, wave: Sequence[Packet]) -> float:
    """MB/s of input the reduction filter consumes over one wave."""
    filt = registry.get_transform(filter_id)
    state = filt.make_state()
    nbytes = sum(len(p.to_bytes()) for p in wave)
    return nbytes / time_call(lambda: filt(wave, state)) / 1e6


def routing_us(child_ranks: Sequence[Sequence[int]], groups) -> float:
    """Mean microseconds of ``links_for_group`` over *groups*.

    The table mirrors the front-end's: one link per root child,
    reporting the ranks behind it.
    """
    table = RoutingTable()
    for link_id, ranks in enumerate(child_ranks, start=1):
        table.add_report(link_id, ranks)
    interned = [table.group(g) for g in groups]

    def lookup():
        for g in interned:
            table.links_for_group(g)

    return time_call(lookup) / len(interned) * 1e6


# -- counters ---------------------------------------------------------------


def counter_sums(stats: Dict[str, dict]) -> Dict[str, Dict[str, float]]:
    """``{"fe": {...}, "nodes": {...}}`` counter totals from ``stats()``.

    Labelled series are folded into their base name, so
    ``chunks_retransmitted{stream="1"}`` adds into
    ``chunks_retransmitted``.
    """
    out = {"fe": {}, "nodes": {}}
    for key, series in stats.items():
        if key in ("meta", "recovery"):
            continue
        side = out["fe"] if key.startswith("0:") else out["nodes"]
        for name, value in series.items():
            if isinstance(value, (int, float)):
                base = name.split("{", 1)[0]
                side[base] = side.get(base, 0) + value
    return out


def counter_delta(before, after) -> Dict[str, Dict[str, float]]:
    return {
        side: {k: v - before[side].get(k, 0) for k, v in after[side].items()}
        for side in after
    }


def fe_histogram_mean(stats: Dict[str, dict], prefix: str) -> Tuple[float, int]:
    """(sum, count) of the front-end histograms named *prefix*."""
    total, count = 0.0, 0
    for key, series in stats.items():
        if key.startswith("0:"):
            for name, hist in series.get("histograms", {}).items():
                if name.startswith(prefix):
                    total += hist["sum"]
                    count += hist["count"]
    return total, count


def counter_rows(delta, ops: int) -> Dict[str, float]:
    """Batching, transport, commnode and chunking ratios per operation."""
    fe, nodes = delta["fe"], delta["nodes"]

    def both(name):
        return fe.get(name, 0) + nodes.get(name, 0)

    return {
        "batching.packets_per_message": both("packets_in")
        / max(both("messages_in"), 1),
        "transport.wakeups_per_op": both("loop_wakeups") / ops,
        "transport.writes_per_op": both("loop_writes") / ops,
        "transport.bytes_out_per_op": both("loop_bytes_out") / ops,
        "transport.send_queue_full": both("send_queue_full"),
        "commnode.zero_copy_frac": nodes.get("packets_relayed_zero_copy", 0)
        / max(nodes.get("packets_in", 0), 1),
        "chunking.chunks_retransmitted": both("chunks_retransmitted"),
    }


# -- span attribution -------------------------------------------------------

#: Exclusive attribution order: an instant covered by several spans is
#: charged to the first class in this list that covers it.  The
#: runtime's ``filter`` runs inside ``demux``; ``rebatch`` and ``send``
#: run after it; all run inside whatever front-end or back-end call
#: the benchmark thread is blocked in at the time.  ``frontend.flush``
#: and ``frontend.pump`` are the front-end core's own send-side
#: (rebatch, send) and receive-side (recv, demux) spans.  The first
#: back-end receive of a wave is classed apart: it is the one that
#: blocks until the broadcast arrives.
SPAN_CLASSES = (
    "transform.filter",
    "commnode.rebatch",
    "commnode.send",
    "commnode.demux",
    "commnode.recv",
    "frontend.flush",
    "frontend.pump",
    "frontend.send",
    "backend.send",
    "backend.recv",
    "backend.recv_first",
    "frontend.recv",
)
_RANK = {name: i for i, name in enumerate(SPAN_CLASSES)}
_FRONTEND_STAGE = {
    "rebatch": "frontend.flush", "send": "frontend.flush",
    "recv": "frontend.pump", "demux": "frontend.pump",
}


def runtime_spans(trace_json: str, origin: float):
    """Runtime spans from ``trace_chrome_json()`` on the monotonic clock.

    Returns ``(classified, sync_wait_total)``: exclusive-attribution
    spans ``(class, t0, t1)`` and the summed ``sync_wait`` seconds
    (waiting, not work, so it is kept out of the exclusive split).
    *origin* is the recorders' epoch on ``time.monotonic``.
    """
    doc = json.loads(trace_json)
    names = {}
    for ev in doc["traceEvents"]:
        if ev.get("ph") == "M" and ev["name"] == "process_name":
            names[ev["pid"]] = ev["args"]["name"]
    spans, sync_wait = [], 0.0
    for ev in doc["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        t0 = origin + ev["ts"] / 1e6
        t1 = t0 + ev["dur"] / 1e6
        stage = ev["name"]
        if stage == "sync_wait":
            sync_wait += t1 - t0
        elif stage == "filter":
            spans.append(("transform.filter", t0, t1))
        elif names[ev["pid"]].startswith("0:"):
            if stage in _FRONTEND_STAGE:
                spans.append((_FRONTEND_STAGE[stage], t0, t1))
        elif f"commnode.{stage}" in _RANK:
            spans.append((f"commnode.{stage}", t0, t1))
    return spans, sync_wait


def attribute(
    spans: Iterable[Tuple[str, float, float]],
    windows: Sequence[Tuple[float, float]],
) -> Dict[str, float]:
    """Charge every instant of the operation *windows* to one class.

    Sweeps span boundaries in time order; each elementary interval
    inside a window goes to the highest-priority class covering it, or
    to ``unattributed``.  Raises unless the totals add up to the summed
    window time, which fails when windows overlap.
    """
    events = []
    for cls, t0, t1 in spans:
        if t1 > t0:
            events.append((t0, 1, _RANK[cls]))
            events.append((t1, -1, _RANK[cls]))
    for t0, t1 in windows:
        events.append((t0, 1, -1))
        events.append((t1, -1, -1))
    events.sort()
    totals = [0.0] * len(SPAN_CLASSES)
    unattributed = 0.0
    active = [0] * len(SPAN_CLASSES)
    live: List[int] = []  # heap of candidate ranks (lazy deletion)
    in_window = 0
    prev = events[0][0] if events else 0.0
    for t, delta, rank in events:
        if in_window and t > prev:
            while live and not active[live[0]]:
                heapq.heappop(live)
            if live:
                totals[live[0]] += t - prev
            else:
                unattributed += t - prev
        prev = t
        if rank < 0:
            in_window += delta
        else:
            active[rank] += delta
            if delta > 0 and active[rank] == 1:
                heapq.heappush(live, rank)
    out = {name: totals[i] for i, name in enumerate(SPAN_CLASSES)}
    out["unattributed"] = unattributed
    window_s = sum(t1 - t0 for t0, t1 in windows)
    if abs(sum(out.values()) - window_s) > 1e-9 * max(window_s, 1.0):
        raise RuntimeError(
            f"attribution charged {sum(out.values())} s of {window_s} s of "
            "operation time; overlapping windows?"
        )
    return out


# -- LogGP cross-check --------------------------------------------------------


def fit_loggp(
    recv_s: float, send_s: float, msgs_in: float, msgs_out: float,
    latency_s: float, hops: int, per_byte_s: float,
) -> LogGPParams:
    """LogGP parameters for one link kind from per-operation layer rows.

    ``o`` is the comm-node receive cost per inbound message, ``g`` the
    send cost per outbound message (the interval at which one process
    can emit), ``L`` the per-hop share of the time no layer claims
    (hand-off and wakeup), ``G`` the caller's measured cost per payload
    byte.
    """
    return LogGPParams(
        L=max(latency_s / max(hops, 1), 0.0),
        o=recv_s / max(msgs_in, 1e-9),
        g=send_s / max(msgs_out, 1e-9),
        G=per_byte_s,
    )


def logp_rows(
    spec, params: LogGPParams, measured_s: float, nbytes: int, roundtrip: bool
) -> Dict[str, float]:
    """The model's wave prediction for *spec* and its relative error."""
    predict = roundtrip_latency if roundtrip else reduction_latency
    predicted = predict(spec, params, nbytes)
    return {
        "model.o_us": params.o * 1e6,
        "model.g_us": params.g * 1e6,
        "model.L_us": params.L * 1e6,
        "model.G_ns": params.G * 1e9,
        "model.logp_predicted_ms": predicted * 1e3,
        "model.logp_error_frac": predicted / measured_s - 1.0,
    }
