"""The benchmark's map from layers to metrics and workloads.

Every per-layer metric the traced run reports is listed here once, with the
layer (module) it measures, the end-to-end metric it should move, and the
workloads where the layer does most of its work (``heavy``) and little or
none (``light``).  ``BENCHMARK.json`` repeats the name, unit and direction of
each entry; ``perfbench/test_benchmark.py`` checks that the two agree.

``SPANS`` names the wrapped functions whose spans must record at least one
call on each workload: the traced run fails loudly when one of them stays at
zero, since a wrapper bound to a name nobody calls measures nothing.
"""

from __future__ import annotations

WORKLOADS = ("longctx", "decode-heavy", "routed")

#: why each workload exists (mirrored in BENCHMARK.json)
WHY = {
    "longctx": (
        "the paper's one-shot sparse attention (Local, Longformer, dilated, BigBird) at "
        "long lengths; the only workload where masks, plan compile and one-shot kernels dominate"
    ),
    "decode-heavy": (
        "128 offline streams read through the async edge; short prompts, long decodes, fp32, "
        "no sharing or preemption: per-stream paging reads and the decode kernel dominate"
    ),
    "routed": (
        "closed-loop clients on two affinity-routed replicas, shared prefixes, half speculative, "
        "int8 and the recorder on: router, speculation, prefix sharing and quantized paging"
    ),
}

SERVING = ("decode-heavy", "routed")
ALL = WORKLOADS
BUT_ROUTED = ("longctx", "decode-heavy")
BUT_DECODE = ("longctx", "routed")


def _m(name, unit, better, layer, moves, heavy, light):
    return {
        "name": name,
        "unit": unit,
        "better": better,
        "layer": layer,
        "moves": moves,
        "heavy": heavy,
        "light": light,
    }


_PLAN = ("masks, serve.plan, serve.cache", "latency_p50_ms, edges_per_s on longctx")
_ONESHOT = (
    "core one-shot kernels (implicit_kernels, explicit_kernels, compose)",
    "edges_per_s on longctx",
)
_DKERNEL = (
    "core decode kernel (online_softmax.segment_*, pool row gather)",
    "itl_p50_ms, tokens_per_s on decode-heavy",
)
_SERVER = ("serve.scheduler (AttentionServer)", "tokens_per_s on decode-heavy")
_DECODE = ("serve.decode", "itl_p50_ms, tokens_per_s on decode-heavy")
_PAGING_R = ("serve.paging (reads)", "tokens_per_s on decode-heavy")
_PAGING_W = ("serve.paging (writes, sharing, swap)", "ttft_p90_ms on routed")
_QUANT = ("serve.quant", "ttft_p50_ms, tokens_per_s on routed")
_LOOP = ("serve.loop", "tokens_per_s on decode-heavy, ttft_p90_ms on routed")
_SPEC = ("serve.speculate", "tokens_per_s, itl_p50_ms on routed")
_ROUTER = ("serve.router", "tokens_per_s on routed")
_EDGE = ("serve.edge", "ttft_p90_ms, itl_p50_ms on decode-heavy")
_OBS = ("obs", "itl_p50_ms, tokens_per_s on routed")

PER_LAYER = [
    _m("plan.compile_s", "s", "lower", *_PLAN, ("longctx",), ("decode-heavy",)),
    _m("plan.compiles", "count", "lower", *_PLAN, ("longctx",), ("decode-heavy",)),
    _m("plan.cache_hit_rate", "ratio", "higher", *_PLAN, ("longctx",), ("decode-heavy",)),
    _m("masks.to_csr_s", "s", "lower", *_PLAN, ("longctx",), ("decode-heavy",)),
    _m("core.kernel_s", "s", "lower", *_ONESHOT, ("longctx",), SERVING),
    _m("core.local_s", "s", "lower", *_ONESHOT, ("longctx",), SERVING),
    _m("core.global_s", "s", "lower", *_ONESHOT, ("longctx",), SERVING),
    _m("core.dilated_s", "s", "lower", *_ONESHOT, ("longctx",), SERVING),
    _m("core.csr_s", "s", "lower", *_ONESHOT, ("longctx",), SERVING),
    _m("core.edges", "count", "lower", *_ONESHOT, ("longctx",), SERVING),
    _m("core.work_ratio", "ratio", "lower", *_ONESHOT, ("longctx",), SERVING),
    _m("core.segment_reduce_s", "s", "lower", *_DKERNEL, ("decode-heavy",), ("longctx",)),
    _m("core.gather_rows_s", "s", "lower", *_DKERNEL, ("decode-heavy",), ("longctx",)),
    _m("core.bytes_gathered", "bytes", "lower", *_DKERNEL, ("decode-heavy",), ("longctx",)),
    _m("server.serve_s", "s", "lower", *_SERVER, ("longctx",), SERVING),
    _m("server.serve_calls", "count", "lower", *_SERVER, ("longctx",), SERVING),
    _m("server.prefill_chunks_s", "s", "lower", *_SERVER, ("decode-heavy",), ("longctx",)),
    _m("server.prefill_chunks_calls", "count", "lower", *_SERVER, ("decode-heavy",), ("longctx",)),
    _m("server.decode_steps_s", "s", "lower", *_SERVER, ("decode-heavy",), ("longctx",)),
    _m("server.decode_steps_calls", "count", "lower", *_SERVER, ("decode-heavy",), ("longctx",)),
    _m("server.speculate_steps_s", "s", "lower", *_SERVER, ("routed",), ("longctx",)),
    _m("server.speculate_steps_calls", "count", "lower", *_SERVER, ("routed",), ("longctx",)),
    _m("server.self_s", "s", "lower", *_SERVER, ("decode-heavy",), ("longctx",)),
    _m("decode.step_s", "s", "lower", *_DECODE, ("decode-heavy",), ("longctx",)),
    _m("decode.prefill_s", "s", "lower", *_DECODE, ("decode-heavy",), ("longctx",)),
    _m("decode.self_s", "s", "lower", *_DECODE, ("decode-heavy",), ("longctx",)),
    _m("decode.streams_per_call", "count", "higher", *_DECODE, ("decode-heavy",), ("longctx",)),
    _m("paging.gather_s", "s", "lower", *_PAGING_R, ("decode-heavy",), ("longctx",)),
    _m("paging.gather_calls", "count", "lower", *_PAGING_R, ("decode-heavy",), ("longctx",)),
    _m("paging.extend_s", "s", "lower", *_PAGING_W, ("decode-heavy", "routed"), ("longctx",)),
    _m("paging.extend_calls", "count", "lower", *_PAGING_W, ("decode-heavy", "routed"), ("longctx",)),
    _m("paging.reserve_failed", "count", "lower", *_PAGING_W, (), ALL),
    _m("paging.share_hit_rate", "ratio", "higher", *_PAGING_W, ("routed",), ("longctx",)),
    _m("paging.cow_copies", "count", "lower", *_PAGING_W, ("routed",), ("longctx",)),
    _m("paging.evictions", "count", "lower", *_PAGING_W, ("routed",), ("longctx",)),
    _m("paging.swap_out_s", "s", "lower", *_PAGING_W, (), ALL),
    _m("paging.restore_s", "s", "lower", *_PAGING_W, (), ALL),
    _m("paging.swap_bytes", "bytes", "lower", *_PAGING_W, (), ALL),
    _m("paging.blocks_peak", "count", "lower", *_PAGING_W, ("routed",), ("longctx",)),
    _m("quant.encode_s", "s", "lower", *_QUANT, ("routed",), ("decode-heavy",)),
    _m("quant.decode_s", "s", "lower", *_QUANT, ("routed",), ("decode-heavy",)),
    _m("quant.rows_encoded", "count", "lower", *_QUANT, ("routed",), ("decode-heavy",)),
    _m("loop.steps", "count", "lower", *_LOOP, SERVING, ("longctx",)),
    _m("loop.step_s", "s", "lower", *_LOOP, SERVING, ("longctx",)),
    _m("loop.self_s", "s", "lower", *_LOOP, SERVING, ("longctx",)),
    _m("loop.batch_tokens_mean", "tokens", "higher", *_LOOP, SERVING, ("longctx",)),
    _m("loop.queue_wait_p50_ms", "ms", "lower", *_LOOP, SERVING, ("longctx",)),
    _m("loop.preemptions", "count", "lower", *_LOOP, (), ALL),
    _m("loop.recomputed_tokens", "count", "lower", *_LOOP, (), ALL),
    _m("speculate.drafted", "count", "higher", *_SPEC, ("routed",), BUT_ROUTED),
    _m("speculate.accept_rate", "ratio", "higher", *_SPEC, ("routed",), BUT_ROUTED),
    _m("speculate.rolled_back", "count", "lower", *_SPEC, ("routed",), BUT_ROUTED),
    _m("speculate.fallbacks", "count", "lower", *_SPEC, ("routed",), BUT_ROUTED),
    _m("router.submit_s", "s", "lower", *_ROUTER, ("routed",), BUT_ROUTED),
    _m("router.step_self_s", "s", "lower", *_ROUTER, ("routed",), BUT_ROUTED),
    _m("router.route_hit_rate", "ratio", "higher", *_ROUTER, ("routed",), BUT_ROUTED),
    _m("router.rebalanced", "count", "lower", *_ROUTER, ("routed",), BUT_ROUTED),
    _m("router.replica_token_imbalance", "ratio", "lower", *_ROUTER, ("routed",), BUT_ROUTED),
    _m("edge.submit_s", "s", "lower", *_EDGE, ("decode-heavy",), BUT_DECODE),
    _m("edge.arrival_lag_p99_ms", "ms", "lower", *_EDGE, ("decode-heavy",), BUT_DECODE),
    _m("edge.backpressure_holds", "count", "lower", *_EDGE, ("decode-heavy",), BUT_DECODE),
    _m("edge.throttled", "count", "lower", *_EDGE, ("decode-heavy",), BUT_DECODE),
    _m("obs.trace_events", "count", "lower", *_OBS, ("routed",), ("decode-heavy",)),
    _m("obs.series", "count", "lower", *_OBS, ("routed",), ("decode-heavy",)),
    _m(
        "trace.overhead_frac", "ratio", "lower", "the benchmark's own tracing",
        "none: the slowdown of the traced pass, to discount traced times by", ALL, (),
    ),
]

#: Preemption (swap, restore, recompute) has no heavy workload: pools tight
#: enough to preempt made tail latency too unsteady to bound, so those
#: metrics are reported and read zero until a workload exercises them.

#: spans that must record calls on each workload (the wrapper-fired check)
SPANS = {
    "longctx": (
        "server.serve", "plan.compile", "plan.lookup", "masks.to_csr", "core.local",
        "core.global", "core.dilated", "core.csr", "core.merge",
    ),
    "decode-heavy": (
        "edge.submit", "loop.step", "server.prefill_chunks", "server.decode_steps",
        "decode.step", "decode.prefill", "paging.gather", "paging.extend", "paging.reserve",
        "core.segment_reduce", "core.gather_rows", "quant.encode", "plan.lookup",
    ),
    "routed": (
        "router.submit", "router.step", "loop.step", "server.prefill_chunks",
        "server.decode_steps", "server.speculate_steps", "speculate.steps", "decode.step",
        "decode.prefill", "paging.gather", "paging.extend", "paging.lookup", "paging.reserve",
        "quant.encode", "quant.decode",
        "core.segment_reduce", "core.gather_rows", "obs.record",
    ),
}
