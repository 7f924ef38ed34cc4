"""Spans and counts recorded from outside the program, around each layer's calls.

The traced run installs :class:`Tracer` wrappers on the public functions and
methods of every layer, runs the workload, then removes them.  A wrapper
records one span per call (name, start, end, parent span, request id) plus
counts taken from the call's arguments or result.  Spans stay in memory and
are written out when the benchmark ends.

Functions are patched at every module attribute that binds them, not only in
the defining module: ``from repro.serve.plan import compile_plan`` gives the
scheduler its own reference, and patching ``repro.serve.plan`` alone would
measure nothing.  :meth:`Tracer.check` then fails loudly when a span expected
on the workload recorded no call, when spans closed out of order, or when
any self time came out negative.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import threading
import time
import weakref
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from layers import PER_LAYER, SPANS

# --------------------------------------------------------------------------- #
# Count hooks: run inside the span, after the wrapped call returned
# --------------------------------------------------------------------------- #
def _kernel_edges(tracer, args, kwargs, result):
    tracer.count("core.edges", result.ops.dot_products)


def _plan_hit(tracer, args, kwargs, result):
    if result is not None:
        tracer.count("plan.lookup.hit")


def _gathered_bytes(tracer, args, kwargs, result):
    tracer.count("core.bytes_gathered", result.nbytes)


def _stacked_streams(tracer, args, kwargs, result):
    tracer.count("decode.stacked_calls")
    tracer.count("decode.streams", len(args[0]))


def _speculation(tracer, args, kwargs, result):
    for outcome in result:
        if outcome is None:
            continue
        tracer.count("speculate.drafted", outcome.drafted)
        tracer.count("speculate.accepted", outcome.accepted)
        tracer.count("speculate.rolled_back", outcome.rolled_back)
        tracer.count("speculate.fallbacks", int(outcome.fallback))


def _share_hit(tracer, args, kwargs, result):
    if result is not None:
        tracer.count("paging.lookup.hit")
    tracer.sample_blocks()


def _swap_bytes(tracer, args, kwargs, result):
    tracer.count("paging.swap_bytes", result.nbytes)


def _rows_encoded(tracer, args, kwargs, result):
    k_rows = args[0]
    tracer.count("quant.rows_encoded", int(np.prod(np.shape(k_rows)[:-1])))


def _loop_tokens(tracer, args, kwargs, result):
    tracer.count("loop.tokens", result.tokens)


def _after_reserve(tracer, args, kwargs, result):
    tracer.sample_blocks()


# --------------------------------------------------------------------------- #
# What gets wrapped: (span name, module, attribute path, count hook, options)
# --------------------------------------------------------------------------- #
#: ``register`` keeps a weak reference to ``self`` (pools, loops, routers,
#: edges) so end-of-run counters can be read off the objects the run used;
#: ``only`` limits a function patch to the listed importing modules.
TARGETS: Sequence[Tuple[str, str, str, Optional[Callable], dict]] = (
    ("server.serve", "repro.serve.scheduler", "AttentionServer.serve", None, {}),
    ("server.prefill_chunks", "repro.serve.scheduler", "AttentionServer.prefill_chunks", None, {}),
    ("server.decode_steps", "repro.serve.scheduler", "AttentionServer.decode_steps", None, {}),
    ("server.speculate_steps", "repro.serve.scheduler", "AttentionServer.speculate_steps", _speculation, {}),
    ("plan.compile", "repro.serve.plan", "compile_plan", None, {}),
    ("plan.lookup", "repro.serve.cache", "PlanCache.get", _plan_hit, {}),
    ("masks.to_csr", "repro.masks.base", "MaskSpec.to_csr", None, {}),
    ("masks.to_csr", "repro.masks.composite", "UnionMask.to_csr", None, {}),
    ("masks.to_csr", "repro.masks.random_", "RandomMask.to_csr", None, {}),
    ("masks.to_csr", "repro.masks.explicit", "ExplicitMask.to_csr", None, {}),
    ("core.local", "repro.core.implicit_kernels", "local_attention", _kernel_edges, {}),
    ("core.global", "repro.core.implicit_kernels", "global_attention", _kernel_edges, {}),
    ("core.dilated", "repro.core.implicit_kernels", "dilated1d_attention", _kernel_edges, {}),
    ("core.dilated", "repro.core.implicit_kernels", "dilated2d_attention", _kernel_edges, {}),
    ("core.csr", "repro.core.explicit_kernels", "csr_attention", _kernel_edges, {}),
    ("core.flash", "repro.core.flash", "flash_attention", _kernel_edges, {}),
    ("core.merge", "repro.core.compose", "merge_results", None, {}),
    ("core.segment_reduce", "repro.core.online_softmax", "segment_softmax_stats", None,
     {"only": ("repro.serve.decode",)}),
    ("core.segment_reduce", "repro.core.online_softmax", "segment_weighted_sum", None,
     {"only": ("repro.serve.decode",)}),
    ("core.gather_rows", "repro.serve.paging", "BlockPool.decode_key_rows", _gathered_bytes, {}),
    ("core.gather_rows", "repro.serve.paging", "BlockPool.decode_value_rows", _gathered_bytes, {}),
    ("decode.step", "repro.serve.decode", "stacked_decode_step", _stacked_streams, {}),
    ("decode.step", "repro.serve.decode", "DecodeSession.step", None, {}),
    ("decode.prefill", "repro.serve.decode", "stacked_prefill", None, {}),
    ("decode.prefill", "repro.serve.decode", "DecodeSession.prefill", None, {}),
    ("speculate.steps", "repro.serve.speculate", "speculative_decode_steps", None, {}),
    ("paging.gather", "repro.serve.paging", "PagedKVCache.gather_keys", None, {}),
    ("paging.gather", "repro.serve.paging", "PagedKVCache.gather_values", None, {}),
    ("paging.extend", "repro.serve.paging", "PagedKVCache.extend", None, {}),
    ("paging.reserve", "repro.serve.paging", "BlockPool.reserve", _after_reserve, {"register": "pool"}),
    ("paging.lookup", "repro.serve.paging", "BlockPool.lookup", _share_hit, {"register": "pool"}),
    ("paging.cow", "repro.serve.paging", "BlockPool.copy_block", None, {}),
    ("paging.swap_out", "repro.serve.paging", "PagedKVCache.swap_out", _swap_bytes, {}),
    ("paging.restore", "repro.serve.paging", "PagedKVCache.restore", None, {}),
    ("quant.encode", "repro.serve.quant", "encode_chunk", _rows_encoded, {}),
    ("quant.decode", "repro.serve.quant", "decode_chunk", None, {}),
    ("quant.decode", "repro.core.compiled", "gather_dequant_int8", None, {}),
    ("loop.step", "repro.serve.loop", "ContinuousBatchingScheduler.step", _loop_tokens,
     {"register": "loop"}),
    ("router.submit", "repro.serve.router", "ReplicaRouter.submit", None, {"register": "router"}),
    ("router.step", "repro.serve.router", "ReplicaRouter.step", None, {"register": "router"}),
    ("edge.submit", "repro.serve.edge", "AsyncServingEdge.submit", None, {"register": "edge"}),
    ("obs.record", "repro.obs.tracing", "TraceBuffer.start_span", None, {}),
    ("obs.record", "repro.obs.tracing", "TraceBuffer.event", None, {}),
)

#: float rounding of perf_counter differences; anything below is a real defect
NEGATIVE_SLACK = 1e-9

_ONESHOT_KERNELS = ("core.local", "core.global", "core.dilated", "core.csr", "core.flash", "core.merge")
_SERVER_SPANS = ("server.serve", "server.prefill_chunks", "server.decode_steps", "server.speculate_steps")


class Tracer:
    """In-memory span recorder with per-name self and inclusive time."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_of = array("i")
        self.parent_of = array("q")
        self.request_of = array("q")
        self.calls: Dict[str, int] = defaultdict(int)
        #: inclusive seconds, counted only for the outermost span of a name
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.negative_self: List[Tuple[str, float]] = []
        #: spans closed while a later-opened span was still open
        self.misnested: List[str] = []
        #: request id stamped on spans opened while the benchmark sends that request
        self.request_id = -1
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self.registered: Dict[str, "weakref.WeakKeyDictionary"] = defaultdict(
            weakref.WeakKeyDictionary
        )
        self._blocks_peak = 0
        #: off while the benchmark runs its own checks between timed units
        self.recording = True

    @contextlib.contextmanager
    def paused(self):
        """Let wrapped calls through unrecorded (the benchmark's own replays)."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    # ------------------------------------------------------------------ #
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = defaultdict(int)
        return local

    def enter(self, name: str) -> list:
        local = self._state()
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = local.stack[-1][0] if local.stack else -1
        index = len(self.starts)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.name_of.append(name_id)
        self.parent_of.append(parent)
        self.request_of.append(self.request_id)
        local.depth[name] += 1
        frame = [index, name, 0.0, 0.0]  # index, name, start, child seconds
        local.stack.append(frame)
        frame[2] = self.starts[index] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        local = self._local
        index, name, start, children = frame
        if local.stack[-1] is frame:
            local.stack.pop()
        else:  # an async wrapper resumed after another span opened
            self.misnested.append(name)
            local.stack.remove(frame)
        self.ends[index] = end
        duration = end - start
        own = duration - children
        if own < -NEGATIVE_SLACK:
            self.negative_self.append((name, own))
        self.calls[name] += 1
        self.self_time[name] += own
        local.depth[name] -= 1
        if local.depth[name] == 0:
            self.total[name] += duration
        if local.stack:
            local.stack[-1][3] += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def sample_blocks(self) -> None:
        in_use = sum(pool.blocks_in_use for pool in self.registered["pool"])
        self._blocks_peak = max(self._blocks_peak, in_use)

    # ------------------------------------------------------------------ #
    def _wrap(self, name, fn, hook, register):
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if not tracer.recording:
                    return await fn(*args, **kwargs)
                if register:
                    tracer._register(register, args[0])
                frame = tracer.enter(name)
                try:
                    result = await fn(*args, **kwargs)
                    if hook is not None:
                        hook(tracer, args, kwargs, result)
                    return result
                except BaseException:
                    tracer.count(name + ".raised")
                    raise
                finally:
                    tracer.exit(frame)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if register:
                tracer._register(register, args[0])
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
            except BaseException:
                tracer.count(name + ".raised")
                raise
            finally:
                tracer.exit(frame)

        return traced

    def _register(self, kind: str, obj) -> None:
        table = self.registered[kind]
        if obj not in table:
            table[obj] = _baseline(kind, obj)

    def install(self) -> None:
        """Patch every target at each of its bindings (idempotent per run)."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        loaded = [m for n, m in sorted(sys.modules.items()) if n.startswith("repro") and m]
        for name, module_name, path, hook, options in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(name, original, hook, options.get("register")))
                continue
            original = getattr(module, path)
            traced = self._wrap(name, original, hook, options.get("register"))
            only = options.get("only")
            bound = 0
            for candidate in loaded:
                if only is not None and candidate.__name__ not in only:
                    continue
                for attr, value in list(vars(candidate).items()):
                    if value is original:
                        self._patch(candidate, attr, traced)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"no module binds {module_name}.{path}")

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def check(self, workload: str) -> None:
        """Fail loudly on a silent wrapper, a misnested span or a negative self time."""
        silent = [name for name in SPANS[workload] if self.calls.get(name, 0) == 0]
        if silent:
            raise RuntimeError(
                f"traced {workload}: wrappers recorded no calls for {', '.join(silent)}"
            )
        if self.misnested:
            raise RuntimeError(
                f"traced {workload}: {len(self.misnested)} spans closed out of order "
                f"(first: {self.misnested[0]})"
            )
        if self.negative_self:
            name, value = self.negative_self[0]
            raise RuntimeError(
                f"traced {workload}: {len(self.negative_self)} spans have negative "
                f"self time (first: {name} {value:.3e} s)"
            )

    def dump(self, path, meta: dict) -> None:
        """Write every span and the run's metadata as one ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent_of, dtype=np.int64),
            request=np.frombuffer(self.request_of, dtype=np.int64),
            meta=np.array(json.dumps(meta)),
        )

    # ------------------------------------------------------------------ #
    def layer_metrics(self, context: dict) -> Dict[str, float]:
        """Every per-layer metric of :data:`layers.PER_LAYER`, from spans and counts.

        ``context`` carries what the workload measured itself: the useful edges
        of the one-shot requests, per-request queue waits, generator
        lateness, the recorder, and the tracing overhead.
        """
        total, calls, counts, own = self.total, self.calls, self.counts, self.self_time
        pools = _deltas(self.registered["pool"], "pool")
        loops = _deltas(self.registered["loop"], "loop")
        routers = self.registered["router"]
        edges = self.registered["edge"]
        useful = context.get("useful_edges", 0)
        lookups = calls.get("paging.lookup", 0)
        drafted = counts.get("speculate.drafted", 0)
        obs = context.get("obs")
        metrics = {
            "plan.compile_s": total["plan.compile"],
            "plan.compiles": calls.get("plan.compile", 0),
            "plan.cache_hit_rate": _ratio(counts["plan.lookup.hit"], calls.get("plan.lookup", 0)),
            "masks.to_csr_s": total["masks.to_csr"],
            "core.kernel_s": sum(total[name] for name in _ONESHOT_KERNELS),
            "core.local_s": total["core.local"],
            "core.global_s": total["core.global"],
            "core.dilated_s": total["core.dilated"],
            "core.csr_s": total["core.csr"],
            "core.edges": counts["core.edges"],
            "core.work_ratio": _ratio(counts["core.edges"], useful),
            "core.segment_reduce_s": total["core.segment_reduce"],
            "core.gather_rows_s": total["core.gather_rows"],
            "core.bytes_gathered": counts["core.bytes_gathered"],
            "server.serve_s": total["server.serve"],
            "server.serve_calls": calls.get("server.serve", 0),
            "server.prefill_chunks_s": total["server.prefill_chunks"],
            "server.prefill_chunks_calls": calls.get("server.prefill_chunks", 0),
            "server.decode_steps_s": total["server.decode_steps"],
            "server.decode_steps_calls": calls.get("server.decode_steps", 0),
            "server.speculate_steps_s": total["server.speculate_steps"],
            "server.speculate_steps_calls": calls.get("server.speculate_steps", 0),
            "server.self_s": sum(own[name] for name in _SERVER_SPANS),
            "decode.step_s": total["decode.step"],
            "decode.prefill_s": total["decode.prefill"],
            "decode.self_s": own["decode.step"] + own["decode.prefill"],
            "decode.streams_per_call": _ratio(counts["decode.streams"], counts["decode.stacked_calls"]),
            "paging.gather_s": total["paging.gather"],
            "paging.gather_calls": calls.get("paging.gather", 0),
            "paging.extend_s": total["paging.extend"],
            "paging.extend_calls": calls.get("paging.extend", 0),
            "paging.reserve_failed": counts["paging.reserve.raised"],
            "paging.share_hit_rate": _ratio(counts["paging.lookup.hit"], lookups),
            "paging.cow_copies": calls.get("paging.cow", 0),
            "paging.evictions": sum(d["evictions"] for d in pools),
            "paging.swap_out_s": total["paging.swap_out"],
            "paging.restore_s": total["paging.restore"],
            "paging.swap_bytes": counts["paging.swap_bytes"],
            "paging.blocks_peak": self._blocks_peak,
            "quant.encode_s": total["quant.encode"],
            "quant.decode_s": total["quant.decode"],
            "quant.rows_encoded": counts["quant.rows_encoded"],
            "loop.steps": calls.get("loop.step", 0),
            "loop.step_s": total["loop.step"],
            "loop.self_s": own["loop.step"],
            "loop.batch_tokens_mean": _ratio(counts["loop.tokens"], calls.get("loop.step", 0)),
            "loop.queue_wait_p50_ms": _percentile_ms(context.get("queue_waits", ()), 50),
            "loop.preemptions": sum(d["preemptions"] for d in loops),
            "loop.recomputed_tokens": sum(d["recomputed"] for d in loops),
            "speculate.drafted": drafted,
            "speculate.accept_rate": _ratio(counts["speculate.accepted"], drafted),
            "speculate.rolled_back": counts["speculate.rolled_back"],
            "speculate.fallbacks": counts["speculate.fallbacks"],
            "router.submit_s": total["router.submit"],
            "router.step_self_s": own["router.step"],
            "router.route_hit_rate": _route_hit_rate(routers),
            "router.rebalanced": sum(r.stats.moved_streams - base["moved"] for r, base in routers.items()),
            "router.replica_token_imbalance": _imbalance(routers),
            "edge.submit_s": total["edge.submit"],
            "edge.arrival_lag_p99_ms": _percentile_ms(context.get("arrival_lags", ()), 99),
            "edge.backpressure_holds": sum(e.stats.backpressure_holds - b["holds"] for e, b in edges.items()),
            "edge.throttled": sum(e.stats.throttled - b["throttled"] for e, b in edges.items()),
            "obs.trace_events": calls.get("obs.record", 0),
            "obs.series": len(obs.registry.snapshot().samples) if obs is not None and obs.enabled else 0,
            "trace.overhead_frac": context["overhead_frac"],
        }
        expected = [entry["name"] for entry in PER_LAYER]
        missing = sorted(set(expected) - set(metrics))
        if missing or len(metrics) != len(expected):
            raise RuntimeError(f"per-layer metrics out of sync with layers.py: {missing}")
        return {name: float(metrics[name]) for name in expected}


# --------------------------------------------------------------------------- #
def _baseline(kind: str, obj) -> dict:
    """Counters of a registered object when the traced run first saw it."""
    if kind == "pool":
        return {"evictions": obj.stats.evictions}
    if kind == "loop":
        stats = obj.stats.snapshot()
        return {"preemptions": stats.preemptions, "recomputed": stats.recompute_replayed_tokens}
    if kind == "router":
        stats = obj.stats
        return {
            "hits": stats.route_hits,
            "misses": stats.route_misses,
            "moved": stats.moved_streams,
            "tokens": [h.scheduler.stats.snapshot().tokens_total for h in obj.replicas],
        }
    if kind == "edge":
        return {"holds": obj.stats.backpressure_holds, "throttled": obj.stats.throttled}
    raise ValueError(kind)


def _deltas(table, kind: str) -> List[dict]:
    current = [(_baseline(kind, obj), base) for obj, base in table.items()]
    return [{key: now[key] - base[key] for key in base} for now, base in current]


def _route_hit_rate(routers) -> float:
    hits = sum(r.stats.route_hits - base["hits"] for r, base in routers.items())
    misses = sum(r.stats.route_misses - base["misses"] for r, base in routers.items())
    return _ratio(hits, hits + misses)


def _imbalance(routers) -> float:
    """Most-loaded replica's tokens over the mean replica's, during the run."""
    worst = 0.0
    for router, base in routers.items():
        now = [h.scheduler.stats.snapshot().tokens_total for h in router.replicas]
        served = np.array(now, dtype=float) - np.array(base["tokens"], dtype=float)
        if served.sum() > 0:
            worst = max(worst, float(served.max() / served.mean()))
    return worst


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def _percentile_ms(values, q: float) -> float:
    values = list(values)
    return float(np.percentile(values, q) * 1e3) if values else 0.0
