"""Incremental autoregressive decoding: KV-cache sessions over decode plans.

One-shot attention recomputes every mask edge per call; the heavy-traffic
serving workload is *decoding*, where tokens arrive one at a time and the
work-optimal cost of the new token is O(edges of its own mask row · d) — the
paper's per-edge work argument (Section IV-B) applied to the streaming
pattern of the sequence-parallel systems it surveys.  This module provides
that path:

* :class:`KVCache` — preallocated, geometrically-doubling ``(..., L, d)``
  key/value buffers with batch/head leading axes, so appending a token is an
  O(d) copy and growth is amortised O(1).
* :class:`DecodeSession` — one decoding stream: a decode-mode
  :class:`~repro.serve.plan.ExecutionPlan` (whose precompiled
  :class:`~repro.masks.rows.RowProgram` yields each new token's neighbour
  set), the growing KV cache, and the incremental attention step that scores
  one query row against the cached keys via the online-softmax state.
* :func:`stacked_decode_step` / :func:`stacked_prefill` — the
  continuous-batching primitives: decode steps (or same-position prompt
  chunks) of several sessions with the same neighbour set stack into a
  single vectorized kernel pass (used by
  :meth:`repro.serve.scheduler.AttentionServer.decode_steps` /
  :meth:`~repro.serve.scheduler.AttentionServer.prefill_chunks` and the
  iteration-level loop in :mod:`repro.serve.loop`).
* :func:`decode_reference_mask` — the causally-clipped CSR mask a full decode
  loop attends, so ``engine.run`` on it reproduces an entire prefill+steps
  loop in one shot (the verification oracle for tests and benchmarks).

A decode step at position ``i`` attends the causal clip of mask row ``i``
evaluated at the session's *horizon* (keys ``j <= i`` only — later tokens do
not exist yet), which makes the incremental loop exactly equal to a one-shot
run over :func:`decode_reference_mask`.
"""

from __future__ import annotations

from math import prod
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dense import resolve_scale
from repro.core.engine import MaskInput
from repro.core.online_softmax import (
    OnlineSoftmaxState,
    accumulator_dtype,
    segment_softmax_stats,
    segment_weighted_sum,
)
from repro.core.result import AttentionResult, OpCounts
from repro.masks.base import as_mask_spec
from repro.masks.rows import compile_row_program
from repro.masks.structured import DenseMask
from repro.serve.paging import BlockPool, PagedKVCache, stacked_physical
from repro.serve.plan import ExecutionPlan, compile_plan
from repro.serve.quant import EncodedChunk
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import require

#: Initial KV-cache capacity (tokens) before the first geometric doubling.
DEFAULT_INITIAL_CAPACITY = 16


class KVCache:
    """Growing key/value buffers for one decoding stream.

    Buffers are ``batch_shape + (capacity, d)`` with the batch/head axes
    leading, matching the layout every kernel treats as first-class; only the
    first :attr:`length` rows are live.  Appending beyond capacity reallocates
    at twice the size (geometric doubling, amortised O(1) per token), capped
    at ``max_length`` when given.
    """

    def __init__(
        self,
        batch_shape: Tuple[int, ...],
        key_dim: int,
        value_dim: int,
        *,
        dtype=np.float32,
        capacity: int = DEFAULT_INITIAL_CAPACITY,
        max_length: Optional[int] = None,
    ) -> None:
        require(key_dim > 0 and value_dim > 0, "key/value dims must be positive")
        require(capacity >= 1, "initial capacity must be >= 1")
        self.batch_shape = tuple(int(s) for s in batch_shape)
        self.key_dim = int(key_dim)
        self.value_dim = int(value_dim)
        self.max_length = int(max_length) if max_length is not None else None
        require(
            self.max_length is None or self.max_length >= 1,
            "max_length must be >= 1 when given",
        )
        if self.max_length is not None:
            capacity = min(capacity, self.max_length)
        self._keys = np.empty(self.batch_shape + (capacity, self.key_dim), dtype=dtype)
        self._values = np.empty(self.batch_shape + (capacity, self.value_dim), dtype=dtype)
        self._length = 0
        self.grows = 0

    # ------------------------------------------------------------------ #
    @property
    def length(self) -> int:
        """Number of live tokens."""
        return self._length

    @property
    def capacity(self) -> int:
        """Allocated token slots."""
        return int(self._keys.shape[-2])

    @property
    def dtype(self) -> np.dtype:
        return self._keys.dtype

    @property
    def nbytes(self) -> int:
        """Allocated buffer bytes (capacity, not just live tokens)."""
        return int(self._keys.nbytes + self._values.nbytes)

    def keys(self) -> np.ndarray:
        """View of the live key rows, ``batch_shape + (length, d_k)``."""
        return self._keys[..., : self._length, :]

    def values(self) -> np.ndarray:
        """View of the live value rows, ``batch_shape + (length, d_v)``."""
        return self._values[..., : self._length, :]

    def _check_live(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions)
        if positions.size:
            require(
                int(positions.min(initial=0)) >= 0,
                "gather with negative positions",
            )
            require(
                int(positions.max(initial=0)) < self._length,
                "gather past the live token range",
            )
        return positions

    def gather_keys(self, positions: np.ndarray) -> np.ndarray:
        """Key rows of live token ``positions``, ``batch_shape + (E, d_k)``.

        Same contract as :meth:`PagedKVCache.gather_keys
        <repro.serve.paging.PagedKVCache.gather_keys>` — the kernels consume
        only gathered views, so contiguous and paged caches interchange
        (including the refusal to read past the live rows into slack
        capacity).
        """
        return self._keys[..., self._check_live(positions), :]

    def gather_values(self, positions: np.ndarray) -> np.ndarray:
        """Value rows of live token ``positions``, ``batch_shape + (E, d_v)``."""
        return self._values[..., self._check_live(positions), :]

    # ------------------------------------------------------------------ #
    def _ensure_capacity(self, extra: int) -> None:
        needed = self._length + extra
        require(
            self.max_length is None or needed <= self.max_length,
            f"KV cache full: {needed} tokens exceed the decode horizon {self.max_length}",
        )
        if needed <= self.capacity:
            return
        new_capacity = self.capacity
        while new_capacity < needed:
            new_capacity *= 2
        if self.max_length is not None:
            new_capacity = min(new_capacity, self.max_length)
        keys = np.empty(self.batch_shape + (new_capacity, self.key_dim), dtype=self.dtype)
        values = np.empty(self.batch_shape + (new_capacity, self.value_dim), dtype=self.dtype)
        keys[..., : self._length, :] = self.keys()
        values[..., : self._length, :] = self.values()
        self._keys, self._values = keys, values
        self.grows += 1

    def extend(self, k_block: np.ndarray, v_block: np.ndarray) -> int:
        """Append a block of tokens; returns the first appended position."""
        k_block = np.asarray(k_block)
        v_block = np.asarray(v_block)
        require(k_block.ndim >= 2, "key block must be batch_shape + (T, d_k)")
        count = int(k_block.shape[-2])
        require(
            k_block.shape == self.batch_shape + (count, self.key_dim),
            "key block shape does not match the cache layout",
        )
        require(
            v_block.shape == self.batch_shape + (count, self.value_dim),
            "value block shape does not match the cache layout",
        )
        self._ensure_capacity(count)
        start = self._length
        self._keys[..., start : start + count, :] = k_block
        self._values[..., start : start + count, :] = v_block
        self._length += count
        return start

    def append(self, k_row: np.ndarray, v_row: np.ndarray) -> int:
        """Append one token (rows shaped ``batch_shape + (d,)``); returns its position."""
        return self.extend(
            np.asarray(k_row)[..., None, :], np.asarray(v_row)[..., None, :]
        )

    def truncate(self, length: int) -> None:
        """Discard tokens past ``length`` (speculative-decode rollback).

        The contiguous twin of the paged cache's speculative window: rows
        above ``length`` become dead capacity (never re-read — every gather
        checks the live range), so rejected draft tokens vanish without a
        copy and the accepted prefix keeps its exact written bytes.
        """
        require(0 <= length <= self._length, "truncate target outside the live range")
        self._length = int(length)


# --------------------------------------------------------------------------- #
# Row attention core
# --------------------------------------------------------------------------- #
def _edge_attention(
    q_rows: np.ndarray,
    k_edges: np.ndarray,
    v_edges: np.ndarray,
    indptr: np.ndarray,
    *,
    scale_value: float,
    out_dtype,
    return_scores: bool = False,
):
    """Attention of ``R`` query rows over pre-gathered per-edge K/V rows.

    ``q_rows`` is ``(..., R, d_k)``; ``k_edges``/``v_edges`` hold one
    key/value row per mask edge in CSR order (``(..., E, d)``), ``indptr``
    delimits each query row's edges.  The per-row softmax statistics are
    folded through an :class:`OnlineSoftmaxState` so empty rows (fully masked
    queries) finalise to zero exactly like the one-shot kernels.

    ``return_scores=True`` appends the raw scaled ``(..., E)`` score vector to
    the return tuple — the speculative verify pass reads per-row argmaxes off
    it without recomputing the dot products.
    """
    acc_dtype = accumulator_dtype(q_rows.dtype)
    q_acc = np.asarray(q_rows, dtype=acc_dtype)
    k_acc = np.asarray(k_edges, dtype=acc_dtype)
    v_acc = np.asarray(v_edges, dtype=acc_dtype)
    num_rows = int(indptr.size - 1)
    lengths = np.diff(indptr)
    edge_rows = np.repeat(np.arange(num_rows), lengths)
    scores = (
        np.einsum("...ed,...ed->...e", q_acc[..., edge_rows, :], k_acc) * scale_value
    )
    row_max, row_sum, weights = segment_softmax_stats(scores, indptr)
    accumulator = segment_weighted_sum(weights, v_acc, indptr, v_acc.shape[-1])
    state = OnlineSoftmaxState(row_max=row_max, row_sum=row_sum, accumulator=accumulator)
    if return_scores:
        return state.finalize(dtype=out_dtype), state, scores
    return state.finalize(dtype=out_dtype), state


#: Either cache flavour a session may own: the private contiguous buffer or a
#: block-table view over a shared pool.  Kernels only ever see gathered rows.
AnyKVCache = Union[KVCache, PagedKVCache]


def _rows_attention(
    q_rows: np.ndarray,
    cache: AnyKVCache,
    cols_list: Sequence[np.ndarray],
    *,
    scale: Optional[float],
) -> Tuple[np.ndarray, OnlineSoftmaxState, int]:
    """Attend ``R`` query rows against the cache via per-row column lists."""
    indptr = np.concatenate(([0], np.cumsum([c.size for c in cols_list]))).astype(np.int64)
    cols = np.concatenate(cols_list) if len(cols_list) > 1 else np.asarray(cols_list[0])
    scale_value = resolve_scale(scale, q_rows.shape[-1])
    output, state = _edge_attention(
        q_rows,
        cache.gather_keys(cols),
        cache.gather_values(cols),
        indptr,
        scale_value=scale_value,
        out_dtype=q_rows.dtype,
    )
    return output, state, int(cols.size)


# --------------------------------------------------------------------------- #
# Decode sessions
# --------------------------------------------------------------------------- #
class DecodeSession:
    """One autoregressive decoding stream over a decode-mode execution plan.

    The session owns a :class:`KVCache` (allocated lazily from the first
    tokens it sees, so batch shape, head dims and dtype are inferred) and the
    plan's precompiled :class:`~repro.masks.rows.RowProgram`.  ``prefill``
    processes the prompt in one vectorized pass over its causal rows;
    ``step`` appends a single token and attends only that token's mask row —
    O(row edges · d) instead of the O(all edges · d) a full recompute pays.

    ``plan.length`` is the session's *horizon*: the pattern length mask rows
    are evaluated at, and the maximum number of tokens the session may hold.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        *,
        retain_outputs: bool = False,
        initial_capacity: int = DEFAULT_INITIAL_CAPACITY,
        session_id: Optional[int] = None,
        cache: Optional[AnyKVCache] = None,
    ) -> None:
        require(
            plan.mode == "decode" and plan.decode is not None,
            "DecodeSession needs a plan compiled with mode='decode'",
        )
        self.plan = plan
        self.program = plan.decode
        self.retain_outputs = bool(retain_outputs)
        self.initial_capacity = int(initial_capacity)
        self.session_id = session_id
        #: ``None`` until the first tokens arrive (layout is inferred), unless
        #: a pre-built cache — typically a :class:`~repro.serve.paging.
        #: PagedKVCache` over a shared pool — was injected at open.
        self.cache: Optional[AnyKVCache] = cache
        self.closed = False
        self.ops = OpCounts()
        self.steps_taken = 0
        self.prefilled_tokens = 0
        #: Whether the plan came from a warm cache (set by the server at open).
        self.plan_cache_hit = False
        self._outputs: List[np.ndarray] = []

    # ------------------------------------------------------------------ #
    @classmethod
    def start(
        cls,
        mask: MaskInput,
        horizon: int,
        *,
        scale: Optional[float] = None,
        executor: str = "vectorized",
        retain_outputs: bool = False,
        initial_capacity: int = DEFAULT_INITIAL_CAPACITY,
        pool: Optional[BlockPool] = None,
    ) -> "DecodeSession":
        """Compile a decode plan for ``mask`` at ``horizon`` and open a session.

        Independently started sessions whose steps attend the same
        neighbour set can still coalesce them (see
        :func:`stacked_decode_step`).  Passing ``pool`` backs the session
        with a :class:`~repro.serve.paging.PagedKVCache` over that shared
        block pool instead of a private buffer.
        """
        plan = compile_plan(mask, horizon, executor=executor, scale=scale, mode="decode")
        cache = PagedKVCache(pool, max_length=horizon) if pool is not None else None
        return cls(
            plan,
            retain_outputs=retain_outputs,
            initial_capacity=initial_capacity,
            cache=cache,
        )

    # ------------------------------------------------------------------ #
    @property
    def horizon(self) -> int:
        """Pattern length rows are evaluated at (upper bound on tokens held)."""
        return self.plan.length

    @property
    def position(self) -> int:
        """Index the next appended token will occupy."""
        return self.cache.length if self.cache is not None else 0

    @property
    def batch_shape(self) -> Tuple[int, ...]:
        """Leading batch/head axes (empty until the first tokens arrive)."""
        return self.cache.batch_shape if self.cache is not None else ()

    @property
    def kv_cache_bytes(self) -> int:
        """Bytes currently allocated (private) or mapped (paged) by the cache."""
        return self.cache.nbytes if self.cache is not None else 0

    @property
    def paged(self) -> bool:
        """Whether the session's KV cache lives in a shared block pool."""
        return isinstance(self.cache, PagedKVCache)

    # ------------------------------------------------------------------ #
    def _ensure_cache(self, k_block: np.ndarray, v_block: np.ndarray) -> None:
        if self.cache is not None:
            require(
                k_block.shape[:-2] == self.cache.batch_shape
                and k_block.shape[-1] == self.cache.key_dim
                and v_block.shape[-1] == self.cache.value_dim,
                f"token batch shape {k_block.shape[:-2]} / dims "
                f"({k_block.shape[-1]}, {v_block.shape[-1]}) do not match the "
                f"cache layout {self.cache.batch_shape} + "
                f"({self.cache.key_dim}, {self.cache.value_dim})",
            )
            return
        self.cache = KVCache(
            k_block.shape[:-2],
            k_block.shape[-1],
            v_block.shape[-1],
            dtype=k_block.dtype,
            capacity=self.initial_capacity,
            max_length=self.horizon,
        )

    def _absorb(self, result: AttentionResult) -> None:
        self.ops = self.ops + result.ops
        if self.retain_outputs:
            self._outputs.append(result.output)

    def _as_token_slice(self, array: np.ndarray) -> np.ndarray:
        """Normalise a single-token input to ``batch_shape + (1, d)``."""
        array = np.asarray(array)
        if self.cache is not None:
            row_ndim = len(self.cache.batch_shape) + 1
            if array.ndim == row_ndim:
                return array[..., None, :]
            require(
                array.ndim == row_ndim + 1 and array.shape[-2] == 1,
                "decode steps take exactly one token: (..., d) or (..., 1, d)",
            )
            return array
        # before the cache exists, the batch shape is unknown: a bare (d,)
        # vector is a row, anything batched must carry the explicit token
        # axis — (..., 1, d) — or the leading axes would be ambiguous
        if array.ndim == 1:
            return array[None, :]
        require(
            array.ndim >= 2 and array.shape[-2] == 1,
            "first decode step with batch axes needs an explicit token axis: "
            "pass (..., 1, d) (or prefill first)",
        )
        return array

    # ------------------------------------------------------------------ #
    def prefill(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> AttentionResult:
        """Process a prompt block ``(..., P, d)``: fill the cache, attend causally.

        Rows ``start..start+P-1`` each attend the causal clip of their mask
        row (keys up to and including themselves), in one vectorized pass
        over the block's edges.  May be called repeatedly (chunked prefill).
        """
        require(not self.closed, "session is closed")
        q, k, v = np.asarray(q), np.asarray(k), np.asarray(v)
        require(q.ndim >= 2, "prefill takes (..., P, d) blocks")
        require(q.shape == k.shape, "q and k must have matching shapes")
        require(v.shape[:-1] == q.shape[:-1], "v must cover the same rows as q")
        count = int(q.shape[-2])
        require(count >= 1, "prefill needs at least one token")
        self._ensure_cache(k, v)
        start = self.cache.length
        require(
            start + count <= self.horizon,
            f"prefill of {count} tokens at position {start} exceeds horizon {self.horizon}",
        )
        self.cache.extend(k, v)
        cols_list = [self.program.causal_row(i) for i in range(start, start + count)]
        output, state, edges = _rows_attention(q, self.cache, cols_list, scale=self.plan.scale)
        ops = OpCounts.for_edges(
            edges, q.shape[-1], v.shape[-1], batch=prod(self.cache.batch_shape)
        )
        result = AttentionResult(
            output=output,
            row_max=state.row_max,
            row_sum=state.row_sum,
            ops=ops,
            algorithm="decode-prefill",
            meta={"positions": (start, start + count), "edges": edges},
        )
        self.prefilled_tokens += count
        self._absorb(result)
        return result

    def step(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> AttentionResult:
        """Append one token and attend its mask row against the cached K/V.

        ``q``/``k``/``v`` are one-token slices (``(..., d)`` or
        ``(..., 1, d)``).  The returned result's output is
        ``batch_shape + (1, d_v)`` — the new token's attention row.
        """
        require(not self.closed, "session is closed")
        q = self._as_token_slice(q)
        k = self._as_token_slice(k)
        v = self._as_token_slice(v)
        require(q.shape == k.shape, "q and k must have matching shapes")
        require(v.shape[:-1] == q.shape[:-1], "v must cover the same rows as q")
        self._ensure_cache(k, v)
        position = self.cache.length
        require(
            position < self.horizon,
            f"decode step at position {position} exceeds horizon {self.horizon}",
        )
        self.cache.extend(k, v)
        cols = self.program.causal_row(position)
        output, state, edges = _rows_attention(q, self.cache, [cols], scale=self.plan.scale)
        ops = OpCounts.for_edges(
            edges, q.shape[-1], v.shape[-1], batch=prod(self.cache.batch_shape)
        )
        result = AttentionResult(
            output=output,
            row_max=state.row_max,
            row_sum=state.row_sum,
            ops=ops,
            algorithm="decode-step",
            meta={"position": position, "edges": edges},
        )
        self.steps_taken += 1
        self._absorb(result)
        return result

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Finish the stream: release paged blocks back to their pool.

        Idempotent.  A closed session refuses further prefills and steps;
        retained outputs stay readable.  For a private-cache session this
        only marks the stream finished (the buffer is garbage-collected with
        the session); for a paged session every block reference returns to
        the pool, where prefix-registered blocks park in the evictable LRU.
        """
        if self.closed:
            return
        self.closed = True
        if isinstance(self.cache, PagedKVCache):
            self.cache.release()

    def outputs(self) -> np.ndarray:
        """All retained outputs concatenated to ``batch_shape + (length, d_v)``.

        Requires ``retain_outputs=True``; row ``i`` is the attention output
        token ``i`` received at the step (or prefill) that produced it.
        """
        require(self.retain_outputs, "session was opened with retain_outputs=False")
        require(len(self._outputs) > 0, "no tokens decoded yet")
        return np.concatenate(self._outputs, axis=-2)


# --------------------------------------------------------------------------- #
# Continuous batching: which steps share one stacked kernel pass
# --------------------------------------------------------------------------- #
def _layout_key(q, k, v) -> Tuple:
    """Shapes and dtypes a stacked pass needs identical across its members."""
    q, v = np.asarray(q), np.asarray(v)
    return (q.shape, v.shape, q.dtype.str, np.asarray(k).dtype.str, v.dtype.str)


def plan_group_key(session: "DecodeSession", q, k, v) -> Tuple:
    """Group key of a prefill chunk or speculative window: plan, position, layout.

    Multi-row work stays keyed by plan.  Keying prefill by neighbour set
    would merge nearly every stream's prompt chunk at position 0 into one
    group, and one very wide group makes the first iteration slower than
    several narrow ones (its kernel pass and stacked arrays grow with the
    group), which raises time to first token and peak memory.  A speculative
    window's draft rows come from its own plan's mask, so speculation keeps
    plan identity too.
    """
    return (session.plan.key or id(session.plan), session.position) + _layout_key(q, k, v)


def decode_group_key(session: "DecodeSession", q, k, v, rows: Dict) -> Tuple:
    """Group key of a one-token decode step: the neighbour set it attends.

    A step computes only the edges of its causal mask row, so steps fuse
    whenever they attend the same row at the same position with the same
    resolved scale, shapes and dtypes, whatever plan (horizon, or mask that
    coincides there) produced the row.  ``rows`` memoises each
    ``(program, position)`` row; pass one fresh dict per grouping call.  A
    step past its session's horizon keys on no row, so the stacked pass
    reports the horizon error.
    """
    position = session.position
    memo = (id(session.program), position)
    row = rows.get(memo)
    if row is None and position < session.horizon:
        cols = session.program.causal_row(position)
        row = rows[memo] = np.asarray(cols, dtype=np.int64).tobytes()
    scale = resolve_scale(session.plan.scale, np.shape(q)[-1])
    return (row, scale, position) + _layout_key(q, k, v)


def _require_shared_rows_and_position(
    sessions: Sequence["DecodeSession"], verb: str, count: int, head_dim: int
) -> None:
    """Assert every session sits at the first one's position and attends its rows.

    A session on another plan passes when its causal rows
    ``position..position+count-1`` and resolved scale equal the first
    session's; the comparison runs once per distinct plan.  Rows past a
    horizon are not compared: the caller's per-session horizon check
    rejects them.
    """
    first = sessions[0]
    position = first.position
    scale = resolve_scale(first.plan.scale, head_dim)
    stop = position + count
    matched = {first.plan.key or id(first.plan)}
    for session in sessions[1:]:
        require(session.position == position, f"{verb} needs sessions at one position")
        plan = session.plan
        key = plan.key or id(plan)
        if key in matched:
            continue
        same = resolve_scale(plan.scale, head_dim) == scale and (
            stop > min(first.horizon, session.horizon)
            or all(
                np.array_equal(first.program.causal_row(i), session.program.causal_row(i))
                for i in range(position, stop)
            )
        )
        require(same, f"{verb} needs sessions sharing one neighbour set")
        matched.add(key)


def _stacked_extend(
    sessions: Sequence["DecodeSession"],
    k_rows: Sequence[np.ndarray],
    v_rows: Sequence[np.ndarray],
    tokens: int,
) -> None:
    """Atomically extend every session's cache by one ``tokens``-row block.

    Paged sessions reserve every block the batch needs per pool BEFORE any
    cache advances — pool exhaustion fails the whole batch with no block
    table advanced (the PR 3 atomicity guarantee).  Prefix-share hits consume
    no reservation; leftover entries return to their pools.  Each pool's
    rows are encoded in one call; probing, copy-on-write and fingerprints
    stay per session.
    """
    pending: Dict[BlockPool, int] = {}
    members: Dict[BlockPool, List[int]] = {}
    for index, session in enumerate(sessions):
        if isinstance(session.cache, PagedKVCache):
            pool = session.cache.pool
            pending[pool] = pending.get(pool, 0) + session.cache.plan_extend(tokens)
            members.setdefault(pool, []).append(index)
    reservations: Dict[BlockPool, List[int]] = {pool: [] for pool in pending}
    try:
        for pool, count in pending.items():
            reservations[pool].extend(pool.reserve(count))
    except Exception:
        for pool, blocks in reservations.items():
            if blocks:
                pool.release(blocks)
        raise
    try:
        payloads: Dict[int, EncodedChunk] = {}
        for pool, indices in members.items():
            k_stack = np.stack([k_rows[i] for i in indices])
            v_stack = np.stack([v_rows[i] for i in indices])
            require(
                k_stack.shape[1:] == pool.batch_shape + (tokens, pool.key_dim)
                and v_stack.shape[1:] == pool.batch_shape + (tokens, pool.value_dim),
                "token rows do not match the pool layout",
            )
            stacked = pool.encode(
                k_stack.astype(pool.dtype, copy=False), v_stack.astype(pool.dtype, copy=False)
            )
            for slot, index in enumerate(indices):
                payloads[index] = stacked.member(slot)
        for index, (session, k, v) in enumerate(zip(sessions, k_rows, v_rows)):
            payload = payloads.get(index)
            if payload is None:
                session._ensure_cache(k, v)
                session.cache.extend(k, v)
                continue
            cache = session.cache
            require(not cache.released, "cache was released back to the pool")
            cache._extend_encoded(payload, tokens, reservations[cache.pool])
    finally:
        # share hits consume no reservation; return what the batch left over
        for pool, blocks in reservations.items():
            if blocks:
                pool.release(blocks)


def _sessions_first(rows: np.ndarray, batch_ndim: int) -> np.ndarray:
    """Move a pool gather's ``batch_shape + (S, E, d)`` to ``(S,) + batch_shape + (E, d)``."""
    return np.ascontiguousarray(np.moveaxis(rows, batch_ndim, 0)) if batch_ndim else rows


def _gather_stacked(
    sessions: Sequence["DecodeSession"], cols: np.ndarray, *, values: bool = True
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """K (and V) rows at ``cols`` for every session, ``(S,) + batch_shape + (E, d)``.

    Sessions paged on one pool share one ``(S, E)`` arena-row index
    (:func:`~repro.serve.paging.stacked_physical`) and one gather per arena;
    only private :class:`KVCache` sessions gather one by one.  ``values=False``
    skips the value gather and returns ``None`` in its place.
    """
    groups: Dict[Optional[BlockPool], List[int]] = {}
    for index, session in enumerate(sessions):
        cache = session.cache
        pool = cache.pool if isinstance(cache, PagedKVCache) else None
        groups.setdefault(pool, []).append(index)
    parts = []
    for pool, indices in groups.items():
        caches = [sessions[i].cache for i in indices]
        if pool is None:
            k_sel = np.stack([c.gather_keys(cols) for c in caches])
            v_sel = np.stack([c.gather_values(cols) for c in caches]) if values else None
        else:
            physical = stacked_physical(caches, cols)
            batch_ndim = len(pool.batch_shape)
            k_sel = _sessions_first(pool.decode_key_rows(physical), batch_ndim)
            v_sel = (
                _sessions_first(pool.decode_value_rows(physical), batch_ndim) if values else None
            )
        parts.append((indices, k_sel, v_sel))
    if len(parts) == 1:
        return parts[0][1], parts[0][2]
    # a group spanning pools and private caches: restore the session order
    order = np.empty(len(sessions), dtype=np.int64)
    order[np.concatenate([indices for indices, _, _ in parts])] = np.arange(len(sessions))
    k_sel = np.concatenate([part[1] for part in parts])[order]
    v_sel = np.concatenate([part[2] for part in parts])[order] if values else None
    return k_sel, v_sel


def stacked_prefill(
    sessions: Sequence["DecodeSession"],
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
) -> List[AttentionResult]:
    """One prefill chunk for several sessions fused into a single kernel pass.

    The chunked-prefill twin of :func:`stacked_decode_step`: sessions at one
    position whose causal rows for the chunk coincide append
    identically-shaped ``batch_shape + (P, d)`` prompt chunks, and all their
    causal rows run through one stacked segment-softmax pass.  Block
    reservation is atomic per pool, so exhaustion fails the whole group
    before any block table advances.  Returns one
    per-session :class:`~repro.core.result.AttentionResult`, exactly equal to
    what individual :meth:`DecodeSession.prefill` calls would produce.
    """
    require(len(sessions) >= 1, "need at least one session")
    require(
        len(sessions) == len(qs) == len(ks) == len(vs),
        "sessions and prompt chunks must align",
    )
    first = sessions[0]
    if len(sessions) == 1:
        return [first.prefill(qs[0], ks[0], vs[0])]
    position = first.position

    # validate every chunk fully before mutating any session: a failure below
    # must not leave earlier sessions' caches advanced with orphan tokens
    q_list: List[np.ndarray] = []
    k_list: List[np.ndarray] = []
    v_list: List[np.ndarray] = []
    for session, q, k, v in zip(sessions, qs, ks, vs):
        require(not session.closed, "prefill on a closed session")
        q, k, v = np.asarray(q), np.asarray(k), np.asarray(v)
        require(q.ndim >= 2, "prefill takes (..., P, d) blocks")
        require(q.shape == k.shape, "q and k must have matching shapes")
        require(v.shape[:-1] == q.shape[:-1], "v must cover the same rows as q")
        if q_list:
            require(
                q.shape == q_list[0].shape and v.shape == v_list[0].shape,
                "stacked prefill needs identically-shaped chunks",
            )
        if session.cache is not None:
            require(
                k.shape[:-2] == session.cache.batch_shape
                and k.shape[-1] == session.cache.key_dim
                and v.shape[-1] == session.cache.value_dim,
                "prompt chunk does not match the session's cache layout",
            )
        count = int(q.shape[-2])
        require(count >= 1, "prefill needs at least one token")
        require(
            position + count <= session.horizon,
            f"prefill of {count} tokens at position {position} exceeds "
            f"horizon {session.horizon}",
        )
        q_list.append(q)
        k_list.append(k)
        v_list.append(v)
    count = int(q_list[0].shape[-2])
    _require_shared_rows_and_position(sessions, "stacked prefill", count, q_list[0].shape[-1])

    _stacked_extend(sessions, k_list, v_list, count)

    cols_list = [first.program.causal_row(i) for i in range(position, position + count)]
    indptr = np.concatenate(([0], np.cumsum([c.size for c in cols_list]))).astype(np.int64)
    cols = np.concatenate(cols_list) if len(cols_list) > 1 else np.asarray(cols_list[0])
    scale_value = resolve_scale(first.plan.scale, q_list[0].shape[-1])
    # stack sessions on a new leading axis: (S,) + batch_shape + (P|E, d)
    q_stack = np.stack(q_list)
    k_sel, v_sel = _gather_stacked(sessions, cols)
    output, state = _edge_attention(
        q_stack, k_sel, v_sel, indptr, scale_value=scale_value, out_dtype=q_stack.dtype
    )

    edges = int(cols.size)
    # every member has the same batch shape (checked above): one count serves all
    ops = OpCounts.for_edges(
        edges, q_stack.shape[-1], v_sel.shape[-1], batch=prod(q_stack.shape[1:-2])
    )
    results: List[AttentionResult] = []
    for index, session in enumerate(sessions):
        result = AttentionResult(
            output=output[index],
            row_max=state.row_max[index],
            row_sum=state.row_sum[index],
            ops=ops,
            algorithm="decode-prefill",
            meta={
                "positions": (position, position + count),
                "edges": edges,
                "coalesced": len(sessions),
            },
        )
        session.prefilled_tokens += count
        session._absorb(result)
        results.append(result)
    return results


def stacked_decode_step(
    sessions: Sequence[DecodeSession],
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
) -> List[AttentionResult]:
    """One decode step for several sessions fused into a single kernel pass.

    All sessions must sit at the same position with identically-shaped
    caches and share the new token's neighbour set (the same causal mask row
    and resolved scale; their plans may differ, e.g. in horizon); their
    query rows and gathered K/V stack along a new leading axis and the whole
    group runs through one vectorized segment-softmax pass — the
    continuous-batching shape of decode serving.
    Returns one per-session :class:`~repro.core.result.AttentionResult`,
    exactly equal to what individual :meth:`DecodeSession.step` calls would
    produce.
    """
    require(len(sessions) >= 1, "need at least one session")
    require(
        len(sessions) == len(qs) == len(ks) == len(vs),
        "sessions and token slices must align",
    )
    first = sessions[0]
    if len(sessions) == 1:
        return [first.step(qs[0], ks[0], vs[0])]

    position = first.position

    # validate every step fully before mutating any session: a failure below
    # must not leave earlier sessions' caches advanced with orphan tokens
    q_rows, k_rows, v_rows = [], [], []
    for session, q, k, v in zip(sessions, qs, ks, vs):
        require(not session.closed, "decode step on a closed session")
        q, k, v = session._as_token_slice(q), session._as_token_slice(k), session._as_token_slice(v)
        require(q.shape == k.shape, "q and k must have matching shapes")
        require(v.shape[:-1] == q.shape[:-1], "v must cover the same rows as q")
        require(position < session.horizon, "decode step exceeds the session horizon")
        if session.cache is not None:
            require(
                k.shape[:-2] == session.cache.batch_shape
                and k.shape[-1] == session.cache.key_dim
                and v.shape[-1] == session.cache.value_dim,
                "token slice does not match the session's cache layout",
            )
        if q_rows:
            require(
                q.shape == q_rows[0].shape and v.shape == v_rows[0].shape,
                "stacked decode steps need identically-shaped sessions",
            )
        q_rows.append(q)
        k_rows.append(k)
        v_rows.append(v)
    _require_shared_rows_and_position(sessions, "stacked decode steps", 1, q_rows[0].shape[-1])

    _stacked_extend(sessions, k_rows, v_rows, 1)

    cols = first.program.causal_row(position)
    indptr = np.array([0, cols.size], dtype=np.int64)
    scale_value = resolve_scale(first.plan.scale, q_rows[0].shape[-1])
    # stack sessions on a new leading axis: (S,) + batch_shape + (E, d)
    q_stack = np.stack(q_rows)
    k_sel, v_sel = _gather_stacked(sessions, cols)
    output, state = _edge_attention(
        q_stack, k_sel, v_sel, indptr, scale_value=scale_value, out_dtype=q_stack.dtype
    )

    # every member has the same batch shape (checked above): one count serves all
    ops = OpCounts.for_edges(
        int(cols.size), q_stack.shape[-1], v_sel.shape[-1], batch=prod(q_stack.shape[1:-2])
    )
    results: List[AttentionResult] = []
    for index, session in enumerate(sessions):
        result = AttentionResult(
            output=output[index],
            row_max=state.row_max[index],
            row_sum=state.row_sum[index],
            ops=ops,
            algorithm="decode-step",
            meta={"position": position, "edges": int(cols.size), "coalesced": len(sessions)},
        )
        session.steps_taken += 1
        session._absorb(result)
        results.append(result)
    return results


# --------------------------------------------------------------------------- #
# Verification oracle
# --------------------------------------------------------------------------- #
def decode_reference_mask(
    mask: MaskInput, length: int, *, horizon: Optional[int] = None
) -> CSRMatrix:
    """The causally-clipped mask a decode loop of ``length`` tokens attends.

    Row ``i`` is ``mask``'s row ``i`` evaluated at ``horizon`` (defaults to
    ``length``) clipped to keys ``j <= i``.  A one-shot
    ``engine.run(q, k, v, mask=decode_reference_mask(...))`` over the full
    tensors reproduces an entire ``prefill`` + ``step`` loop bit-for-bit up
    to accumulation order — the oracle the decode tests and benchmarks
    compare against.
    """
    require(length > 0, "length must be positive")
    horizon = length if horizon is None else int(horizon)
    require(horizon >= length, "horizon must be at least the decoded length")
    spec = DenseMask() if mask is None else as_mask_spec(mask)
    program = compile_row_program(spec, horizon)
    rows = [program.causal_row(i) for i in range(length)]
    return CSRMatrix.from_row_lists((length, length), rows)
