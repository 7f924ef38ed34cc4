"""The benchmark's three workloads: seeded inputs, the stack each drives, and checks.

Each workload class generates its inputs from the seed alone (the program
only ever receives the generated arrays and masks), builds a fresh serving
stack in :meth:`setup`, drives it in :meth:`run` for a time budget or for a
given number of work units, and verifies every output outside the timed
region.  A pass returns per-request :class:`Record` s from which
``run.py`` derives the end-to-end metrics.

All workloads pin their own recorder (``obs=``), keep the server serial
(``max_workers=1``) and step replicas serially, so no more threads run than
the two cores the benchmark is sized for.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core import compiled
from repro.core.explicit_kernels import csr_attention
from repro.masks.presets import bigbird_mask, longformer_dilated_mask, longformer_mask
from repro.masks.windowed import LocalMask
from repro.obs import NULL_OBS, Observability
from repro.serve import (
    AttentionRequest,
    AttentionServer,
    BlockPool,
    DecodeSession,
    LoopRequest,
    ServingClient,
    attention_tolerance,
    decode_reference_mask,
)

DIM = 32
BLOCK_SIZE = 16
#: float32 accumulation round-off allowed on top of the storage error bound
ROUNDOFF = 1e-5


@dataclass
class Record:
    """One request as its sender saw it: the host times of its events."""

    #: when the request was sent
    sent: float
    #: when each of its outputs arrived, in order
    times: List[float]
    #: index in ``times`` of the first generated token
    first: int
    tokens: int
    edges: int
    #: one output for the whole request: its inter-token gap is seconds per row
    one_shot: bool = False
    failed: bool = False
    #: the unit of work (epoch, job or session) the request belongs to
    unit: int = 0


@dataclass
class Pass:
    """What one measured pass produced: the same unit of work, repeated.

    Every unit sends the same requests and gets the same outputs, so units
    differ only in the time the host gave them; ``run.py`` computes the
    end-to-end metrics per unit and reports the median over the units.
    """

    #: wall seconds of each measured unit
    unit_s: List[float]
    #: seconds spent inside the program's blocking calls (tracing overhead base)
    busy_s: float
    #: units of work done: the traced pass replays exactly as many
    units: int
    records: List[Record]
    rss_mib: float
    #: inputs/outputs kept for verification after timing, per request
    checks: List[tuple] = field(default_factory=list)
    #: failures already found (verified between timed units)
    failed_checks: int = 0
    context: Dict[str, object] = field(default_factory=dict)


def rss_peak_mib() -> float:
    """Peak resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _qkv(rng: np.random.Generator, shape) -> tuple:
    return tuple(rng.standard_normal(shape, dtype=np.float32) for _ in range(3))


_EDGE_MEMO: Dict[tuple, int] = {}


def stream_edges(mask, total: int) -> int:
    """Attention edges one decoded stream of ``total`` tokens computes."""
    key = (id(mask), total)
    if key not in _EDGE_MEMO:
        _EDGE_MEMO[key] = int(decode_reference_mask(mask, total).nnz)
    return _EDGE_MEMO[key]


def replay(mask, q, k, v, prompt: int, storage: str) -> np.ndarray:
    """A private per-request ``DecodeSession`` replay at the same storage dtype."""
    total = q.shape[-2]
    pool = BlockPool(total // BLOCK_SIZE + 2, BLOCK_SIZE, key_dim=q.shape[-1], storage=storage)
    session = DecodeSession.start(mask, total, retain_outputs=True, pool=pool)
    if prompt:
        session.prefill(q[..., :prompt, :], k[..., :prompt, :], v[..., :prompt, :])
    for i in range(prompt, total):
        session.step(q[..., i, :], k[..., i, :], v[..., i, :])
    output = session.outputs()
    session.close()
    return output


class _EmitClock:
    """Stamps the host time of every generated token a scheduler emits."""

    def __init__(self) -> None:
        self.times: Dict[tuple, List[float]] = {}

    def hook(self, replica: int):
        times = self.times

        def on_emit(request_id, kind, output):
            if kind == "decode":
                times.setdefault((replica, request_id), []).append(time.perf_counter())

        return on_emit

    def pop(self, replica: int, request_id: int) -> List[float]:
        return self.times.pop((replica, request_id), [])


# --------------------------------------------------------------------------- #
# longctx: one-shot sparse attention, one closed-loop client
# --------------------------------------------------------------------------- #
@dataclass
class Shape:
    name: str
    length: int
    mask: object
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    #: mask nnz x heads: the edges a work-optimal kernel computes
    edges: int
    csr: object = None


class LongCtx:
    """Local, Longformer, dilated Longformer and BigBird stacks at two lengths.

    Each epoch starts from an empty plan cache and sends every shape
    ``REPEATS`` times in one seeded order, the same in every epoch, so one
    compile and two cached serves per shape: the cold/cached mix stays
    fixed however many epochs fit in the time budget.  An epoch's clock
    runs only inside ``serve``: the benchmark's own digest of each output
    is left out of its time.
    """

    name = "longctx"
    LENGTHS = (2048, 4096)
    HEADS = 4
    REACH = 32
    REPEATS = 3
    RANDOM_SPARSITY = 0.001
    #: a response is on time within 2 s and 0.25 ms per query row
    SLO = (2.0, 2.5e-4)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.shapes: List[Shape] = []
        for length in self.LENGTHS:
            globals_ = (0, int(rng.integers(length // 4, 3 * length // 4)))
            masks = {
                "local": LocalMask(window=self.REACH + 1),
                "longformer": longformer_mask(self.REACH, globals_),
                "longformer_dilated": longformer_dilated_mask(self.REACH, globals_),
                "bigbird": bigbird_mask(
                    self.REACH,
                    globals_,
                    random_sparsity=self.RANDOM_SPARSITY,
                    seed=int(rng.integers(2**31)),
                ),
            }
            for name, mask in masks.items():
                q, k, v = _qkv(rng, (self.HEADS, length, DIM))
                self.shapes.append(Shape(f"{name}@{length}", length, mask, q, k, v, 0))

    def arrays(self):
        for shape in self.shapes:
            yield from (shape.q, shape.k, shape.v)

    def prepare(self) -> None:
        """Union CSR and useful edge count of every shape (untimed)."""
        for shape in self.shapes:
            shape.csr = shape.mask.to_csr(shape.length)
            shape.edges = int(shape.csr.nnz) * self.HEADS

    def setup(self) -> AttentionServer:
        compiled.reset_backend()
        server = AttentionServer(obs=NULL_OBS, max_workers=1)
        rng = np.random.default_rng([self.seed, 1])
        q, k, v = _qkv(rng, (self.HEADS, 256, DIM))
        server.serve([AttentionRequest(q=q, k=k, v=v, mask=longformer_mask(8, (0,)))])
        return server

    def run(self, server, *, seconds=None, units=None, tracer=None) -> Pass:
        records: List[Record] = []
        #: first output per shape, and the digest every output must repeat
        first: Dict[int, tuple] = {}
        repeats_differ = 0
        epochs: List[float] = []
        order = np.random.default_rng([self.seed, 2]).permutation(
            np.repeat(np.arange(len(self.shapes)), self.REPEATS)
        )
        while (units is None and sum(epochs) < seconds) or (
            units is not None and len(epochs) < units
        ):
            epoch = len(epochs)
            epochs.append(0.0)
            server.cache.clear()
            for index in order:
                shape = self.shapes[index]
                request = AttentionRequest(q=shape.q, k=shape.k, v=shape.v, mask=shape.mask)
                if tracer is not None:
                    tracer.request_id = len(records)
                started = time.perf_counter()
                [response] = server.serve([request])
                latency = time.perf_counter() - started
                sent = epochs[epoch]
                epochs[epoch] += latency
                rows = self.HEADS * shape.length
                records.append(
                    Record(sent, [epochs[epoch]], 0, rows, shape.edges, one_shot=True, unit=epoch)
                )
                digest = hashlib.blake2b(response.output.tobytes()).digest()
                if index not in first:
                    first[int(index)] = (response.output, digest)
                elif digest != first[index][1]:
                    repeats_differ += 1
                    records[-1].failed = True
        return Pass(
            unit_s=epochs,
            busy_s=sum(epochs),
            units=len(epochs),
            records=records,
            rss_mib=rss_peak_mib(),
            checks=sorted((index, output) for index, (output, _) in first.items()),
            failed_checks=repeats_differ,
            context={"useful_edges": sum(r.edges for r in records)},
        )

    def verify(self, result: Pass) -> int:
        """First output per shape vs ``csr_attention`` on the union CSR, per head.

        Every later output of a shape was already required to repeat the
        first one bit for bit, cold plan or cached.
        """
        atol = max(attention_tolerance("fp32", 1.0, DIM), ROUNDOFF)
        failed = result.failed_checks
        for index, output in result.checks:
            shape = self.shapes[index]
            for head in range(self.HEADS):
                expected = csr_attention(shape.q[head], shape.k[head], shape.v[head], shape.csr)
                if not np.allclose(output[head], expected.output, atol=atol, rtol=ROUNDOFF):
                    failed += 1
                    break
        return failed

    def close(self, server) -> None:
        server.close()


# --------------------------------------------------------------------------- #
# decode-heavy: offline continuous batching, streamed through the async edge
# --------------------------------------------------------------------------- #
class DecodeHeavy:
    """Offline jobs of 128 streams, submitted at once and read as they stream.

    The unit of work is one job on a freshly built client: every job serves
    the same seeded streams, so nothing is shared across jobs, each starts
    from the same state, and the private ``DecodeSession`` replay needs to
    run for the first job only (later jobs must repeat its outputs bit for
    bit).  Streams are admitted through ``ServingClient.astream`` and read
    by one consumer task each, so inter-token gaps are taken where the
    tokens are received.
    """

    name = "decode-heavy"
    STREAMS = 128
    PROMPT = 32
    DECODE = (100, 132)
    WINDOW = 64
    #: (TTFT limit, per-request mean inter-token gap limit), seconds
    SLO = (0.25, 0.06)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.mask = LocalMask(window=self.WINDOW)
        self.streams: List[tuple] = []

    def batch(self) -> List[tuple]:
        rng = np.random.default_rng([self.seed, 10])
        streams = []
        for _ in range(self.STREAMS):
            total = self.PROMPT + int(rng.integers(*self.DECODE))
            streams.append(_qkv(rng, (total, DIM)) + (self.PROMPT,))
        return streams

    def arrays(self):
        for q, k, v, _ in self.batch():
            yield from (q, k, v)

    def prepare(self) -> None:
        self.streams = self.batch()

    def setup(self) -> ServingClient:
        compiled.reset_backend()
        return self._client()

    def _client(self) -> ServingClient:
        blocks = self.STREAMS * ((self.PROMPT + self.DECODE[1]) // BLOCK_SIZE + 2)
        client = ServingClient(
            key_dim=DIM,
            num_blocks=blocks,
            block_size=BLOCK_SIZE,
            storage="fp32",
            max_streams=self.STREAMS,
            prefill_chunk=self.PROMPT,
            preemption="swap",
            obs=NULL_OBS,
        )
        rng = np.random.default_rng([self.seed, 11])
        q, k, v = _qkv(rng, (48, DIM))
        request = LoopRequest(q=q, k=k, v=v, mask=self.mask, prompt_tokens=16)
        asyncio.run(_stream_all(client, [request]))
        return client

    def run(self, client, *, seconds=None, units=None, tracer=None) -> Pass:
        records: List[Record] = []
        lags: List[float] = []
        queue_waits: List[float] = []
        jobs: List[float] = []
        expected: List[np.ndarray] = []
        failed = 0
        while (units is None and sum(jobs) < seconds) or (units is not None and len(jobs) < units):
            job = len(jobs)
            if job:
                client = self._client()
            requests = [
                LoopRequest(q=q, k=k, v=v, mask=self.mask, prompt_tokens=prompt)
                for q, k, v, prompt in self.streams
            ]
            started = time.perf_counter()
            received = asyncio.run(_stream_all(client, requests, lags))
            jobs.append(time.perf_counter() - started)
            queue_waits.extend(
                t.queue_seconds for t in client.scheduler.telemetry.values() if t.finish_time
            )
            if job:
                client.close()
            outputs = []
            for (q, k, v, prompt), (chunks, times, sent) in zip(self.streams, received):
                total = q.shape[-2]
                records.append(
                    Record(
                        sent=sent,
                        times=times,
                        first=prompt_chunks(chunks, prompt),
                        tokens=total,
                        edges=stream_edges(self.mask, total),
                        unit=job,
                    )
                )
                outputs.append(np.concatenate(chunks, axis=-2))
            rss = rss_peak_mib()
            # checked between jobs, outside every timed interval and span
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                if not expected:
                    expected = [replay(self.mask, q, k, v, p, "fp32") for q, k, v, p in self.streams]
                for output, want, record in zip(outputs, expected, records[-len(outputs):]):
                    if not np.array_equal(output, want):
                        failed += 1
                        record.failed = True
        return Pass(
            unit_s=jobs,
            busy_s=sum(jobs),
            units=len(jobs),
            records=records,
            rss_mib=rss,
            failed_checks=failed,
            context={"arrival_lags": lags, "queue_waits": queue_waits, "obs": None},
        )

    def verify(self, result: Pass) -> int:
        return result.failed_checks

    def close(self, client) -> None:
        client.close()


def prompt_chunks(chunks: List[np.ndarray], prompt: int) -> int:
    """How many leading chunks of a stream carry its prompt rows."""
    rows = 0
    for index, chunk in enumerate(chunks):
        if rows >= prompt:
            return index
        rows += chunk.shape[-2]
    return len(chunks)


async def _stream_all(client, requests, lags: Optional[List[float]] = None):
    """Admit every request through the edge, read all streams, shut the edge down.

    Returns each stream's chunks, the host time each chunk was received, and
    the time the stream was submitted.
    """

    async def read(stream, sent):
        chunks, times = [], []
        async for chunk in stream:
            times.append(time.perf_counter())
            chunks.append(chunk)
        return chunks, times, sent

    readers = []
    for request in requests:
        sent = time.perf_counter()
        stream = await client.astream(request)
        if lags is not None:
            lags.append(time.perf_counter() - sent)
        readers.append(asyncio.create_task(read(stream, sent)))
    received = await asyncio.gather(*readers)
    await client.edge.shutdown()
    return received


# --------------------------------------------------------------------------- #
# routed: closed-loop clients over two affinity-routed replicas
# --------------------------------------------------------------------------- #
class Routed:
    """Closed-loop clients, prefix families interleaved, half speculative.

    The unit of work is a session: ``CLIENTS`` clients start together, each
    sends its next request as soon as its last one finishes, and the
    session ends when ``SESSION`` requests have all come back.  Every
    session sends the same seeded requests, so sessions differ only in the
    time the host gave them: each request's first output is replayed after
    the pass, and every later session must repeat it bit for bit.

    Speculative streams carry keys with a recency bias, so a narrowed draft
    window agrees with the full one on most tokens but not all: both the
    accept and the rollback paths run.  Storage is int8 and the recorder
    runs with its trace buffer, as an operator would run them.
    """

    name = "routed"
    REPLICAS = 2
    CLIENTS = 32
    FAMILIES = 4
    PREFIX = 96
    SUFFIX = (8, 25)
    DECODE = (40, 57)
    WINDOW = 32
    SPECULATE_K = 4
    RECENCY = 0.2
    #: per replica: room for every stream, as pools tight enough to swap made
    #: TTFT p90 move 35% from run to run
    NUM_BLOCKS = 160
    #: requests per session: three turns per client
    SESSION = 96
    SLO = (0.5, 0.04)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.mask = LocalMask(window=self.WINDOW)
        rng = np.random.default_rng([seed, 30])
        self.prefixes = [_qkv(rng, (self.PREFIX, DIM)) for _ in range(self.FAMILIES)]

    def request(self, index: int) -> tuple:
        """Request ``index``: family ``index % FAMILIES``, speculative when even."""
        rng = np.random.default_rng([self.seed, 31, index])
        suffix = int(rng.integers(*self.SUFFIX))
        decode = int(rng.integers(*self.DECODE))
        q, k, v = _qkv(rng, (suffix + decode, DIM))
        speculate = self.SPECULATE_K if index % 2 == 0 else 0
        if speculate:
            # keys grow along the query direction with position, so the
            # attention peak usually sits among the most recent keys
            direction = rng.standard_normal(DIM).astype(np.float32)
            direction /= np.linalg.norm(direction)
            q += 2.0 * direction
            k += self.RECENCY * np.arange(suffix + decode, dtype=np.float32)[:, None] * direction
        prefix = self.prefixes[index % self.FAMILIES]
        q, k, v = (np.concatenate([shared, own]) for shared, own in zip(prefix, (q, k, v)))
        return q, k, v, self.PREFIX + suffix, speculate

    def arrays(self):
        for index in range(8):
            yield from self.request(index)[:3]

    def prepare(self) -> None:
        self.requests = [self.request(index) for index in range(self.SESSION)]

    def setup(self) -> ServingClient:
        compiled.reset_backend()
        client = ServingClient(
            replicas=self.REPLICAS,
            router_policy="affinity",
            key_dim=DIM,
            num_blocks=self.NUM_BLOCKS,
            block_size=BLOCK_SIZE,
            storage="int8",
            max_streams=self.CLIENTS,
            prefill_chunk=64,
            preemption="swap",
            obs=Observability(enabled=True, tracing=True),
        )
        rng = np.random.default_rng([self.seed, 32])
        q, k, v = _qkv(rng, (48, DIM))
        client.generate(q, k, v, self.mask, prompt_tokens=16)
        return client

    def run(self, client, *, seconds=None, units=None, tracer=None) -> Pass:
        router = client.router
        emits = _EmitClock()
        for index, handle in enumerate(router.replicas):
            handle.scheduler.on_emit = emits.hook(index)
        records: List[Record] = []
        #: request index of each record, and each request's first output and digest
        indices: List[int] = []
        first: Dict[int, tuple] = {}
        sessions: List[float] = []
        while (units is None and sum(sessions) < seconds) or (
            units is not None and len(sessions) < units
        ):
            started = time.perf_counter()
            outputs = self._session(router, client, emits, records, len(sessions), tracer)
            sessions.append(time.perf_counter() - started)
            # checked between sessions, outside every timed interval
            for index, output in outputs:
                indices.append(index)
                digest = hashlib.blake2b(output.tobytes()).digest()
                if index not in first:
                    first[index] = (output, digest)
                elif digest != first[index][1]:
                    records[len(indices) - 1].failed = True
        for handle in router.replicas:
            handle.scheduler.on_emit = None
        queue = [r.queue_seconds for r in router.telemetry.values() if r.finish_time]
        return Pass(
            unit_s=sessions,
            busy_s=sum(sessions),
            units=len(sessions),
            records=records,
            rss_mib=rss_peak_mib(),
            checks=sorted((index, output) for index, (output, _) in first.items()),
            context={"queue_waits": queue, "obs": client.obs, "requests": indices},
        )

    def _session(self, router, client, emits, records, session: int, tracer) -> List[tuple]:
        """``CLIENTS`` clients send ``SESSION`` requests in all, each waiting for its last.

        Returns each finished request's index and output, in finishing order.
        """
        inflight: Dict[int, tuple] = {}
        outputs: List[tuple] = []
        first = session * self.SESSION
        sent = first

        def send():
            nonlocal sent
            index = sent - first
            q, k, v, prompt, speculate = self.requests[index]
            request = LoopRequest(
                q=q, k=k, v=v, mask=self.mask, prompt_tokens=prompt, speculate_k=speculate
            )
            if tracer is not None:
                tracer.request_id = sent
            submitted = time.perf_counter()
            inflight[client.submit(request)] = (index, q, k, v, prompt, submitted)
            if tracer is not None:
                tracer.request_id = -1
            sent += 1

        for _ in range(self.CLIENTS):
            send()
        stalled = 0
        while inflight:
            report = router.step()
            stalled = stalled + 1 if report.tokens == 0 and not report.finished else 0
            if stalled > 3:
                raise RuntimeError("routed workload stalled")
            for rid in report.finished:
                index, q, k, v, prompt, submitted = inflight.pop(rid)
                output = router.results.pop(rid)
                telemetry = router.telemetry[rid]
                replica = next(
                    h.index for h in router.replicas
                    if h.scheduler.telemetry.get(telemetry.request_id) is telemetry
                )
                total = q.shape[-2]
                times = emits.pop(replica, telemetry.request_id)
                edges = stream_edges(self.mask, total)
                records.append(Record(submitted, times, 0, total, edges, unit=session))
                outputs.append((index, output))
                if sent < first + self.SESSION:
                    send()
        return outputs

    def verify(self, result: Pass) -> int:
        """First output per request vs its ``DecodeSession`` replay.

        A mismatch fails every copy of the request; a later copy that did not
        repeat the first was already failed during the pass.
        """
        wrong = set()
        for index, output in result.checks:
            q, k, v, prompt, _ = self.requests[index]
            if not np.array_equal(output, replay(self.mask, q, k, v, prompt, "int8")):
                wrong.add(index)
        for record, index in zip(result.records, result.context["requests"]):
            if index in wrong:
                record.failed = True
        return sum(r.failed for r in result.records)

    def close(self, client) -> None:
        client.close()


WORKLOADS = {w.name: w for w in (LongCtx, DecodeHeavy, Routed)}
