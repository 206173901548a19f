"""The benchmark's workloads, driven through the simulator's public API.

Each workload is a class with the same small protocol:

``setup()``
    build the cluster and world, allocate and fill buffers, commit the
    reused datatypes, load the tuning table -- everything before the first
    operation. The runner times it together with one warm-up op.
``prepare()``
    untimed reset before an op (clears receive buffers, so every op's
    payload check sees only that op's bytes).
``step()``
    one operation, timed; returns the point-to-point deliveries it made
    (each collective peer block counts as one).
``verify()``
    untimed check of the op's outputs; returns an error string or None.

Every workload also reports the simulated seconds its last op took
(``last_sim_s``) and the simulated window of that op (``last_window``),
from which the traced run reads the hardware occupancies.

Nodes carry explicitly sized memory arenas (:data:`ARENA`): the default
12 GiB host arena cannot be allocated on small hosts, which the runner's
separate default-config probe reports.
"""

from __future__ import annotations

import numpy as np

from repro import Cluster, Datatype, HardwareConfig, MpiWorld
from repro.apps.stencil2d import StencilConfig, run_stencil
from repro.mpi import FLOAT
from repro.sim import Tracer
from repro.tune.table import TuningTable

MiB = 1 << 20

#: Memory arenas every workload runs with (bytes per node / per GPU).
ARENA = {"host_memory_bytes": 64 * MiB, "device_memory_bytes": 64 * MiB}

#: The committed table for the Fermi/QDR model, loaded read-only.
TUNING_TABLE = "tuning/7a354a93b997.json"


def arena_config() -> HardwareConfig:
    return HardwareConfig.fermi_qdr().with_overrides(**ARENA)


class P2PVector:
    """2 ranks, a GPU-resident strided vector through Send/Recv.

    4-byte elements at an 8-byte pitch (the Figure 5 layout) at 4 KiB
    (eager), 64 KiB, 1 MiB and 4 MiB, one committed type per size reused
    by every op, with the committed tuning table attached.
    """

    SIZES = (4 * 1024, 64 * 1024, 1 * MiB, 4 * MiB)
    ranks = 2

    def __init__(self, root, seed: int, tracer: Tracer):
        self.root = root
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        table = TuningTable.load(self.root / TUNING_TABLE)
        cluster = Cluster(2, cfg=arena_config(), tracer=self.tracer)
        self.world = MpiWorld(cluster, tuning=table)
        self.env = cluster.env
        self.types = [
            Datatype.vector(size // 4, 1, 2, FLOAT).commit() for size in self.SIZES
        ]
        sender, receiver = self.world.contexts
        span = 2 * max(self.SIZES)
        self.sendbuf = sender.cuda.malloc(span)
        payload = np.random.default_rng(self.seed).integers(
            0, 256, span, dtype=np.uint8
        )
        self.sendbuf.fill_from(payload)
        self.recvbufs = [receiver.cuda.malloc(2 * size) for size in self.SIZES]
        # What each receive buffer must hold: the vector's elements in
        # place, and the holes between them untouched (zero).
        self.expected = []
        for size in self.SIZES:
            want = np.zeros((size // 4, 8), dtype=np.uint8)
            want[:, :4] = payload[: 2 * size].reshape(-1, 8)[:, :4]
            self.expected.append(want.reshape(-1))

    def _program(self, ctx):
        comm = ctx.comm
        for dtype, rbuf in zip(self.types, self.recvbufs):
            if ctx.rank == 0:
                yield from comm.Send(self.sendbuf, 1, dtype, dest=1, tag=7)
            else:
                yield from comm.Recv(rbuf, 1, dtype, source=0, tag=7)

    def prepare(self) -> None:
        self.tracer.clear()
        for rbuf in self.recvbufs:
            rbuf.view()[:] = 0

    def step(self) -> int:
        start = self.env.now
        self.world.run(self._program)
        self.last_window = (start, self.env.now)
        self.last_sim_s = self.env.now - start
        return len(self.SIZES)

    def verify(self):
        for size, rbuf, want in zip(self.SIZES, self.recvbufs, self.expected):
            if not np.array_equal(rbuf.view(), want):
                return f"p2p_vector: {size}-byte vector payload mismatch"
        return None


class AlltoallvFresh:
    """8 ranks, transpose-style Alltoallv committing fresh types per call.

    Each rank holds a 64 x 512 float32 row block; 64 x 64 column block
    ``j`` goes to rank ``j``. Every call builds and commits new per-peer
    send and receive types, each drawn from the seeded stream among three
    equivalent constructors: a subarray (offset in the type), or a vector
    or hvector placed by a byte displacement. No tuning table.
    """

    RANKS = ranks = 8
    BLOCK = 64
    CONSTRUCTORS = ("subarray", "vector", "hvector")

    def __init__(self, root, seed: int, tracer: Tracer):
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        cluster = Cluster(self.RANKS, cfg=arena_config(), tracer=self.tracer)
        self.world = MpiWorld(cluster, tuning=False)
        self.env = cluster.env
        nr, n = self.BLOCK, self.BLOCK * self.RANKS
        rng = np.random.default_rng(self.seed)
        #: The seeded constructor stream (one draw per block per op).
        self.choices = np.random.default_rng([self.seed, 1])
        self.sendbufs, self.recvbufs = [], []
        blocks = []
        for ctx in self.world.contexts:
            sbuf = ctx.cuda.malloc(nr * n * 4)
            data = rng.integers(0, 256, (nr, n * 4), dtype=np.uint8)
            sbuf.fill_from(data)
            self.sendbufs.append(sbuf)
            self.recvbufs.append(ctx.cuda.malloc(nr * n * 4))
            blocks.append(data.reshape(nr, self.RANKS, nr * 4))
        # Rank r's block i comes from rank i's column block r.
        self.expected = [
            np.concatenate([blocks[i][:, r, :] for i in range(self.RANKS)], axis=1)
            .reshape(-1)
            for r in range(self.RANKS)
        ]

    def _block_type(self, kind: str, peer: int):
        """(datatype, byte displacement) of column block ``peer``."""
        nr, n = self.BLOCK, self.BLOCK * self.RANKS
        if kind == "subarray":
            return Datatype.subarray([nr, n], [nr, nr], [0, peer * nr], FLOAT), 0
        if kind == "vector":
            return Datatype.vector(nr, nr, n, FLOAT), peer * nr * 4
        return Datatype.hvector(nr, nr, n * 4, FLOAT), peer * nr * 4

    def _program(self, ctx, kinds):
        stypes, sdispls, rtypes, rdispls = [], [], [], []
        for peer in range(ctx.size):
            dtype, displ = self._block_type(kinds[0][ctx.rank][peer], peer)
            stypes.append(dtype.commit())
            sdispls.append(displ)
            dtype, displ = self._block_type(kinds[1][ctx.rank][peer], peer)
            rtypes.append(dtype.commit())
            rdispls.append(displ)
        ones = [1] * ctx.size
        yield from ctx.comm.Alltoallv(
            self.sendbufs[ctx.rank], ones, sdispls, stypes,
            self.recvbufs[ctx.rank], ones, rdispls, rtypes,
        )

    def prepare(self) -> None:
        self.tracer.clear()
        for rbuf in self.recvbufs:
            rbuf.view()[:] = 0
        picks = self.choices.integers(0, 3, (2, self.RANKS, self.RANKS))
        self.kinds = [
            [[self.CONSTRUCTORS[k] for k in row] for row in side] for side in picks
        ]

    def step(self) -> int:
        start = self.env.now
        self.world.run(self._program, self.kinds)
        self.last_window = (start, self.env.now)
        self.last_sim_s = self.env.now - start
        return self.RANKS * (self.RANKS - 1)

    def verify(self):
        for rank, (rbuf, want) in enumerate(zip(self.recvbufs, self.expected)):
            if not np.array_equal(rbuf.view(), want):
                return f"alltoallv_fresh: rank {rank} received wrong blocks"
        return None


class StencilWeak64:
    """Stencil2D mv2nc halo exchange, 8 x 8 ranks, 64 x 4096 fp32 each.

    Timing-only (``functional=False``): the simulated iteration times are
    the output, checked for equality against the warm-up op's.
    """

    GRID = 8
    ITERATIONS = 2
    SHARDS = 1
    ranks = GRID * GRID

    def __init__(self, root, seed: int, tracer: Tracer):
        # The exchange carries no payload (timing-only), so the seed has
        # nothing to drive here.
        self.tracer = tracer
        self.config = StencilConfig(
            self.GRID, self.GRID, 64, 4096, iterations=self.ITERATIONS,
            functional=False,
        )
        self.reference = None

    def setup(self) -> None:
        self.hw = arena_config()

    def prepare(self) -> None:
        self.tracer.clear()

    def step(self) -> int:
        result = run_stencil(
            self.config, hw=self.hw, shards=self.SHARDS, tracer=self.tracer
        )
        self.times = result.iteration_times
        self.last_sim_s = max(sum(times) for times in self.times)
        ends = [iv.end for iv in self.tracer.intervals]
        self.last_window = (0.0, max(ends) if ends else self.last_sim_s)
        if self.reference is None:
            self.reference = self.times
        cfg = self.config
        links = sum(len(cfg.neighbors(rank)) for rank in range(cfg.nprocs))
        return cfg.iterations * links

    def verify(self):
        if self.times != self.reference:
            return f"{type(self).__name__}: iteration times changed between ops"
        return None


class StencilWeak64Shards2(StencilWeak64):
    """``StencilWeak64`` on the sharded engine with 2 worker processes.

    Shard invariance is the payload check: the iteration times must equal
    the sequential engine's, computed once before set-up.
    """

    SHARDS = 2

    def __init__(self, root, seed: int, tracer: Tracer):
        super().__init__(root, seed, tracer)
        self.reference = run_stencil(
            self.config, hw=arena_config(), tracer=Tracer(enabled=False)
        ).iteration_times


WORKLOADS = {
    "p2p_vector": P2PVector,
    "stencil_weak64": StencilWeak64,
    "alltoallv_fresh": AlltoallvFresh,
    "stencil_weak64_shards2": StencilWeak64Shards2,
}
