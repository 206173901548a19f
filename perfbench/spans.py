"""Span wrappers for the traced run: per-layer host self time and counts.

The traced run replaces a fixed list of the simulator's layer entry points
with thin wrappers that time each call and charge it to a layer. A layer's
*self time* is the duration of its spans minus the part covered by nested
spans of any layer, so the self times of all layers add up to the time
spent inside the outermost span (the event kernel's ``Environment.run``).

Generator entry points (``isend_device``, ``Comm.Alltoallv``, HCA
processes, ...) are timed per *resume*: the wrapper hands the caller a
generator that opens a span around every ``send``/``throw`` into the real
one, so time a flow spends suspended in the event queue is never charged
to it.

:meth:`SpanRecorder.install` patches the entry points (and every module
global that aliases a patched function); :meth:`SpanRecorder.remove`
restores the originals, so code outside the traced phase runs unwrapped.
"""

from __future__ import annotations

import importlib
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

#: Layer -> entry points ``(module, qualified name)``. Names follow the
#: north-star layer list: event kernel, datatype compile, pack/plan,
#: transfer engine, hardware models, shard coordination.
LAYERS = {
    "sim": [
        ("repro.sim.core", "Environment.run"),
        ("repro.sim.core", "Environment.run_window"),
    ],
    "shard": [
        ("repro.sim.shard", "run_sharded_world"),
    ],
    "datatype": [
        ("repro.mpi.datatype", "Datatype.commit"),
        ("repro.mpi.datatype", "Datatype.contiguous"),
        ("repro.mpi.datatype", "Datatype.vector"),
        ("repro.mpi.datatype", "Datatype.hvector"),
        ("repro.mpi.datatype", "Datatype.indexed"),
        ("repro.mpi.datatype", "Datatype.hindexed"),
        ("repro.mpi.datatype", "Datatype.indexed_block"),
        ("repro.mpi.datatype", "Datatype.struct"),
        ("repro.mpi.datatype", "Datatype.subarray"),
        ("repro.mpi.datatype", "Datatype.resized"),
        ("repro.mpi.datatype", "Datatype.dup"),
        ("repro.mpi.datatype", "Datatype.segments_for_count"),
        ("repro.mpi.datatype", "Datatype.segments_for_range"),
        ("repro.mpi.datatype", "Datatype.layout_signature"),
        ("repro.mpi.dtir", "register"),
        ("repro.mpi.dtir", "detect"),
        ("repro.mpi.dtir", "lower"),
        ("repro.mpi.dtir_passes", "canonicalize"),
    ],
    "plan": [
        ("repro.mpi.datatype", "Datatype.plan_for"),
        ("repro.core.plan", "TransferPlan.compile"),
        ("repro.core.plan", "TransferPlan.costs_for"),
        ("repro.core.pipeline", "LayoutPlan.of"),
    ],
    "pack": [
        ("repro.mpi.pack", "pack_bytes"),
        ("repro.mpi.pack", "pack_into"),
        ("repro.mpi.pack", "unpack_from"),
        ("repro.mpi.pack", "pack_range_bytes"),
        ("repro.mpi.pack", "pack_range_into"),
        ("repro.mpi.pack", "unpack_range_from"),
        ("repro.mpi.pack", "unpack_array_into"),
        ("repro.core.plan", "ChunkPlan.gather_into"),
        ("repro.core.plan", "ChunkPlan.scatter_from"),
        ("repro.core.gpu_pack", "gpu_pack_chunk"),
        ("repro.core.gpu_pack", "gpu_unpack_chunk"),
    ],
    "pipeline": [
        ("repro.core.pipeline", "GpuNcEngine.isend_device"),
        ("repro.core.pipeline", "GpuNcEngine.rdv_recv_device"),
        ("repro.core.pipeline", "GpuNcEngine.deliver_eager_device"),
    ],
    "backends": [
        ("repro.core.backends", "GpuPipelineBackend.send_chunk"),
        ("repro.core.backends", "GpuPipelineBackend.drain_chunk"),
        ("repro.core.backends", "HostStagedBackend.send_chunk"),
        ("repro.core.backends", "HostStagedBackend.drain_chunk"),
        ("repro.core.backends", "NicOffloadBackend.send_chunk"),
        ("repro.core.backends", "NicOffloadBackend.drain_chunk"),
        ("repro.core.backends", "guideline_backend"),
    ],
    "protocol": [
        ("repro.mpi.comm", "Comm.Isend"),
        ("repro.mpi.comm", "Comm.Irecv"),
        ("repro.mpi.comm", "Comm.Send"),
        ("repro.mpi.comm", "Comm.Recv"),
        ("repro.mpi.protocol", "isend"),
        ("repro.mpi.protocol", "irecv"),
        ("repro.mpi.protocol", "_on_eager"),
        ("repro.mpi.protocol", "_on_rts"),
        ("repro.mpi.protocol", "_on_cts"),
        ("repro.mpi.protocol", "_on_fin"),
        ("repro.mpi.protocol", "acquire_vbuf"),
        ("repro.mpi.endpoint", "Endpoint.post_control"),
        ("repro.mpi.endpoint", "Endpoint._progress_loop"),
        ("repro.mpi.endpoint", "Endpoint.cpu_work"),
        ("repro.mpi.request", "Request.wait"),
        ("repro.mpi.request", "wait_all"),
    ],
    "tune": [
        ("repro.tune.table", "tuned_transfer_choice"),
    ],
    "coll": [
        ("repro.mpi.comm", "Comm.Alltoallv"),
        ("repro.mpi.comm", "Comm.Barrier"),
        ("repro.mpi.collectives", "alltoallv"),
        ("repro.mpi.collectives", "barrier"),
    ],
    "cuda": [
        ("repro.cuda.runtime", "CudaContext.memcpy_async"),
        ("repro.cuda.runtime", "CudaContext.memcpy"),
        ("repro.cuda.runtime", "CudaContext.memcpy2d_async"),
        ("repro.cuda.runtime", "CudaContext.memcpy2d"),
        ("repro.cuda.runtime", "CudaContext.launch_kernel"),
        ("repro.cuda.runtime", "CudaContext.device_synchronize"),
        ("repro.cuda.stream", "Stream.enqueue"),
        ("repro.cuda.stream", "_StreamOp._on_done"),
    ],
    "ib": [
        ("repro.ib.verbs", "HCA.rdma_write"),
        ("repro.ib.verbs", "HCA.rdma_read"),
        ("repro.ib.verbs", "HCA.send_control"),
        ("repro.ib.verbs", "HCA._rdma_proc"),
        ("repro.ib.verbs", "HCA._rdma_read_proc"),
        ("repro.ib.verbs", "HCA._read_respond_proc"),
        ("repro.ib.verbs", "HCA._control_proc"),
        ("repro.ib.verbs", "HCA._loopback_proc"),
    ],
    "app": [
        ("repro.apps.stencil2d", "_stencil_program"),
        ("repro.apps.stencil2d", "exchange_mv2nc"),
    ],
}


def _range_bytes(lo_index):
    """Bytes of a packed-byte range ``[lo, hi)`` passed positionally."""
    return lambda args, result: args[lo_index + 1] - args[lo_index]


def _result_bytes(args, result):
    return result.nbytes


def _first_arg_bytes(args, result):
    # A byte array, or a ChunkPlan (``self``) that knows its chunk size.
    return args[0].nbytes


#: Pack entry points that move bytes themselves, with how many (the
#: others delegate to these, so counting only leaves never counts a byte
#: twice). Every caller in the package passes these arguments positionally.
PACK_BYTES = {
    "repro.mpi.pack.pack_bytes": _result_bytes,
    "repro.mpi.pack.pack_range_bytes": _result_bytes,
    "repro.mpi.pack.unpack_from": lambda args, result: result,
    "repro.mpi.pack.pack_range_into": _range_bytes(3),
    "repro.mpi.pack.unpack_range_from": _range_bytes(4),
    "repro.mpi.pack.unpack_array_into": _first_arg_bytes,
    "repro.core.plan.ChunkPlan.gather_into": _first_arg_bytes,
    "repro.core.plan.ChunkPlan.scatter_from": _first_arg_bytes,
}


class SpanRecorder:
    """Installs the layer wrappers and accumulates what they measure."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        #: layer -> seconds of self time
        self.self_s = defaultdict(float)
        #: entry point -> seconds of inclusive time
        self.incl_s = defaultdict(float)
        #: entry point -> calls (generator entry points: creations)
        self.calls = Counter()
        #: entry point -> bytes moved (pack leaves only)
        self.bytes = Counter()
        #: events scheduled by sequential environments inside ``run``
        self.events = 0
        self._stack = []
        self._patches = []
        self._recyclable = []

    # -- accounting -----------------------------------------------------------
    def reset(self) -> None:
        self.self_s.clear()
        self.incl_s.clear()
        self.calls.clear()
        self.bytes.clear()
        self.events = 0

    def _close(self, frame, start, layer, key) -> None:
        elapsed = perf_counter() - start
        stack = self._stack
        stack.pop()
        self.self_s[layer] += elapsed - frame[0]
        self.incl_s[key] += elapsed
        if stack:
            stack[-1][0] += elapsed

    def _timed_gen(self, gen, layer, key):
        """Delegate to ``gen``, one span per resume."""
        send, throw = gen.send, gen.throw
        value, error = None, None
        while True:
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                if error is None:
                    out = send(value)
                else:
                    out = throw(error)
            except StopIteration as stop:
                self._close(frame, start, layer, key)
                return stop.value
            except BaseException:
                self._close(frame, start, layer, key)
                raise
            self._close(frame, start, layer, key)
            error = None
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the wrapped generator
                value, error = None, exc

    def _wrap(self, fn, layer, key):
        recorder = self
        count_bytes = PACK_BYTES.get(key)
        counts_events = layer == "sim"

        def wrapper(*args, **kwargs):
            recorder.calls[key] += 1
            frame = [0.0]
            recorder._stack.append(frame)
            start = perf_counter()
            eid = args[0]._eid if counts_events else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(frame, start, layer, key)
                if counts_events:
                    recorder.events += args[0]._eid - eid
            if count_bytes is not None:
                recorder.bytes[key] += count_bytes(args, result)
            if type(result) is types.GeneratorType:
                timed = recorder._timed_gen(result, layer, key)
                # Process labels default to the generator's name.
                timed.__name__ = result.__name__
                timed.__qualname__ = result.__qualname__
                return timed
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / remove -----------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("span wrappers already installed")
        try:
            for layer, entries in self.layers.items():
                for module_name, qualname in entries:
                    self._patch(layer, module_name, qualname)
        except BaseException:
            self.remove()
            raise

    def _patch(self, layer, module_name, qualname) -> None:
        module = importlib.import_module(module_name)
        key = f"{module_name}.{qualname}"
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(raw.__func__, layer, key))
            else:
                patched = self._wrap(raw, layer, key)
                self._keep_recyclable(raw, patched)
            self._set(owner, attr, raw, patched)
            return
        original = module.__dict__[attr]
        patched = self._wrap(original, layer, key)
        # ``from .pack import pack_bytes`` binds the function in the
        # importing module too: patch every alias in the package.
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, alias, original, patched)

    def _keep_recyclable(self, original, patched) -> None:
        # A Timeout whose sole callback is a known-recyclable method goes
        # back to the event pool; the wrapper keeps no reference to the
        # event, so it may stay recyclable and pool statistics stay those
        # of the unwrapped run.
        from repro.sim.events import RECYCLABLE_CALLBACKS

        if original in RECYCLABLE_CALLBACKS:
            RECYCLABLE_CALLBACKS.add(patched)
            self._recyclable.append(patched)

    def _set(self, owner, attr, original, patched) -> None:
        setattr(owner, attr, patched)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every patched attribute (safe to call twice)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._recyclable:
            from repro.sim.events import RECYCLABLE_CALLBACKS

            RECYCLABLE_CALLBACKS.difference_update(self._recyclable)
            self._recyclable.clear()
