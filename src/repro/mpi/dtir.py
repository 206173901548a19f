"""Canonical datatype IR: one normal form per byte layout.

TEMPI (Pearson et al.) showed that *canonicalizing* CUDA-aware datatypes
-- collapsing every equivalent construction (``vector`` vs
``hvector``-of-contig vs ``subarray`` slab vs a flattenable struct) onto
one representation -- multiplies the value of every downstream
specialization: one plan-cache entry, one tuning-table row, one set of
memoized gather indices covers all of the traffic that previously split
across per-instance caches.

This module is that normal form. The op set is deliberately tiny:

``Empty``
    No bytes.
``Contig(off, nbytes)``
    One run of ``nbytes`` at byte offset ``off``.
``StridedRun(off, count, width, pitch)``
    ``count`` equal runs of ``width`` bytes, ``pitch`` apart -- the
    ``cudaMemcpy2D``-able class.
``BlockGrid(off, dims, width)``
    A nested grid of equal runs: ``dims`` is ``((count, stride), ...)``
    outer -> inner in pack order (a 3-D subarray is a 2-dim grid).
``Irregular``
    Everything else, identified by a content digest of its run arrays.
``Struct(children)``
    Ordered concatenation in pack order (offsets baked into children).
    Never keys the registry -- the passes either flatten it into one of
    the regular forms above or the type is compiled to run arrays and
    detection demotes it to ``Irregular``.

Constructors build a symbolic IR tree from their arguments and
:func:`repro.mpi.dtir_passes.canonicalize` rewrites it to fixpoint
(struct flattening, contiguous coalescing, stride unification,
dimension normalization). When the fixpoint is *regular* (``Empty``,
``Contig``, ``StridedRun`` or ``BlockGrid``) its key names the exact
run sequence, so the constructor looks that key up with :func:`lookup`
and, on a hit, reuses the entry's run arrays without building any; on
a miss it builds them once with :func:`lower`. Layouts with no regular
symbolic form are compiled to run arrays eagerly.

Registration goes through **detection**: :func:`detect` reconstructs
the maximal grid structure directly from a type's coalesced run arrays.
The run sequence *is* the semantics of a type, so a deterministic
function of it is a sound canonical form by construction (two types get
the same node iff they lay out the same bytes in the same pack order).
The property tests pin that a regular symbolic fixpoint equals the
detected node; were the two ever to disagree, a symbolic key would only
miss the registry (one extra lowering), never create a second entry.

Canonical nodes key a process-wide **registry** of
:class:`CanonicalEntry` objects -- the one place a datatype's compiled
state lives (tilings, chunk slices, transfer plans, tuning signatures).
``lb``/``extent`` are deliberately *excluded* from the canonical key --
that is the ``resized``/``dup`` normalization: a resized variant shares
the entry and differs only in the ``(count, extent)`` cache keys where
tiling makes the extent observable.

Everything here is wall-clock only: every cached artifact is
bit-identical to a from-scratch compilation of the caller's own runs
(pinned by the property tests), so simulated traces cannot depend on
which instance compiled it first.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..perf.stats import PERF

__all__ = [
    "Empty",
    "Contig",
    "StridedRun",
    "BlockGrid",
    "Irregular",
    "Struct",
    "EMPTY",
    "LayoutClass",
    "classify_segments",
    "classify_node",
    "detect",
    "coalesce_runs",
    "lower",
    "node_count",
    "REGULAR",
    "span_of",
    "shifted",
    "tiled_node",
    "struct_node",
    "shape_key",
    "CanonicalEntry",
    "lookup",
    "register",
    "registry_size",
    "reset_registry",
]

# ---------------------------------------------------------------------------
# The op set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Empty:
    """No bytes at all (zero count / zero blocklength constructions)."""

    def key(self) -> tuple:
        return ("empty",)


@dataclass(frozen=True)
class Contig:
    """One contiguous run of ``nbytes`` at byte offset ``off``."""

    off: int
    nbytes: int

    def key(self) -> tuple:
        return ("contig", self.off, self.nbytes)


@dataclass(frozen=True)
class StridedRun:
    """``count`` runs of ``width`` bytes each, ``pitch`` bytes apart.

    Canonical invariant: ``count >= 2`` and ``0 < width < pitch`` (a
    pitch equal to the width coalesces to :class:`Contig`; overlapping
    or reversed layouts stay :class:`Irregular`).
    """

    off: int
    count: int
    width: int
    pitch: int

    def key(self) -> tuple:
        return ("sr", self.off, self.count, self.width, self.pitch)


@dataclass(frozen=True)
class BlockGrid:
    """A nested grid of equal-width runs.

    ``dims`` lists ``(count, stride)`` pairs outer -> inner **in pack
    order**: lowering enumerates the grid lexicographically, so the dim
    order is semantic (reordering would permute the packed bytes; see
    :func:`shape_key` for the order-free classification view).
    Canonical invariant: every count >= 2 and len(dims) >= 2.
    """

    off: int
    dims: Tuple[Tuple[int, int], ...]
    width: int

    def key(self) -> tuple:
        return ("bg", self.off, self.dims, self.width)


class Irregular:
    """Any run sequence with no grid structure, identified by digest.

    Holds the run arrays themselves (for lowering and for telling a
    digest collision from a shared layout); equality and hashing use the content digest so an Irregular node is
    as cheap to compare as the symbolic forms.
    """

    __slots__ = ("offsets", "lengths", "digest")

    def __init__(self, offsets: np.ndarray, lengths: np.ndarray):
        self.offsets = offsets.astype(np.int64, copy=False)
        self.lengths = lengths.astype(np.int64, copy=False)
        h = hashlib.blake2b(digest_size=16)
        h.update(self.offsets.tobytes())
        h.update(self.lengths.tobytes())
        self.digest = h.hexdigest()

    def key(self) -> tuple:
        return ("irr", int(self.offsets.shape[0]), self.digest)

    def __eq__(self, other) -> bool:
        return isinstance(other, Irregular) and self.digest == other.digest

    def __hash__(self) -> int:
        return hash(("irr", self.digest))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Irregular(n={self.offsets.shape[0]}, {self.digest[:8]})"


@dataclass(frozen=True)
class Struct:
    """Ordered concatenation of children (pack order; offsets baked in).

    Only ever a *pre-pass* form: canonicalization either rewrites it away
    or the layout is demoted to :class:`Irregular` by detection.
    """

    children: Tuple[object, ...]

    def key(self) -> tuple:
        return ("struct",) + tuple(c.key() for c in self.children)


EMPTY = Empty()

#: The canonical forms whose key spells out the exact run sequence.
REGULAR = (Empty, Contig, StridedRun, BlockGrid)

#: Struct constructors above this many parts skip the symbolic route
#: entirely (pass cost would rival compilation); detection still
#: canonicalizes them from the run arrays.
MAX_SYMBOLIC_PARTS = 512


# ---------------------------------------------------------------------------
# Node algebra
# ---------------------------------------------------------------------------


def node_count(node) -> int:
    """Number of IR nodes in the tree (the pass-observability metric)."""
    if isinstance(node, Struct):
        return 1 + sum(node_count(c) for c in node.children)
    return 1


def shifted(node, delta: int):
    """The same layout displaced by ``delta`` bytes (None stays None)."""
    if node is None or delta == 0 or isinstance(node, Empty):
        return node
    if isinstance(node, Contig):
        return Contig(node.off + delta, node.nbytes)
    if isinstance(node, StridedRun):
        return StridedRun(node.off + delta, node.count, node.width, node.pitch)
    if isinstance(node, BlockGrid):
        return BlockGrid(node.off + delta, node.dims, node.width)
    if isinstance(node, Struct):
        return Struct(tuple(shifted(c, delta) for c in node.children))
    if isinstance(node, Irregular):
        return Irregular(node.offsets + delta, node.lengths)
    raise TypeError(f"not an IR node: {node!r}")


def span_of(node) -> Optional[Tuple[int, int]]:
    """``(min_off, max_end)`` of a *regular* node, None when unknown."""
    if isinstance(node, Empty):
        return (0, 0)
    if isinstance(node, Contig):
        return (node.off, node.off + node.nbytes)
    if isinstance(node, StridedRun):
        return (node.off, node.off + (node.count - 1) * node.pitch + node.width)
    if isinstance(node, BlockGrid):
        lo = hi = node.off
        for c, s in node.dims:
            step = (c - 1) * s
            lo += min(0, step)
            hi += max(0, step)
        return (lo, hi + node.width)
    return None


def tiled_node(node, count: int, stride: int):
    """Symbolic ``tiled``: ``count`` copies of ``node`` at ``stride`` spacing.

    Returns None whenever the tiling could coalesce runs *across* tile
    boundaries (or overlap them) -- those cases are left to array-level
    detection, which sees the post-coalesce truth. A None here never
    loses canonicalization, only the symbolic fast path. A ``node`` of
    None (no symbolic form) stays None unless ``count`` is zero.
    """
    if count == 0 or isinstance(node, Empty):
        return EMPTY
    if count == 1 or node is None:
        return node
    if isinstance(node, Contig):
        if node.nbytes == 0:
            return EMPTY
        if stride == node.nbytes:
            return Contig(node.off, count * node.nbytes)
        if stride > node.nbytes:
            return StridedRun(node.off, count, node.nbytes, stride)
        return None  # overlapping / reversed tiling
    span = span_of(node)
    if span is None:
        return None  # Struct / Irregular children: leave to detection
    lo, hi = span
    # Tiles must be strictly ordered and non-touching: the first run of
    # tile k+1 must start strictly after the last byte of tile k, else
    # runs would coalesce (or interleave) across the boundary.
    if node.off + stride <= hi or lo != node.off:
        return None
    if isinstance(node, StridedRun):
        if stride == node.count * node.pitch:
            # Seamless continuation: one longer strided run.
            return StridedRun(node.off, count * node.count, node.width,
                              node.pitch)
        return BlockGrid(node.off, ((count, stride),
                                    (node.count, node.pitch)), node.width)
    if isinstance(node, BlockGrid):
        outer_c, outer_s = node.dims[0]
        if stride == outer_c * outer_s:
            dims = ((count * outer_c, outer_s),) + node.dims[1:]
            return BlockGrid(node.off, dims, node.width)
        return BlockGrid(node.off, ((count, stride),) + node.dims, node.width)
    return None


def struct_node(children) -> object:
    """Pack-order concatenation, dropping empties and inlining structs."""
    flat: List[object] = []
    for c in children:
        if c is None:
            return None  # a child had no symbolic form: give up the tree
        if isinstance(c, Empty):
            continue
        if isinstance(c, Struct):
            flat.extend(c.children)
        else:
            flat.append(c)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    return Struct(tuple(flat))


def lower(node) -> Tuple[np.ndarray, np.ndarray]:
    """Run arrays ``(offsets, lengths)`` of a node, in pack order.

    Constructors lower a regular canonical node once, on a registry
    miss; a hit reuses the registered entry's arrays instead.
    """
    if isinstance(node, Empty):
        z = np.empty(0, np.int64)
        return z, z.copy()
    if isinstance(node, Contig):
        return (np.array([node.off], np.int64),
                np.array([node.nbytes], np.int64))
    if isinstance(node, StridedRun):
        offs = node.off + np.arange(node.count, dtype=np.int64) * node.pitch
        return offs, np.full(node.count, node.width, np.int64)
    if isinstance(node, BlockGrid):
        offs = np.array([node.off], np.int64)
        for c, s in node.dims:
            steps = np.arange(c, dtype=np.int64) * s
            offs = (offs[:, None] + steps[None, :]).ravel()
        return offs, np.full(offs.shape[0], node.width, np.int64)
    if isinstance(node, Irregular):
        return node.offsets, node.lengths
    if isinstance(node, Struct):
        parts = [lower(c) for c in node.children]
        return (np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]))
    raise TypeError(f"not an IR node: {node!r}")


def shape_key(node) -> tuple:
    """Offset-free, order-normalized *shape* of a node (classification key).

    This is where the "dimension sorting by descending contiguous width"
    normalization lives: grid dims sorted by descending ``count * |stride|``
    footprint. The identity key (:meth:`~BlockGrid.key`) must keep dim
    order -- reordering dims permutes the packed byte sequence -- but for
    *classifying* a layout (tuning buckets, footers) two grids that
    differ only by traversal order are the same shape.
    """
    if isinstance(node, Empty):
        return ("empty",)
    if isinstance(node, Contig):
        return ("contig", node.nbytes)
    if isinstance(node, StridedRun):
        return ("sr", node.count, node.width, node.pitch)
    if isinstance(node, BlockGrid):
        dims = tuple(sorted(node.dims,
                            key=lambda d: (d[0] * abs(d[1]), d[0], abs(d[1])),
                            reverse=True))
        return ("bg", dims, node.width)
    if isinstance(node, Irregular):
        return ("irr", int(node.offsets.shape[0]), node.digest)
    if isinstance(node, Struct):
        return ("struct",) + tuple(shape_key(c) for c in node.children)
    raise TypeError(f"not an IR node: {node!r}")


def coalesce_runs(
    offsets: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge pack-order-adjacent runs (array form of ``SegmentList.coalesced``)."""
    n = int(offsets.shape[0])
    if n <= 1:
        return offsets, lengths
    joinable = offsets[1:] == offsets[:-1] + lengths[:-1]
    if not bool(joinable.any()):
        return offsets, lengths
    boundaries = np.empty(n, dtype=bool)
    boundaries[0] = True
    np.logical_not(joinable, out=boundaries[1:])
    starts_idx = np.flatnonzero(boundaries)
    ends = offsets + lengths
    last_idx = np.empty(starts_idx.shape[0], dtype=np.int64)
    last_idx[:-1] = starts_idx[1:] - 1
    last_idx[-1] = n - 1
    new_offs = offsets[starts_idx]
    return new_offs, ends[last_idx] - new_offs


# ---------------------------------------------------------------------------
# Detection: run arrays -> canonical node (the authoritative route)
# ---------------------------------------------------------------------------


def _grid_dims(offsets: np.ndarray) -> Optional[List[Tuple[int, int]]]:
    """Recursive maximal grid decomposition of an offset sequence.

    Returns ``[(count, stride), ...]`` outer -> inner such that the
    lexicographic enumeration reproduces ``offsets`` exactly, or None
    when no such (non-trivial) grid exists. Each level strips the
    innermost constant-delta period, so recursion depth is log-bounded.
    """
    n = int(offsets.shape[0])
    if n == 1:
        return []
    d = np.diff(offsets)
    if bool((d == d[0]).all()):
        return [(n, int(d[0]))]
    # Innermost period: the run of equal leading deltas (+1 offsets).
    c = int(np.argmax(d != d[0])) + 1
    if c < 2 or n % c != 0:
        return None
    grid = offsets.reshape(n // c, c)
    base = grid[:, 0]
    rel = grid - base[:, None]
    if not bool((rel == rel[0]).all()):
        return None
    inner_d = np.diff(grid[0])
    if not bool((inner_d == inner_d[0]).all()):
        return None
    outer = _grid_dims(base)
    if outer is None:
        return None
    return outer + [(c, int(inner_d[0]))]


def detect(offsets: np.ndarray, lengths: np.ndarray):
    """Canonical node of a coalesced run sequence (pack order).

    A pure, deterministic function of the arrays -- which is what makes
    it a sound canonical form: equal layouts (equal arrays) always map
    to equal nodes, and the node's :func:`lower` reproduces the arrays
    byte-for-byte.
    """
    n = int(offsets.shape[0])
    if n == 0:
        return EMPTY
    if n == 1:
        return Contig(int(offsets[0]), int(lengths[0]))
    if not bool((lengths == lengths[0]).all()):
        return Irregular(offsets, lengths)
    width = int(lengths[0])
    if width == 0:
        return Irregular(offsets, lengths)
    dims = _grid_dims(offsets)
    if dims is None:
        return Irregular(offsets, lengths)
    off = int(offsets[0])
    if len(dims) == 1:
        count, stride = dims[0]
        if stride <= width:
            # Coalesced inputs never abut (stride == width); anything
            # tighter is an overlapping/reversed layout -- not a 2-D copy.
            return Irregular(offsets, lengths)
        return StridedRun(off, count, width, stride)
    return BlockGrid(off, tuple(dims), width)


# ---------------------------------------------------------------------------
# Unified layout classification (SegmentList.uniform + tuning signatures)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayoutClass:
    """The one classification both fast paths and tuning keys consume.

    ``kind`` is ``"empty"`` / ``"contig"`` / ``"uniform"`` /
    ``"irregular"``. Earlier code had *two* classifiers
    (``SegmentList._classify_uniform`` and
    ``tune.signature.signature_of_segments``) that could disagree on the
    edges; both now derive from this class:

    * a single segment is ``contig`` -- its :meth:`uniform_tuple` is the
      degenerate ``(width, 1, width)`` the 2-D copy path expects, while
      its signature kind stays ``"contig"`` (two views, one source);
    * zero-width runs are ``irregular``, never ``uniform`` (the old
      uniform classifier accepted ``width == 0`` with count > 1, which
      the signature side bucketed differently -- the divergence bug).
    """

    kind: str
    width: int = 0
    height: int = 0
    pitch: int = 0
    nseg: int = 0

    def uniform_tuple(self) -> Optional[Tuple[int, int, int]]:
        """The ``(width, height, pitch)`` 2-D view, or None."""
        if self.kind == "contig":
            return (self.width, 1, self.width)
        if self.kind == "uniform":
            return (self.width, self.height, self.pitch)
        return None


def classify_segments(segs) -> LayoutClass:
    """Classify a :class:`~repro.mpi.datatype.SegmentList` (duck-typed)."""
    n = segs.count
    if n == 0:
        return LayoutClass("empty")
    lens = segs.lengths
    if n == 1:
        return LayoutClass("contig", width=int(lens[0]), nseg=1)
    if bool((lens == lens[0]).all()):
        width = int(lens[0])
        deltas = np.diff(segs.offsets)
        if width > 0 and bool((deltas == deltas[0]).all()):
            pitch = int(deltas[0])
            if pitch > width:
                return LayoutClass("uniform", width=width, height=n,
                                   pitch=pitch, nseg=n)
        return LayoutClass("irregular", width=width, nseg=n)
    return LayoutClass("irregular", width=0, nseg=n)


def classify_node(node) -> LayoutClass:
    """Classify a canonical node without touching its run arrays."""
    if isinstance(node, Empty):
        return LayoutClass("empty")
    if isinstance(node, Contig):
        return LayoutClass("contig", width=node.nbytes, nseg=1)
    if isinstance(node, StridedRun):
        return LayoutClass("uniform", width=node.width, height=node.count,
                           pitch=node.pitch, nseg=node.count)
    if isinstance(node, BlockGrid):
        nseg = 1
        for c, _s in node.dims:
            nseg *= c
        # A grid is 2-D-copyable only when it is really one strided run
        # (detection would have said StridedRun); multi-dim grids classify
        # as equal-width irregular layouts.
        return LayoutClass("irregular", width=node.width, nseg=nseg)
    if isinstance(node, Irregular):
        lens = node.lengths
        width = int(lens[0]) if lens.shape[0] and bool(
            (lens == lens[0]).all()) else 0
        return LayoutClass("irregular", width=width,
                           nseg=int(lens.shape[0]))
    raise TypeError(f"cannot classify {node!r}")


# ---------------------------------------------------------------------------
# The canonical registry: shared per-layout caches
# ---------------------------------------------------------------------------


class CanonicalEntry:
    """Process-wide shared caches of one canonical layout.

    Every :class:`~repro.mpi.datatype.Datatype` whose runs canonicalize
    to the same node holds the same entry, so tilings,
    chunk slices, transfer plans and tuning signatures compiled by *any*
    instance serve *all* of them. Cache values carry the ``type_id``
    that created them: a hit from a different type is a cross-instance
    share, surfaced in the ``[dtype:]`` footer.

    ``lb``/``extent`` never enter the canonical key; they appear inside
    the cache keys exactly where tiling makes them observable
    (``count > 1``), which is the resized/dup extent normalization.
    Nothing in an entry can go stale: a type's runs are fixed at
    construction and every cache key spells out the rest.
    """

    SEG_CAP = 64
    SLICE_CAP = 256
    PLAN_CAP = 64

    __slots__ = ("key", "node", "klass", "segments", "creator",
                 "seg_cache", "slice_cache", "plan_cache", "sig_cache")

    def __init__(self, key: tuple, node, segments, creator: int):
        self.key = key
        self.node = node
        self.klass = classify_node(node) if not isinstance(node, Struct) \
            else classify_segments(segments)
        #: The seed run arrays (the first registrant's compiled segments).
        self.segments = segments
        self.creator = creator
        # (count, tile extent) -> (SegmentList, creator_id)
        self.seg_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        # (count, extent, lo, hi) -> (SegmentList, creator_id)
        self.slice_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        # (count, extent, chunk_bytes, src, dst) -> (TransferPlan, creator)
        self.plan_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        # (count, extent) -> (LayoutSignature, creator_id)
        self.sig_cache: dict = {}

    # -- shared compilations -------------------------------------------------
    def segments_for(self, count: int, extent: int, caller: int):
        """The shared ``count``-element tiling."""
        key = (count, _tile_extent(count, extent))
        hit = self.seg_cache.get(key)
        if hit is not None:
            self.seg_cache.move_to_end(key)
            PERF.bump("seg_cache_hit")
            if hit[1] != caller:
                PERF.bump("dtir_seg_shared")
            return hit[0]
        PERF.bump("seg_cache_miss")
        segs = self.segments.tiled(count, extent).coalesced()
        self.seg_cache[key] = (segs, caller)
        if len(self.seg_cache) > self.SEG_CAP:
            self.seg_cache.popitem(last=False)
        return segs

    def slice_for(self, full, count: int, extent: int, lo: int, hi: int,
                  caller: int):
        """The shared chunk slice ``[lo, hi)`` of ``count`` elements."""
        key = (count, _tile_extent(count, extent), lo, hi)
        hit = self.slice_cache.get(key)
        if hit is not None:
            self.slice_cache.move_to_end(key)
            PERF.bump("slice_cache_hit")
            if hit[1] != caller:
                PERF.bump("dtir_slice_shared")
            return hit[0]
        PERF.bump("slice_cache_miss")
        segs = full.slice_bytes(lo, hi)
        self.slice_cache[key] = (segs, caller)
        if len(self.slice_cache) > self.SLICE_CAP:
            self.slice_cache.popitem(last=False)
        return segs

    def plan_for(self, dtype, count: int, chunk_bytes: int,
                 src_kind: str, dst_kind: str):
        """The shared compiled TransferPlan for one transfer shape."""
        key = (count, _tile_extent(count, dtype.extent), chunk_bytes,
               src_kind, dst_kind)
        hit = self.plan_cache.get(key)
        if hit is not None:
            self.plan_cache.move_to_end(key)
            PERF.bump("plan_cache_hit")
            if hit[1] != dtype.type_id:
                PERF.bump("dtir_plan_shared")
            return hit[0]
        PERF.bump("plan_cache_miss")
        from ..core.plan import TransferPlan

        plan = TransferPlan.compile(dtype, count, chunk_bytes,
                                    src_kind, dst_kind)
        self.plan_cache[key] = (plan, dtype.type_id)
        if len(self.plan_cache) > self.PLAN_CAP:
            self.plan_cache.popitem(last=False)
        return plan

    def signature_for(self, dtype, count: int):
        """The shared tuning-table signature of ``count`` elements."""
        key = (count, _tile_extent(count, dtype.extent))
        hit = self.sig_cache.get(key)
        if hit is not None:
            if hit[1] != dtype.type_id:
                PERF.bump("dtir_sig_shared")
            return hit[0]
        from ..tune.signature import signature_of_segments

        sig = signature_of_segments(dtype.segments_for_count(count))
        if len(self.sig_cache) > 64:
            self.sig_cache.clear()
        self.sig_cache[key] = (sig, dtype.type_id)
        return sig


def _tile_extent(count: int, extent: int) -> int:
    """The extent as a cache key: only a tiling (``count > 1``) sees it."""
    return extent if count > 1 else 0


#: canonical key -> CanonicalEntry, LRU-capped.
_REGISTRY: "OrderedDict[tuple, CanonicalEntry]" = OrderedDict()
REGISTRY_CAP = 256


def registry_size() -> int:
    return len(_REGISTRY)


def reset_registry() -> None:
    """Drop all entries (tests and benchmarks measuring cold compiles)."""
    _REGISTRY.clear()


def lookup(key: tuple) -> Optional[CanonicalEntry]:
    """The registered entry of a regular canonical ``key``, or None.

    Constructors call this with the key of their symbolic fixpoint; a hit
    binds the new type to the entry, which counts as one binding and one
    collision (a type being constructed cannot be an entry's creator).
    """
    entry = _REGISTRY.get(key)
    if entry is not None:
        _REGISTRY.move_to_end(key)
        PERF.bump("dtir_canon")
        PERF.bump("dtir_entry_reuse")
        PERF.bump("dtir_collision")
    return entry


def register(segments, type_id: int) -> CanonicalEntry:
    """Canonicalize a type's runs and bind its registry entry.

    Detection on ``segments`` is authoritative for the canonical key. A
    regular key (``Contig``/``StridedRun``/``BlockGrid``) spells out the
    exact runs; an ``Irregular`` digest key is confirmed against the
    entry's run arrays on a hit, and a digest collision gets a private,
    unregistered entry so it never shares compilations.
    """
    PERF.bump("dtir_canon")
    det = detect(segments.offsets, segments.lengths)
    key = det.key()
    entry = _REGISTRY.get(key)
    if entry is None:
        entry = CanonicalEntry(key, det, segments, creator=type_id)
        _REGISTRY[key] = entry
        if len(_REGISTRY) > REGISTRY_CAP:
            _REGISTRY.popitem(last=False)
        return entry
    if isinstance(det, Irregular) and not (
        np.array_equal(segments.offsets, entry.segments.offsets)
        and np.array_equal(segments.lengths, entry.segments.lengths)
    ):
        return CanonicalEntry(key, det, segments, creator=type_id)
    _REGISTRY.move_to_end(key)
    PERF.bump("dtir_entry_reuse")
    if type_id != entry.creator:
        PERF.bump("dtir_collision")
    return entry
