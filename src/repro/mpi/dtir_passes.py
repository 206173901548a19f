"""Deterministic rewrite passes over the datatype IR.

The symbolic half of canonicalization: constructors build an IR tree
(:mod:`repro.mpi.dtir`) from their arguments and :func:`canonicalize`
rewrites it to a fixpoint, once per construction. Four passes run in a fixed order, repeated until nothing
changes:

1. **struct flattening** (``dtir_rw_flatten``) -- inline nested
   ``Struct`` children and drop ``Empty`` leaves; a one-child struct
   becomes its child. This is the ``get_flatten_info`` trick: a struct
   whose leaves all share one primitive collapses into a flat run list
   the later passes can unify.
2. **contiguous coalescing** (``dtir_rw_coalesce``) -- merge pack-order
   neighbours: ``Contig``+``Contig`` that abut, a ``StridedRun`` whose
   pitch equals its width (really contiguous), strided-run
   continuations (same width/pitch, seamless offset), and a trailing
   run that extends a strided run by exactly one period.
3. **stride unification** (``dtir_rw_unify``) -- a struct whose
   children are all the *same* node shifted by a constant spacing
   becomes one tiled node (``Contig`` children -> ``StridedRun``,
   ``StridedRun``/``BlockGrid`` children -> an outer grid dimension).
   This is what turns a struct of uniform arrays into the single
   strided run the ``cudaMemcpy2D`` path wants.
4. **dimension normalization** (``dtir_rw_dims``) -- drop ``count == 1``
   grid dims, merge separable adjacent dims (outer stride equals inner
   count x inner stride), collapse an innermost dim whose stride equals
   the width into the run width, and demote degenerate grids
   (one dim -> ``StridedRun``, none -> ``Contig``).

Confluence: every rewrite strictly reduces a well-founded measure
(node count, then grid-dim count, then segment count at equal node
count), so the fixpoint exists; and each rewrite preserves the lowering
(the run sequence in pack order) exactly, so any rewrite order ends at
a form with the same lowering.

The fixpoint keys the registry: when it is regular (``Empty``,
``Contig``, ``StridedRun``, ``BlockGrid``) the constructor looks its key
up (:func:`repro.mpi.dtir.lookup`), and a hit binds the new type with no
run arrays built at all. Detection (:func:`repro.mpi.dtir.detect`) stays
authoritative on a miss: the lowered runs register through it, so a
fixpoint that ever disagreed with detection would cost one extra
lowering, never a second registry entry. The property tests pin that a
regular fixpoint equals the detected node. The passes also feed the
observability counters (``dtir_nodes_before/after``, ``dtir_rw_*``),
for every construction with a tree.

Dimension *sorting* (descending contiguous footprint) deliberately
lives in :func:`repro.mpi.dtir.shape_key`, not here: reordering grid
dims permutes the packed byte sequence, so it is a classification-key
normalization, never an identity rewrite.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..perf.stats import PERF
from .dtir import (
    EMPTY,
    BlockGrid,
    Contig,
    Empty,
    Irregular,
    StridedRun,
    Struct,
    node_count,
)

__all__ = ["canonicalize", "MAX_PASS_ITERATIONS"]

#: Fixpoint iteration cap; every pass strictly shrinks its measure, so
#: this is a backstop against rewrite bugs, not a tuning knob.
MAX_PASS_ITERATIONS = 16


# ---------------------------------------------------------------------------
# Pass 1: struct flattening
# ---------------------------------------------------------------------------


def _flatten(node):
    if not isinstance(node, Struct):
        return node
    out: List[object] = []
    changed = False
    for child in node.children:
        child = _flatten(child)
        if isinstance(child, Empty):
            PERF.bump("dtir_rw_flatten")
            changed = True
            continue
        if isinstance(child, Struct):
            PERF.bump("dtir_rw_flatten")
            changed = True
            out.extend(child.children)
        else:
            out.append(child)
    if not out:
        PERF.bump("dtir_rw_flatten")
        return EMPTY
    if len(out) == 1:
        PERF.bump("dtir_rw_flatten")
        return out[0]
    if not changed:
        return node
    return Struct(tuple(out))


# ---------------------------------------------------------------------------
# Pass 2: contiguous coalescing
# ---------------------------------------------------------------------------


def _node_end(node) -> Optional[int]:
    """Last byte (exclusive) of the final run, None for irregular forms."""
    if isinstance(node, Contig):
        return node.off + node.nbytes
    if isinstance(node, StridedRun):
        return node.off + (node.count - 1) * node.pitch + node.width
    return None


def _merge_pair(a, b):
    """Merge two pack-order neighbours, or None when they stay separate."""
    a_end = _node_end(a)
    if a_end is None:
        return None
    if isinstance(a, Contig) and isinstance(b, Contig):
        if b.off == a_end:
            return Contig(a.off, a.nbytes + b.nbytes)
        return None
    if isinstance(a, StridedRun) and isinstance(b, StridedRun):
        if (a.width == b.width and a.pitch == b.pitch
                and b.off == a.off + a.count * a.pitch):
            return StridedRun(a.off, a.count + b.count, a.width, a.pitch)
        return None
    if isinstance(a, StridedRun) and isinstance(b, Contig):
        # One more period of the same run.
        if b.nbytes == a.width and b.off == a.off + a.count * a.pitch:
            return StridedRun(a.off, a.count + 1, a.width, a.pitch)
        return None
    if isinstance(a, Contig) and isinstance(b, StridedRun):
        if a.nbytes == b.width and b.off == a.off + b.pitch:
            return StridedRun(a.off, b.count + 1, b.width, b.pitch)
        return None
    return None


def _coalesce(node):
    if isinstance(node, StridedRun):
        if node.pitch == node.width:
            PERF.bump("dtir_rw_coalesce")
            return Contig(node.off, node.count * node.width)
        if node.count == 1:
            PERF.bump("dtir_rw_coalesce")
            return Contig(node.off, node.width)
        if node.count == 0 or node.width == 0:
            PERF.bump("dtir_rw_coalesce")
            return EMPTY
        return node
    if isinstance(node, Contig) and node.nbytes == 0:
        PERF.bump("dtir_rw_coalesce")
        return EMPTY
    if not isinstance(node, Struct):
        return node
    children = [_coalesce(c) for c in node.children]
    out: List[object] = [children[0]]
    changed = children != list(node.children)
    for child in children[1:]:
        merged = _merge_pair(out[-1], child)
        if merged is not None:
            PERF.bump("dtir_rw_coalesce")
            out[-1] = merged
            changed = True
        else:
            out.append(child)
    if not changed:
        return node
    if len(out) == 1:
        return out[0]
    return Struct(tuple(out))


# ---------------------------------------------------------------------------
# Pass 3: stride unification
# ---------------------------------------------------------------------------


def _relocated(node, new_off: int):
    """``node`` moved so its anchor offset becomes ``new_off``."""
    if isinstance(node, Contig):
        return Contig(new_off, node.nbytes)
    if isinstance(node, StridedRun):
        return StridedRun(new_off, node.count, node.width, node.pitch)
    if isinstance(node, BlockGrid):
        return BlockGrid(new_off, node.dims, node.width)
    return None


def _anchor(node) -> Optional[int]:
    if isinstance(node, (Contig, StridedRun, BlockGrid)):
        return node.off
    return None


def _unify(node):
    if not isinstance(node, Struct):
        return node
    children = [_unify(c) for c in node.children]
    changed = children != list(node.children)
    first = children[0]
    a0 = _anchor(first)
    unified = None
    if a0 is not None and len(children) >= 2:
        a1 = _anchor(children[1])
        if a1 is not None:
            spacing = a1 - a0
            if spacing > 0 and all(
                _anchor(c) == a0 + i * spacing
                and _relocated(c, a0) == first
                for i, c in enumerate(children)
            ):
                # Every child is the first one shifted by i * spacing:
                # re-tile symbolically (None when tiles could touch).
                from .dtir import tiled_node

                unified = tiled_node(first, len(children), spacing)
    if unified is not None:
        PERF.bump("dtir_rw_unify")
        return unified
    if not changed:
        return node
    return Struct(tuple(children))


# ---------------------------------------------------------------------------
# Pass 4: dimension normalization
# ---------------------------------------------------------------------------


def _dims(node):
    if isinstance(node, Struct):
        children = tuple(_dims(c) for c in node.children)
        if children == node.children:
            return node
        return Struct(children)
    if not isinstance(node, BlockGrid):
        return node
    dims: List[Tuple[int, int]] = list(node.dims)
    width = node.width
    changed = False
    # Drop count==1 dims (they contribute nothing to the enumeration).
    kept = [d for d in dims if d[0] != 1]
    if len(kept) != len(dims):
        PERF.bump("dtir_rw_dims")
        dims = kept
        changed = True
    # Innermost stride == width: the inner runs are back-to-back, so the
    # dim is really part of the run width.
    while dims and dims[-1][1] == width:
        PERF.bump("dtir_rw_dims")
        width *= dims[-1][0]
        dims = dims[:-1]
        changed = True
    # Merge separable adjacent dims: outer stride spanning exactly the
    # inner dim means the pair enumerates one longer inner dim.
    i = len(dims) - 2
    while i >= 0:
        (oc, os_), (ic, is_) = dims[i], dims[i + 1]
        if os_ == ic * is_:
            PERF.bump("dtir_rw_dims")
            dims[i:i + 2] = [(oc * ic, is_)]
            changed = True
            i = min(i, len(dims) - 2)
        else:
            i -= 1
    if not dims:
        PERF.bump("dtir_rw_dims")
        return Contig(node.off, width)
    if len(dims) == 1:
        PERF.bump("dtir_rw_dims")
        count, stride = dims[0]
        if stride == width:
            return Contig(node.off, count * width)
        return StridedRun(node.off, count, width, stride)
    if not changed:
        return node
    return BlockGrid(node.off, tuple(dims), width)


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


def canonicalize(node):
    """Rewrite ``node`` to its pass fixpoint, bumping the PERF counters.

    Deterministic (fixed pass order, pure rewrites) and terminating
    (each applied rewrite strictly shrinks node count, grid-dim count or
    strided-run fragmentation). The result lowers to exactly the same
    run sequence as the input.
    """
    if isinstance(node, Irregular):
        # Nothing symbolic to do; detection owns this class.
        PERF.bump("dtir_nodes_before", 1)
        PERF.bump("dtir_nodes_after", 1)
        return node
    PERF.bump("dtir_nodes_before", node_count(node))
    cur = node
    for _ in range(MAX_PASS_ITERATIONS):
        nxt = _dims(_unify(_coalesce(_flatten(cur))))
        if nxt == cur:
            break
        cur = nxt
    PERF.bump("dtir_nodes_after", node_count(cur))
    return cur
