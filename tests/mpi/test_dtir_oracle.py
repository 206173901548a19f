"""Constructors against an independent typemap oracle, and the hit budget.

Constructors bind regular layouts from their symbolic IR (a registry hit
shares the entry's runs, a miss lowers the canonical node), so checking
the runs against the IR's own lowering would be circular. The oracle
here expands constructor *arguments* into byte runs by brute force, one
base element at a time, with no NumPy and no IR, and coalesces them.
Three routes are covered: a registry miss (fresh registry), a registry
hit (the same construction twice) and the array route (negative, zero
and overlapping strides; ``darray``).

The budget test pins, without a timer, that a registry hit does no array
work at all: no lowering, detection, tiling or coalescing.
"""

import itertools
import math
from collections import Counter

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.mpi import BYTE, FLOAT, Datatype, SegmentList, dtir

PRIMS = [BYTE, Datatype.named(np.int16), FLOAT, Datatype.named(np.float64)]


# ---------------------------------------------------------------------------
# The oracle: spec -> (runs, lb, extent, size)
# ---------------------------------------------------------------------------


def _placed(base, starts):
    """The base typemap copied at each start, in order."""
    runs, _, _, _ = base
    return [(s + off, ln) for s in starts for off, ln in runs]


def _coalesce(runs):
    out = []
    for off, ln in runs:
        if out and out[-1][0] + out[-1][1] == off:
            out[-1] = (out[-1][0], out[-1][1] + ln)
        else:
            out.append((off, ln))
    return out


def _spanned(runs, size):
    """Runs with lb/extent taken from their span (empty: 0, 0)."""
    runs = _coalesce(runs)
    if not runs:
        return runs, 0, 0, size
    lo = min(off for off, _ in runs)
    hi = max(off + ln for off, ln in runs)
    return runs, lo, hi - lo, size


def _grid_order(ranges, order):
    """Index tuples of a multi-dim range in C or Fortran pack order."""
    if order == "C":
        return itertools.product(*ranges)
    return (idx[::-1] for idx in itertools.product(*ranges[::-1]))


def _linear(idx, sizes, order):
    dims = range(len(sizes)) if order == "F" else reversed(range(len(sizes)))
    lin, scale = 0, 1
    for d in dims:
        lin += idx[d] * scale
        scale *= sizes[d]
    return lin


def _owned(g, dist, p, c):
    """Global indices process coordinate ``c`` owns (default blocking)."""
    if dist == "none":
        return set(range(g))
    if dist == "block":
        block = -(-g // p)
        return {i for i in range(g) if i // block == c}
    return {i for i in range(g) if i % p == c}


def oracle(spec):
    kind = spec[0]
    if kind == "prim":
        n = PRIMS[spec[1]].size
        return [(0, n)], 0, n, n
    if kind in ("contig", "vector", "hvector"):
        if kind == "contig":
            count, base = spec[1], oracle(spec[2])
            bl, stride = 1, base[2]
        else:
            count, bl, stride, base = spec[1], spec[2], spec[3], oracle(spec[4])
            if kind == "vector":
                stride *= base[2]
        starts = [i * stride + j * base[2]
                  for i in range(count) for j in range(bl)]
        return _spanned(_placed(base, starts), count * bl * base[3])
    if kind in ("indexed", "hindexed"):
        bls, disps, base = spec[1], spec[2], oracle(spec[3])
        scale = base[2] if kind == "indexed" else 1
        starts = [d * scale + j * base[2]
                  for bl, d in zip(bls, disps) for j in range(bl)]
        return _spanned(_placed(base, starts), sum(bls) * base[3])
    if kind == "struct":
        runs, size = [], 0
        for bl, disp, sub in zip(spec[1], spec[2], spec[3]):
            t = oracle(sub)
            runs += _placed(t, [disp + j * t[2] for j in range(bl)])
            size += bl * t[3]
        return _spanned(runs, size)
    if kind == "subarray":
        sizes, subs, starts, order, base = spec[1:5] + (oracle(spec[5]),)
        ranges = [range(s, s + n) for s, n in zip(starts, subs)]
        elems = [_linear(idx, sizes, order) * base[2]
                 for idx in _grid_order(ranges, order)]
        runs = _coalesce(_placed(base, elems))
        return runs, 0, math.prod(sizes) * base[2], math.prod(subs) * base[3]
    if kind == "darray":
        nprocs, rank, gsizes, distribs, psizes, order, base = (
            spec[1:7] + (oracle(spec[7]),))
        # Ranks number the process grid with the pack-order fastest
        # dimension varying fastest.
        fastest_first = (range(len(psizes)) if order == "F"
                         else reversed(range(len(psizes))))
        coords, r = [0] * len(psizes), rank
        for d in fastest_first:
            coords[d] = r % psizes[d]
            r //= psizes[d]
        owned = [_owned(g, dist, p, c)
                 for g, dist, p, c in zip(gsizes, distribs, psizes, coords)]
        elems = [_linear(idx, gsizes, order) * base[2]
                 for idx in _grid_order([range(g) for g in gsizes], order)
                 if all(i in o for i, o in zip(idx, owned))]
        runs = _coalesce(_placed(base, elems))
        return (runs, 0, math.prod(gsizes) * base[2],
                len(elems) * base[3])
    if kind == "resized":
        runs, _, _, size = oracle(spec[3])
        return runs, spec[1], spec[2], size
    assert kind == "dup"
    return oracle(spec[1])


def build(spec) -> Datatype:
    kind = spec[0]
    if kind == "prim":
        return PRIMS[spec[1]]
    if kind == "contig":
        return Datatype.contiguous(spec[1], build(spec[2]))
    if kind == "vector":
        return Datatype.vector(*spec[1:4], build(spec[4]))
    if kind == "hvector":
        return Datatype.hvector(*spec[1:4], build(spec[4]))
    if kind == "indexed":
        return Datatype.indexed(spec[1], spec[2], build(spec[3]))
    if kind == "hindexed":
        return Datatype.hindexed(spec[1], spec[2], build(spec[3]))
    if kind == "struct":
        return Datatype.struct(spec[1], spec[2], [build(s) for s in spec[3]])
    if kind == "subarray":
        sizes, subs, starts, order, base = spec[1:]
        return Datatype.subarray(sizes, subs, starts, build(base), order)
    if kind == "darray":
        nprocs, rank, gsizes, distribs, psizes, order, base = spec[1:]
        return Datatype.darray(nprocs, rank, gsizes, distribs,
                               [None] * len(gsizes), psizes, build(base),
                               order)
    if kind == "resized":
        return Datatype.resized(build(spec[3]), spec[1], spec[2])
    return Datatype.dup(build(spec[1]))


# ---------------------------------------------------------------------------
# Constructor-argument strategies
# ---------------------------------------------------------------------------


@st.composite
def _subarray(draw, base):
    nd = draw(st.integers(1, 3))
    sizes = [draw(st.integers(1, 4)) for _ in range(nd)]
    subs = [draw(st.integers(1, n)) for n in sizes]
    starts = [draw(st.integers(0, n - s)) for n, s in zip(sizes, subs)]
    return ("subarray", sizes, subs, starts,
            draw(st.sampled_from("CF")), base)


@st.composite
def _darray(draw, base):
    nprocs = draw(st.sampled_from([1, 2, 4]))
    psizes = draw(st.sampled_from([[nprocs, 1], [1, nprocs]]))
    gsizes = [draw(st.integers(p, 6)) for p in psizes]
    distribs = [draw(st.sampled_from(["block", "cyclic"])) if p > 1
                else draw(st.sampled_from(["none", "block", "cyclic"]))
                for p in psizes]
    return ("darray", nprocs, draw(st.integers(0, nprocs - 1)), gsizes,
            distribs, psizes, draw(st.sampled_from("CF")), base)


@st.composite
def specs(draw, depth=3):
    """A random constructor tree, strides of any sign included."""
    prim = ("prim", draw(st.integers(0, len(PRIMS) - 1)))
    if depth == 0:
        return prim
    base = draw(specs(depth=depth - 1))
    kind = draw(st.sampled_from(
        ["prim", "contig", "vector", "hvector", "indexed", "hindexed",
         "struct", "subarray", "darray", "resized", "dup"]))
    n = draw(st.integers(1, 3))
    small = st.integers(0, 3)
    if kind == "prim":
        return prim
    if kind == "contig":
        return ("contig", draw(st.integers(0, 4)), base)
    if kind == "vector":
        return ("vector", draw(st.integers(0, 4)), draw(small),
                draw(st.integers(-3, 5)), base)
    if kind == "hvector":
        return ("hvector", draw(st.integers(0, 4)), draw(small),
                draw(st.integers(-40, 60)), base)
    if kind in ("indexed", "hindexed"):
        disp = st.integers(-2, 8) if kind == "indexed" else st.integers(-16, 64)
        return (kind, [draw(small) for _ in range(n)],
                [draw(disp) for _ in range(n)], base)
    if kind == "struct":
        return ("struct", [draw(st.integers(0, 2)) for _ in range(n)],
                [draw(st.integers(-8, 64)) for _ in range(n)],
                [base] + [prim] * (n - 1))
    if kind == "subarray":
        return draw(_subarray(base))
    if kind == "darray":
        return draw(_darray(base))
    if kind == "resized":
        return ("resized", draw(st.integers(-4, 4)),
                draw(st.integers(0, 48)), base)
    return ("dup", base)


@st.composite
def array_route_specs(draw):
    """Layouts with no regular symbolic form: reversed, stalled or
    overlapping tilings of a non-empty base, and ``darray``."""
    base = draw(specs(depth=2))
    kind = draw(st.sampled_from(["negative", "zero", "overlap", "darray"]))
    if kind == "darray":
        return draw(_darray(base))
    count = draw(st.integers(2, 4))
    if kind == "overlap":
        prim = draw(st.integers(1, len(PRIMS) - 1))  # at least 2 bytes
        stride = draw(st.integers(1, PRIMS[prim].size - 1))
        return ("hvector", count, 1, stride, ("prim", prim))
    stride = 0 if kind == "zero" else draw(st.integers(-64, -1))
    return ("hvector", count, draw(st.integers(1, 3)), stride, base)


def assert_matches_oracle(dt, spec):
    runs, lb, extent, size = oracle(spec)
    segs = dt.segments
    assert (dt.size, dt.lb, dt.extent) == (size, lb, extent)
    assert list(zip(segs.offsets.tolist(), segs.lengths.tolist())) == runs


# ---------------------------------------------------------------------------
# The three routes
# ---------------------------------------------------------------------------


@given(spec=specs())
@settings(max_examples=150, deadline=None)
def test_miss_route_matches_oracle(spec):
    dtir.reset_registry()
    assert_matches_oracle(build(spec), spec)


@given(spec=specs())
@settings(max_examples=150, deadline=None)
def test_hit_route_matches_oracle(spec):
    dtir.reset_registry()
    first = build(spec).commit()
    again = build(spec)
    assert_matches_oracle(again, spec)
    if not isinstance(again._ir, dtir.REGULAR):
        return
    assert again._entry() is first._entry()
    while spec[0] in ("dup", "resized"):
        spec = spec[-1]
    if spec[0] != "prim":
        # Bound at construction, sharing the registered runs.
        assert again._canon_entry is first._entry()
        assert again.segments is first._entry().segments


@given(spec=array_route_specs())
@settings(max_examples=100, deadline=None)
def test_array_route_matches_oracle(spec):
    assume(oracle(spec)[3] > 0)
    dtir.reset_registry()
    dt = build(spec)
    assert not isinstance(dt._ir, dtir.REGULAR)
    assert dt._canon_entry is None
    assert_matches_oracle(dt, spec)
    assert_matches_oracle(build(spec).commit(), spec)


def test_oracle_spot_checks():
    """The oracle itself, on layouts whose runs are known by hand."""
    f = ("prim", 2)  # FLOAT
    assert oracle(("vector", 3, 1, 2, f)) == (
        [(0, 4), (8, 4), (16, 4)], 0, 20, 12)
    assert oracle(("hvector", 2, 1, -8, f)) == ([(0, 4), (-8, 4)], -8, 12, 8)
    assert oracle(("subarray", [4, 3], [2, 3], [0, 0], "F", f))[0] == [
        (0, 8), (16, 8), (32, 8)]
    assert oracle(("darray", 2, 1, [8], ["cyclic"], [2], "C",
                   ("prim", 0)))[0] == [(1, 1), (3, 1), (5, 1), (7, 1)]


# ---------------------------------------------------------------------------
# A registry hit does no array work
# ---------------------------------------------------------------------------


def test_registry_hit_does_no_array_work(monkeypatch):
    calls = Counter()

    def count_calls(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    dtir.reset_registry()
    Datatype.vector(64, 4, 16, FLOAT).commit()
    for owner, name in [(dtir, "lower"), (dtir, "detect"),
                        (SegmentList, "tiled"), (SegmentList, "coalesced")]:
        count_calls(owner, name)
    equivalents = [
        lambda: Datatype.vector(64, 4, 16, FLOAT),
        lambda: Datatype.hvector(64, 4, 64, FLOAT),
        lambda: Datatype.subarray([64, 16], [64, 4], [0, 0], FLOAT),
    ]
    for make in equivalents:
        make().commit()
    assert calls == Counter()
    # The counters do see a miss: one lowering, one detection at commit.
    dtir.reset_registry()
    Datatype.vector(64, 4, 16, FLOAT).commit()
    assert calls == Counter(lower=1, detect=1)
