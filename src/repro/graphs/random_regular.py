"""Random regular and fixed-degree-sequence graphs.

Two samplers are provided:

* :func:`configuration_model` — the classical pairing model.  Exact for
  multigraphs; with ``simple=True`` it rejects until simple, which is the
  textbook uniform sampler over simple r-regular graphs (acceptance
  probability ``≈ e^{-(r²-1)/4}``, fine for the constant degrees used here).
* :func:`random_regular_graph` — the Steger–Wormald incremental pairing
  algorithm [15], the same algorithm behind the NetworkX generator the paper
  used.  Asymptotically uniform and fast even for large ``n``.

Both use Python's Mersenne Twister (`random.Random`), matching the paper's
experimental setup (Section 5).

The Steger–Wormald attempt has two implementations with one output.
:func:`_steger_wormald_attempt` is the python reference.  When the native
extension loads (:func:`repro.engine.native.load`), each attempt runs in
its C twin ``repro_sw_attempt`` instead, which is **bit-identical**: it
replays the same ``randrange`` draws (CPython's ``_randbelow`` rejection
over the generator's raw words, fed through
:class:`~repro.engine.base.MTWordStream`), the same swap-deletion stub
pool, the same 200-try inner loop and the same sorted exhaustive fallback,
so it returns the same edge list (or the same dead end) and leaves the
generator in the same state.  The python loop remains the only path when
the extension is missing or disabled (``REPRO_NATIVE=0``), for generators
that override ``random()`` (their ``_randbelow`` differs), and from
``n*r >= 2**31`` stubs, past the kernel's int32 stub indices and
one-word draws.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.errors import GenerationError, ReproError
from repro.graphs.graph import Graph
from repro.graphs.properties import is_connected
from repro.telemetry import get_telemetry

__all__ = [
    "configuration_model",
    "random_regular_graph",
    "random_even_degree_graph",
    "random_connected_regular_graph",
]


def _validate_degree_sequence(degrees: Sequence[int], simple: bool = False) -> None:
    """Reject impossible degree sequences.

    The base checks (non-negative, even sum) apply to any pairing; with
    ``simple=True`` the simple-graph bound ``d <= n-1`` is enforced too —
    multigraph callers keep ``simple=False`` because loops and parallel
    edges can realize any even-sum sequence.
    """
    if any(d < 0 for d in degrees):
        raise GenerationError("degrees must be non-negative")
    if sum(degrees) % 2 != 0:
        raise GenerationError("degree sum must be even")
    n = len(degrees)
    if simple and n > 1 and any(d > n - 1 for d in degrees):
        raise GenerationError("simple graph impossible: some degree exceeds n-1")


def _pairing_edges(degrees: Sequence[int], rng: random.Random) -> List[Tuple[int, int]]:
    """One pairing-model sample: match half-edges uniformly at random."""
    stubs: List[int] = []
    for v, d in enumerate(degrees):
        stubs.extend([v] * d)
    rng.shuffle(stubs)
    return [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]


def _is_simple_edge_list(edges: Sequence[Tuple[int, int]]) -> bool:
    seen = set()
    for u, v in edges:
        if u == v:
            return False
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return False
        seen.add(key)
    return True


def configuration_model(
    degrees: Sequence[int],
    rng: random.Random,
    simple: bool = True,
    max_retries: int = 10_000,
    name: str = "",
) -> Graph:
    """Sample a graph with the given degree sequence via the pairing model.

    With ``simple=True`` the sample is rejected and redrawn until it has no
    loops or parallel edges, yielding the uniform distribution over simple
    graphs with that degree sequence.  With ``simple=False`` a single pairing
    is returned (a multigraph in general).

    Raises
    ------
    GenerationError
        On invalid degree sequences, or if ``max_retries`` rejections occur.
    """
    _validate_degree_sequence(degrees, simple=simple)
    n = len(degrees)
    label = name or f"CM(n={n})"
    if not simple:
        return Graph(n, _pairing_edges(degrees, rng), name=label)
    for _ in range(max_retries):
        edges = _pairing_edges(degrees, rng)
        if _is_simple_edge_list(edges):
            return Graph(n, edges, name=label)
    raise GenerationError(
        f"configuration model failed to produce a simple graph in "
        f"{max_retries} attempts (degrees too dense?)"
    )


def random_regular_graph(
    n: int,
    r: int,
    rng: random.Random,
    max_restarts: int = 1_000,
    name: str = "",
) -> Graph:
    """Random simple r-regular graph via Steger–Wormald incremental pairing.

    The algorithm repeatedly joins two random *distinct, non-adjacent*
    vertices that still have free stubs; when it paints itself into a corner
    (only forbidden pairs remain) it restarts.  For fixed ``r`` restarts are
    rare and the output distribution is asymptotically uniform [15].

    Parameters
    ----------
    n, r:
        Vertex count and degree; ``n*r`` must be even and ``r < n``.
    rng:
        Mersenne-Twister source; pass a seeded ``random.Random``.
    """
    if n <= 0:
        raise GenerationError(f"n must be positive, got {n}")
    if r < 0 or r >= n:
        raise GenerationError(f"need 0 <= r < n, got r={r}, n={n}")
    if (n * r) % 2 != 0:
        raise GenerationError(f"n*r must be even, got n={n}, r={r}")
    label = name or f"G({n},{r})"
    if r == 0:
        return Graph(n, [], name=label)

    kernel = _native_kernel(n, r, rng)
    native = None if kernel is None else _NativeAttempts(kernel, n, r, rng)
    for _restart in range(max_restarts):
        edges = _steger_wormald_attempt(n, r, rng) if native is None else native.attempt()
        if edges is not None:
            if native is not None:
                tel = get_telemetry()
                if tel.enabled:
                    tel.count("graphs.native_samples")
            return Graph(n, edges, name=label)
    raise GenerationError(
        f"Steger-Wormald failed after {max_restarts} restarts (n={n}, r={r})"
    )


def _steger_wormald_attempt(
    n: int, r: int, rng: random.Random
) -> Optional[List[Tuple[int, int]]]:
    """One Steger–Wormald pass; ``None`` signals a dead end (restart).

    The free-stub weighting is realized by sampling from a pool of *stubs*
    (each vertex present with multiplicity ``free[v]``), so a draw is
    automatically proportional to the remaining stub counts and no
    probability-rejection step is needed; only self-pairs and already
    adjacent pairs are rejected.  Stub removal is O(r) via swap-deletion.
    """
    free = [r] * n
    adjacent = [set() for _ in range(n)]
    edges: List[Tuple[int, int]] = []
    # stub pool: vertex ids with multiplicity; positions[v] lists v's indices.
    pool: List[int] = []
    positions: List[List[int]] = [[] for _ in range(n)]
    for v in range(n):
        for _ in range(r):
            positions[v].append(len(pool))
            pool.append(v)

    def remove_stub(vertex: int) -> None:
        idx = positions[vertex].pop()
        last_idx = len(pool) - 1
        last_vertex = pool[last_idx]
        if idx != last_idx:
            pool[idx] = last_vertex
            # update the moved stub's recorded position (lists are length <= r)
            plist = positions[last_vertex]
            plist[plist.index(last_idx)] = idx
        pool.pop()

    def place(u: int, v: int) -> None:
        edges.append((u, v))
        adjacent[u].add(v)
        adjacent[v].add(u)
        free[u] -= 1
        free[v] -= 1
        remove_stub(u)
        remove_stub(v)

    while pool:
        placed = False
        for _ in range(200):
            u = pool[rng.randrange(len(pool))]
            v = pool[rng.randrange(len(pool))]
            if u == v or v in adjacent[u]:
                continue
            place(u, v)
            placed = True
            break
        if placed:
            continue
        # Exhaustive fallback over remaining free vertices; detects dead ends.
        remaining = sorted({x for x in pool})
        suitable = [
            (x, y)
            for i, x in enumerate(remaining)
            for y in remaining[i + 1 :]
            if y not in adjacent[x]
        ]
        if not suitable:
            return None  # dead end: restart
        u, v = suitable[rng.randrange(len(suitable))]
        place(u, v)
    return edges


#: Stub counts (``n*r``) from which only the python loop runs: the
#: kernel keeps stub indices in int32 and models ``getrandbits(k)`` only
#: for ``k <= 32``, where it is one word's top ``k`` bits.
_NATIVE_MAX_STUBS = 2**31

#: Initial words buffered per stub for one native attempt.  A successful
#: attempt draws about two pool indices per edge, each accepted with
#: probability >= 1/2; a short buffer only costs a rerun with more words.
_WORDS_PER_STUB = 2

# Status codes of repro_sw_attempt (SW_* in _fused.c).
_SW_GRAPH, _SW_DEAD, _SW_DRY, _SW_WIDE = 0, 1, 2, 3


def _native_kernel(n: int, r: int, rng: random.Random):
    """The kernel's ``repro_sw_attempt`` when it may sample G(n, r) from
    ``rng`` bit-identically, else None (use the python loop)."""
    if n * r >= _NATIVE_MAX_STUBS:
        return None
    from repro.engine import native
    from repro.engine.base import MTWordStream

    if not MTWordStream.supports(rng):
        return None
    kernel = native.load()
    return None if kernel is None else kernel.steger_wormald


class _NativeAttempts:
    """Runs :func:`_steger_wormald_attempt` in the C kernel, bit for bit.

    Each attempt hands the kernel a buffer of ``rng``'s upcoming raw words
    through an :class:`~repro.engine.base.MTWordStream`.  The kernel never
    makes randomness of its own; it reports how many words it consumed and
    the stream advances ``rng`` by exactly that many, the state the python
    loop leaves.  A buffer that runs dry reruns the attempt from the same
    state with twice the words.
    """

    def __init__(self, fn, n: int, r: int, rng: random.Random) -> None:
        import numpy as np
        from repro.engine.base import MTWordStream

        self._np = np
        self._fn = fn
        self._n = n
        self._r = r
        self._rng = rng
        self._stream = MTWordStream(rng)
        self._eu = np.empty(n * r // 2, dtype=np.int64)
        self._ev = np.empty(n * r // 2, dtype=np.int64)
        self._out = np.zeros(1, dtype=np.int64)
        self._budget = _WORDS_PER_STUB * n * r + 64

    def attempt(self) -> Optional[List[Tuple[int, int]]]:
        """One attempt: the edge list, or ``None`` on a dead end."""
        np, stream, n, r = self._np, self._stream, self._n, self._r
        stream.begin()
        words = stream.take(self._budget)
        while True:
            status = self._fn(
                n, r, words.ctypes.data, words.size,
                self._eu.ctypes.data, self._ev.ctypes.data, self._out.ctypes.data,
            )
            if status != _SW_DRY:
                break
            words = np.concatenate((words, stream.take(words.size)))
        if status == _SW_WIDE:
            # A fallback draw past 32 bits: let the python loop replay the
            # attempt from the untouched generator.
            stream.sync_to(0)
            return _steger_wormald_attempt(n, r, self._rng)
        if status not in (_SW_GRAPH, _SW_DEAD):
            stream.sync_to(0)
            raise ReproError(f"native Steger-Wormald kernel failed (status {status})")
        stream.sync_to(int(self._out[0]))
        if status == _SW_DEAD:
            return None
        # Share one int object per vertex, as the python loop's pool does:
        # fresh tolist() ints would cost ~2 objects per edge of memory.
        verts = list(range(n))
        return list(
            zip(
                map(verts.__getitem__, self._eu.tolist()),
                map(verts.__getitem__, self._ev.tolist()),
            )
        )


def random_even_degree_graph(
    degrees: Sequence[int],
    rng: random.Random,
    max_retries: int = 10_000,
    name: str = "",
) -> Graph:
    """Random simple graph with a *fixed even degree sequence*.

    This is the paper's second example class ("fixed degree sequence random
    graphs, with all vertex degrees d(v) >= 4, even and finite").  All
    degrees must be even and >= 2.
    """
    if any(d % 2 != 0 for d in degrees):
        raise GenerationError("all degrees must be even")
    if any(d < 2 for d in degrees):
        raise GenerationError("all degrees must be >= 2 for a meaningful walk")
    return configuration_model(
        degrees, rng, simple=True, max_retries=max_retries,
        name=name or f"EvenDS(n={len(degrees)})",
    )


def random_connected_regular_graph(
    n: int,
    r: int,
    rng: random.Random,
    max_attempts: int = 200,
    name: str = "",
) -> Graph:
    """Random simple *connected* r-regular graph (rejection on connectivity).

    For ``r >= 3`` random regular graphs are connected whp, so rejections are
    rare; the retry cap exists for pathological parameters.
    """
    if r < 2:
        raise GenerationError(f"connected regular graphs need r >= 2, got r={r}")
    for _ in range(max_attempts):
        g = random_regular_graph(n, r, rng, name=name)
        if is_connected(g):
            return g
    raise GenerationError(
        f"no connected sample in {max_attempts} attempts (n={n}, r={r})"
    )
