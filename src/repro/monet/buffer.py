"""Simulated virtual-memory buffer management and page-fault accounting.

The real Monet maps BATs into virtual memory and lets the OS pager do
buffer management (paper section 2: "it has no page-based buffer
manager ... lets the MMU do the job in hardware").  The performance
analysis of the paper (sections 5.2.2 and 6) is entirely in terms of
**page faults**: how many B-byte pages each execution strategy touches.

This module reproduces that observable.  A :class:`BufferManager`
simulates an LRU resident set of heap pages with an optional memory
budget; operators report their accesses through three patterns:

* :meth:`BufferManager.access_range` — sequential scan of a byte range,
* :meth:`BufferManager.access_positions` — scattered (unclustered)
  access to individual entries, the pattern behind the
  ``1-(1-s)^C`` term of the section 5.2.2 cost model,
* :meth:`BufferManager.access_probes` — binary-search probes.

Faults are attributed to the operator named by the surrounding
:meth:`BufferManager.operator` context, which is how the per-statement
fault counts of Figure 10 are produced.

**Per-heap page state.**  The resident set is kept per heap: every
heap the manager has seen owns a numpy array with one *last-use clock*
per page (0 = not resident), a spill mask for transient pages evicted
under memory pressure, and — with ``track_pages`` — a mask of the pages
touched since :meth:`BufferManager.reset_counters`.  Each access call
ticks one global clock and stamps every page it touches with that
tick.  A call touches one heap, in ascending page order, so
``(tick, page)`` is the exact LRU order of the whole resident set.

**What a touch costs.**  An access is first reduced to the distinct
pages it touches: a page range for scans and probes, or, for a gather,
``positions // (page_size // width)`` marked in a boolean table the
size of the heap.  The touch itself is one gather of those pages'
clocks, one ``count_nonzero`` and one assignment — O(distinct pages)
of vectorised work, whatever the number of entries a gather reads.
Only a touch that would push the resident set past ``memory_pages``
walks its pages one at a time: it orders the resident pages by
``(tick, page)`` and evicts the oldest one page at a time.

**Task boundaries.**  Page state outlives the heap it describes, so a
long-lived manager (each worker of :mod:`repro.monet.multiproc` keeps
one across tasks) calls :meth:`BufferManager.forget_dead_heaps` between
tasks: heaps that no longer exist — dead intermediates, told apart by
a weak reference — lose their state, while live base heaps and
accelerators keep theirs.  A dead heap is never touched again, so on
an unbounded manager no fault, hit or eviction count changes; its
``track_pages`` record is dropped with it.

A process-global *current* manager (default: disabled, zero overhead)
is installed with :func:`use` or :func:`set_manager`.
"""

import contextlib
import weakref

import numpy as np


class BufferStats:
    """Counters captured by :meth:`BufferManager.snapshot`.

    Each worker process of the multi-process dispatcher
    (:mod:`repro.monet.multiproc`) runs its own :class:`BufferManager`
    over the shared mmap catalog; :meth:`merge` folds the per-worker
    snapshots into one fleet-wide total on the parent side.
    """

    __slots__ = ("faults", "hits", "evictions")

    def __init__(self, faults=0, hits=0, evictions=0):
        self.faults = faults
        self.hits = hits
        self.evictions = evictions

    def merge(self, other):
        """Accumulate another snapshot into this one; returns self."""
        self.faults += other.faults
        self.hits += other.hits
        self.evictions += other.evictions
        return self

    def as_dict(self):
        return {"faults": int(self.faults), "hits": int(self.hits),
                "evictions": int(self.evictions)}

    def __repr__(self):
        return ("BufferStats(faults=%d, hits=%d, evictions=%d)"
                % (self.faults, self.hits, self.evictions))


class _PageState:
    """The resident-set state of one heap's pages.

    Index ``i`` of every array describes page ``base + i`` (``base`` is
    0 unless a caller touched negative pages).  ``clock`` holds the
    tick of each page's last touch, 0 when it is not resident;
    ``spilled`` marks transient pages evicted under memory pressure
    (allocated on the first spill); ``touched`` marks the pages touched
    since the last counter reset (``track_pages`` only).
    ``persistent`` is the heap's flag as of its last touch: it decides
    whether an evicted page joins the spill set.
    """

    __slots__ = ("clock", "spilled", "touched", "base", "resident",
                 "persistent", "ref")

    def __init__(self, heap, base, size):
        self.clock = np.zeros(size, dtype=np.int64)
        self.spilled = None
        self.touched = None
        self.base = base
        self.resident = 0
        self.persistent = True
        try:
            self.ref = weakref.ref(heap)
        except TypeError:       # not weak-referenceable: never forgotten
            self.ref = None

    def grow(self, lo, hi):
        """Widen the arrays to cover pages ``lo .. hi-1`` (doubling, so
        a heap that keeps growing is reallocated O(log size) times)."""
        size = len(self.clock)
        base = min(self.base, lo)
        end = self.base + size
        if hi > end:
            end = max(hi, self.base + 2 * size)
        shift = self.base - base

        def widen(array):
            if array is None:
                return None
            wider = np.zeros(end - base, dtype=array.dtype)
            wider[shift:shift + size] = array
            return wider

        self.clock = widen(self.clock)
        self.spilled = widen(self.spilled)
        self.touched = widen(self.touched)
        self.base = base

    def evict(self, index):
        """Drop pages ``index`` (all resident) from the resident set."""
        if not self.persistent:
            if self.spilled is None:
                self.spilled = np.zeros(len(self.clock), dtype=bool)
            self.spilled[index] = True
        self.clock[index] = 0


class BufferManager:
    """LRU resident-set simulation over heap pages.

    Parameters
    ----------
    page_size:
        Bytes per page; the paper uses B = 4096.
    memory_pages:
        Resident-set budget in pages, or ``None`` for unbounded memory
        (then only cold misses fault).
    enabled:
        When False every accounting call is a no-op, so the simulation
        can be switched off for pure-speed runs.
    track_pages:
        When True, the distinct pages touched are recorded *per heap*
        (``heap_pages``), so the simulation can be compared against the
        real resident-set deltas of mmap-backed heaps (see
        :func:`repro.monet.storage.residency_report`).
    """

    def __init__(self, page_size=4096, memory_pages=None, enabled=True,
                 track_pages=False):
        self.page_size = int(page_size)
        self.memory_pages = memory_pages
        self.enabled = enabled
        self.track_pages = track_pages
        #: heap_id -> _PageState of every heap seen (and not forgotten)
        self._pages = {}
        self._resident = 0
        self._tick = 0
        self.faults = 0
        self.hits = 0
        self.evictions = 0
        self._op_stack = []
        self.op_faults = {}

    # ------------------------------------------------------------------
    # operator attribution
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def operator(self, label):
        """Attribute faults inside the block to ``label``."""
        self._op_stack.append(label)
        before = self.faults
        try:
            yield
        finally:
            self._op_stack.pop()
            delta = self.faults - before
            if delta:
                self.op_faults[label] = self.op_faults.get(label, 0) + delta

    # ------------------------------------------------------------------
    # residency core
    # ------------------------------------------------------------------
    def _state(self, heap, lo, hi):
        """``heap``'s page state, covering at least pages ``lo .. hi-1``."""
        state = self._pages.get(heap.heap_id)
        if state is None:
            base = min(lo, 0)
            pages = -(-getattr(heap, "nbytes", 0) // self.page_size)
            state = self._pages[heap.heap_id] = _PageState(
                heap, base, max(pages, hi) - base)
        elif lo < state.base or hi > state.base + len(state.clock):
            state.grow(lo, hi)
        return state

    def _touch(self, heap, pages, lo, hi):
        """Touch ``pages`` of one heap: a ``range`` or an ascending
        array of distinct page numbers, all within ``lo .. hi-1``.

        Cold pages of *persistent* heaps fault; cold pages of
        transient heaps (intermediate results) are free the first time
        — they are writes — and only fault again once evicted under
        memory pressure (see :class:`~repro.monet.heap.Heap`).
        """
        state = self._state(heap, lo, hi)
        persistent = getattr(heap, "persistent", True)
        state.persistent = persistent
        self._tick += 1
        touched = None
        if self.track_pages:
            if state.touched is None:
                state.touched = np.zeros(len(state.clock), dtype=bool)
            touched = state.touched
        base = state.base
        if isinstance(pages, range):
            index = slice(pages.start - base, pages.stop - base, pages.step)
        else:
            index = pages - base if base else pages
        clock = state.clock
        seen = clock[index]
        fresh = len(seen) - int(np.count_nonzero(seen))
        budget = self.memory_pages
        if fresh and budget is not None \
                and self._resident + fresh > budget:
            if isinstance(index, slice):
                index = range(*index.indices(len(clock)))
            else:
                index = index.tolist()
            self._walk(state, index, persistent, touched)
            return
        if touched is not None:
            touched[index] = True
        if fresh:
            if persistent:
                self.faults += fresh
            elif state.spilled is not None:
                self.faults += int(np.count_nonzero(
                    state.spilled[index] & (seen == 0)))
            state.resident += fresh
            self._resident += fresh
        self.hits += len(seen) - fresh
        clock[index] = self._tick

    def _walk(self, state, index, persistent, touched):
        """Touch ``index`` of ``state`` one page at a time, in order.

        The path of touches that overflow the budget: each page
        entering the resident set past ``memory_pages`` evicts the
        least recently used page — the oldest page this touch has not
        reached yet, or once those are gone, this touch's own pages in
        the order it touched them.
        """
        budget = self.memory_pages
        tick = self._tick
        clock = state.clock
        queue = None
        own = []
        queued = owned = 0
        hits = misses = 0
        for page in index:
            if touched is not None:
                touched[page] = True
            if clock[page]:
                hits += 1
            else:
                if persistent or (state.spilled is not None
                                  and state.spilled[page]):
                    misses += 1
                state.resident += 1
                self._resident += 1
            clock[page] = tick
            own.append(page)
            if self._resident <= budget:
                continue
            if queue is None:
                queue = self._lru_order()
            # pages this touch already reached moved to the MRU end
            while queued < len(queue) and \
                    queue[queued][0].clock[queue[queued][1]] == tick:
                queued += 1
            if queued < len(queue):
                victim, victim_page = queue[queued]
                queued += 1
            else:
                victim, victim_page = state, own[owned]
                owned += 1
            victim.evict(victim_page)
            victim.resident -= 1
            self._resident -= 1
            self.evictions += 1
        self.hits += hits
        self.faults += misses

    def _lru_order(self):
        """Every resident page as ``(state, index)``, least recently
        used first: ascending ``(tick, page)``."""
        held = [state for state in self._pages.values() if state.resident]
        ticks, owners, pages = [], [], []
        for number, state in enumerate(held):
            index = np.flatnonzero(state.clock)
            ticks.append(state.clock[index])
            pages.append(index)
            owners.append(np.full(len(index), number))
        pages = np.concatenate(pages)
        order = np.lexsort((pages, np.concatenate(ticks)))
        return [(held[owner], page) for owner, page in
                zip(np.concatenate(owners)[order].tolist(),
                    pages[order].tolist())]

    # ------------------------------------------------------------------
    # access patterns
    # ------------------------------------------------------------------
    def access_range(self, heap, start_byte=0, nbytes=None):
        """Sequential access to ``heap[start_byte : start_byte+nbytes]``."""
        if not self.enabled:
            return
        if nbytes is None:
            nbytes = heap.nbytes - start_byte
        if nbytes <= 0:
            return
        first = start_byte // self.page_size
        last = (start_byte + nbytes - 1) // self.page_size
        self._touch(heap, range(first, last + 1), first, last + 1)

    def access_heap(self, heap):
        """Sequential access to a whole heap."""
        self.access_range(heap, 0, heap.nbytes)

    def access_positions(self, heap, positions, width):
        """Scattered access to entries ``positions`` of ``width`` bytes.

        Page numbers are deduplicated *per call* (consecutive hits to
        one page cost one touch), which makes the expected fault count
        of a random gather match the ``pages * (1-(1-s)^C)`` term of
        the analytic model.  Deduplication marks the pages in a boolean
        table the size of the heap's page state rather than sorting the
        positions.
        """
        if not self.enabled or width == 0:
            return
        positions = np.asarray(positions)
        if positions.size == 0:
            return
        if positions.dtype.kind != "i":
            positions = positions.astype(np.int64)
        if self.page_size % width == 0:
            # floor(p * w / B) == floor(p / (B / w)) when w divides B
            pages = positions // (self.page_size // width)
        else:
            pages = positions.astype(np.int64) * width // self.page_size
        lo, hi = int(pages.min()), int(pages.max()) + 1
        state = self._state(heap, lo, hi)
        base = state.base
        marked = np.zeros(len(state.clock), dtype=bool)
        marked[pages - base if base else pages] = True
        distinct = np.flatnonzero(marked)
        self._touch(heap, distinct + base if base else distinct, lo, hi)

    def access_positions_chunks(self, heap, position_chunks, width):
        """Scattered access reported once for several horizontal chunks.

        The parallel layer executes one logical gather as per-chunk
        kernels; accounting it chunk by chunk would re-touch pages
        shared between chunk ranges (boundary pages, or the hot head
        of a shared accelerator heap), inflating hit counts and — under
        a memory budget — reordering the LRU.  The chunks are therefore
        accounted as one gather over their concatenation, so a shared
        page is charged exactly once and the resulting fault trace is
        the one the serial (merged) gather produces.
        """
        if not self.enabled or width == 0:
            return
        chunks = [np.asarray(positions) for positions in position_chunks]
        chunks = [positions for positions in chunks if positions.size]
        if chunks:
            self.access_positions(heap, np.concatenate(chunks), width)

    def access_probes(self, heap, n_probes, n_entries, width):
        """``n_probes`` binary searches over ``n_entries`` sorted entries.

        Each probe touches about ``log2(n_pages)`` pages, but the top
        levels of the implicit search tree stay resident, so repeated
        probing is charged the page count of the touched *frontier*:
        we charge ``min(n_pages, n_probes * ceil(log2(n_pages)))``
        page touches spread deterministically over the heap.
        """
        if not self.enabled or width == 0 or n_probes <= 0 or n_entries <= 0:
            return
        n_pages = max(1, -(-(n_entries * width) // self.page_size))
        depth = max(1, int(np.ceil(np.log2(n_pages + 1))))
        touched = min(n_pages, n_probes * depth)
        step = max(1, n_pages // touched)
        self._touch(heap, range(0, n_pages, step), 0, n_pages)

    def access_column(self, column, positions=None):
        """Account one column access: full scan or positional gather."""
        if not self.enabled:
            return
        for heap in column.heaps:
            if positions is None:
                self.access_heap(heap)
            else:
                width = getattr(heap, "width", None)
                if width:
                    self.access_positions(heap, positions, width)
                else:
                    # var heap bodies: approximate with average width
                    avg = max(1, heap.nbytes // max(1, len(heap)))
                    self.access_positions(heap, positions, avg)

    def access_column_chunks(self, column, position_chunks):
        """Chunked-gather accounting for one column: the union of the
        chunks' pages per heap, charged once (see
        :meth:`access_positions_chunks`)."""
        if not self.enabled:
            return
        for heap in column.heaps:
            width = getattr(heap, "width", None)
            if not width:
                # var heap bodies: approximate with average width
                width = max(1, heap.nbytes // max(1, len(heap)))
            self.access_positions_chunks(heap, position_chunks, width)

    def access_bat(self, bat, positions=None):
        """Account access to both columns of a BAT."""
        if not self.enabled:
            return
        self.access_column(bat.head, positions)
        self.access_column(bat.tail, positions)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def evict_all(self):
        """Drop the whole resident set (simulate a cold start).

        Intermediates of finished queries are dead, so the spill set
        is cleared too: the next query starts from cold base data.
        """
        kept = {}
        for heap_id, state in self._pages.items():
            if state.touched is not None:
                # the touched-page record survives until reset_counters
                state.clock[:] = 0
                state.spilled = None
                state.resident = 0
                kept[heap_id] = state
        self._pages = kept
        self._resident = 0

    def evict_heap(self, heap):
        """Drop one heap's pages (the "save intermediate results to
        disk" behaviour the paper describes for query 1).

        Evicted *transient* pages join the spill set, exactly like
        budget evictions in :meth:`_touch`: an intermediate that was
        pushed to disk must fault its pages back in when re-touched
        — it is no longer a free first-time write.
        """
        state = self._pages.get(heap.heap_id)
        if state is None or not state.resident:
            return
        state.evict(np.flatnonzero(state.clock))
        self.evictions += state.resident
        self._resident -= state.resident
        state.resident = 0

    def forget_dead_heaps(self):
        """Drop the whole page state of heaps that no longer exist.

        Meant for task boundaries of a long-lived manager.  A dead heap
        is never touched again, so no fault, hit or eviction is counted
        and, on an unbounded manager, no later count changes; its pages
        leave :meth:`resident_pages` (under a budget they stop taking a
        share of it).  Its ``track_pages`` record goes too: the heap
        drops out of :attr:`heap_pages` and :meth:`touched_page_counts`
        before the next :meth:`reset_counters`.
        """
        dead = [heap_id for heap_id, state in self._pages.items()
                if state.ref is not None and state.ref() is None]
        for heap_id in dead:
            self._resident -= self._pages.pop(heap_id).resident

    def resident_pages(self):
        return self._resident

    def snapshot(self):
        return BufferStats(self.faults, self.hits, self.evictions)

    @property
    def heap_pages(self):
        """heap_id -> set of page numbers touched since the last
        :meth:`reset_counters` (``track_pages``)."""
        return {heap_id: set((np.flatnonzero(state.touched)
                              + state.base).tolist())
                for heap_id, state in self._pages.items()
                if state.touched is not None and state.touched.any()}

    def touched_page_counts(self):
        """heap_id -> number of distinct pages touched (track_pages)."""
        counts = {}
        for heap_id, state in self._pages.items():
            if state.touched is not None:
                count = int(np.count_nonzero(state.touched))
                if count:
                    counts[heap_id] = count
        return counts

    def reset_counters(self):
        self.faults = 0
        self.hits = 0
        self.evictions = 0
        self.op_faults = {}
        if self.track_pages:
            for state in self._pages.values():
                if state.touched is not None:
                    state.touched[:] = False


#: Disabled manager used when no simulation is requested.
_DISABLED = BufferManager(enabled=False)
_current = _DISABLED


def get_manager():
    """The buffer manager operators should report accesses to."""
    return _current


def set_manager(manager):
    """Install ``manager`` (or None to disable accounting) globally."""
    global _current
    _current = manager if manager is not None else _DISABLED


@contextlib.contextmanager
def use(manager):
    """Context manager installing ``manager`` for the duration."""
    global _current
    previous = _current
    _current = manager if manager is not None else _DISABLED
    try:
        yield manager
    finally:
        _current = previous
