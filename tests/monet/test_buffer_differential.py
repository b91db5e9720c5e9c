"""Differential test: the per-heap page-state BufferManager against a
reference LRU model.

:class:`ReferenceBufferManager` is the straightforward simulation the
buffer manager used to be: one ``OrderedDict`` of ``(heap_id, page)``
keys in LRU order, one Python step per touched page, and a set of
spilled transient pages.  Hypothesis drives random sequences of every
access pattern and lifecycle call through both — persistent and
transient heaps, heaps that grow, turn persistent or die and are
forgotten, nested operator labels, ``track_pages``, and budgets of
None, 1, 4 and 40 pages — and every counter and the resident-set size
must agree after every step.
"""

import contextlib
from collections import OrderedDict

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.monet.buffer import BufferManager
from repro.monet.heap import FixedHeap

#: small pages, so a few dozen entries span many of them
PAGE_SIZE = 32


class ReferenceBufferManager:
    """The reference LRU model: an ``OrderedDict`` resident set."""

    def __init__(self, page_size=4096, memory_pages=None,
                 track_pages=False):
        self.page_size = int(page_size)
        self.memory_pages = memory_pages
        self.track_pages = track_pages
        self.heap_pages = {}
        self._resident = OrderedDict()
        self._spilled = set()
        self.faults = 0
        self.hits = 0
        self.evictions = 0
        self.op_faults = {}

    @contextlib.contextmanager
    def operator(self, label):
        before = self.faults
        try:
            yield
        finally:
            delta = self.faults - before
            if delta:
                self.op_faults[label] = self.op_faults.get(label, 0) + delta

    def _touch_pages(self, heap, pages):
        resident = self._resident
        budget = self.memory_pages
        persistent = getattr(heap, "persistent", True)
        heap_id = heap.heap_id
        if self.track_pages:
            touched = self.heap_pages.setdefault(heap_id, set())
            pages = list(pages)
            touched.update(pages)
        for page in pages:
            key = (heap_id, page)
            if key in resident:
                resident.move_to_end(key)
                self.hits += 1
            else:
                if persistent or key in self._spilled:
                    self.faults += 1
                resident[key] = persistent
                if budget is not None and len(resident) > budget:
                    victim, victim_persistent = resident.popitem(
                        last=False)
                    if not victim_persistent:
                        self._spilled.add(victim)
                    self.evictions += 1

    def access_range(self, heap, start_byte=0, nbytes=None):
        if nbytes is None:
            nbytes = heap.nbytes - start_byte
        if nbytes <= 0:
            return
        first = start_byte // self.page_size
        last = (start_byte + nbytes - 1) // self.page_size
        self._touch_pages(heap, range(first, last + 1))

    def access_positions(self, heap, positions, width):
        positions = np.asarray(positions)
        if width == 0 or positions.size == 0:
            return
        pages = np.unique(positions.astype(np.int64) * width
                          // self.page_size)
        self._touch_pages(heap, pages.tolist())

    def access_positions_chunks(self, heap, position_chunks, width):
        if width == 0:
            return
        pages = set()
        for positions in position_chunks:
            positions = np.asarray(positions)
            if positions.size:
                pages.update(np.unique(positions.astype(np.int64) * width
                                       // self.page_size).tolist())
        if pages:
            self._touch_pages(heap, sorted(pages))

    def access_probes(self, heap, n_probes, n_entries, width):
        if width == 0 or n_probes <= 0 or n_entries <= 0:
            return
        n_pages = max(1, -(-(n_entries * width) // self.page_size))
        depth = max(1, int(np.ceil(np.log2(n_pages + 1))))
        touched = min(n_pages, n_probes * depth)
        step = max(1, n_pages // touched)
        self._touch_pages(heap, range(0, n_pages, step))

    def evict_all(self):
        self._resident.clear()
        self._spilled.clear()

    def evict_heap(self, heap):
        doomed = [key for key in self._resident if key[0] == heap.heap_id]
        for key in doomed:
            if not self._resident.pop(key):
                self._spilled.add(key)
        self.evictions += len(doomed)

    def forget(self, heap_ids):
        """Drop every trace of the dead heaps ``heap_ids``: resident
        and spilled pages leave without an eviction, and their
        ``track_pages`` records go too."""
        dead = set(heap_ids)
        for key in [key for key in self._resident if key[0] in dead]:
            del self._resident[key]
        self._spilled = {key for key in self._spilled
                         if key[0] not in dead}
        for heap_id in dead:
            self.heap_pages.pop(heap_id, None)

    def resident_pages(self):
        return len(self._resident)

    def reset_counters(self):
        self.faults = 0
        self.hits = 0
        self.evictions = 0
        self.op_faults = {}
        self.heap_pages = {}


# ----------------------------------------------------------------------
# random call sequences
# ----------------------------------------------------------------------
N_HEAPS = 3
_heap = st.integers(0, N_HEAPS - 1)
#: 1, 2, 4, 8 divide the page size (the division path); 3, 12 do not
_width = st.sampled_from([1, 2, 3, 4, 8, 12])
#: a few negative and out-of-heap positions exercise the state growth
_positions = st.lists(st.integers(-10, 60), max_size=20)
_labels = st.lists(st.sampled_from(["select", "join", "group"]),
                   max_size=2)

_access = st.one_of(
    st.tuples(st.just("range"), _labels, _heap, st.integers(0, 200),
              st.one_of(st.none(), st.integers(-5, 600))),
    st.tuples(st.just("positions"), _labels, _heap, _positions, _width),
    st.tuples(st.just("chunks"), _labels, _heap,
              st.lists(_positions, max_size=4), _width),
    st.tuples(st.just("probes"), _labels, _heap, st.integers(0, 20),
              st.integers(0, 200), _width),
)
_lifecycle = st.one_of(
    st.tuples(st.just("evict_heap"), _heap),
    st.tuples(st.just("evict_all")),
    st.tuples(st.just("reset")),
    st.tuples(st.just("persist"), _heap),
    st.tuples(st.just("grow"), _heap, st.integers(1, 40)),
    st.tuples(st.just("drop"), _heap),
    st.tuples(st.just("forget")),
)
#: mostly accesses: a lifecycle call every fourth step on average
_step = st.one_of(_access, _access, _access, _lifecycle)


def _apply(manager, heaps, step):
    kind = step[0]
    if kind in ("range", "positions", "chunks", "probes"):
        labels, heap, args = step[1], heaps[step[2]], step[3:]
        with contextlib.ExitStack() as stack:
            for label in labels:
                stack.enter_context(manager.operator(label))
            if kind == "range":
                manager.access_range(heap, *args)
            elif kind == "positions":
                manager.access_positions(heap, *args)
            elif kind == "chunks":
                manager.access_positions_chunks(heap, *args)
            else:
                manager.access_probes(heap, *args)
    elif kind == "evict_heap":
        manager.evict_heap(heaps[step[1]])
    elif kind == "evict_all":
        manager.evict_all()
    elif kind == "reset":
        manager.reset_counters()


def _new_heap(size, persistent):
    heap = FixedHeap(np.zeros(size, dtype=np.int32), 4)
    heap.persistent = persistent
    return heap


def _mutate_heap(heaps, dead, step):
    """Heap changes both managers observe: turning persistent (a saved
    intermediate), growing (an appended heap) and dying (a freed
    intermediate, replaced by a fresh heap; ``dead`` collects the ids
    the next ``forget`` step hands the reference model)."""
    if step[0] == "persist":
        heaps[step[1]].persistent = True
    elif step[0] == "grow":
        heap = heaps[step[1]]
        heap.data = np.zeros(len(heap.data) + step[2], dtype=np.int32)
    elif step[0] == "drop":
        heap = heaps[step[1]]
        dead.append(heap.heap_id)
        heaps[step[1]] = _new_heap(len(heap.data), heap.persistent)


def _observed(manager):
    return (manager.faults, manager.hits, manager.evictions,
            manager.op_faults, manager.resident_pages())


@settings(max_examples=100, deadline=None)
@given(budget=st.sampled_from([None, 1, 4, 40]),
       track=st.booleans(),
       persistent=st.lists(st.booleans(), min_size=N_HEAPS,
                           max_size=N_HEAPS),
       sizes=st.lists(st.integers(0, 40), min_size=N_HEAPS,
                      max_size=N_HEAPS),
       steps=st.lists(_step, min_size=20, max_size=60))
def test_buffer_manager_matches_reference_model(budget, track, persistent,
                                                sizes, steps):
    heaps = [_new_heap(size, flag) for flag, size in zip(persistent, sizes)]
    dead = []
    manager = BufferManager(page_size=PAGE_SIZE, memory_pages=budget,
                            track_pages=track)
    reference = ReferenceBufferManager(page_size=PAGE_SIZE,
                                       memory_pages=budget,
                                       track_pages=track)
    for number, step in enumerate(steps):
        _mutate_heap(heaps, dead, step)
        if step[0] == "forget":
            manager.forget_dead_heaps()
            reference.forget(dead)
            dead.clear()
        _apply(manager, heaps, step)
        _apply(reference, heaps, step)
        assert _observed(manager) == _observed(reference), (number, step)
        if track:
            assert manager.heap_pages == reference.heap_pages, \
                (number, step)
            assert manager.touched_page_counts() == {
                heap_id: len(pages) for heap_id, pages
                in reference.heap_pages.items()}, (number, step)
