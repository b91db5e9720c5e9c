"""Differential tests for the property-driven operator variants.

Each variant must return exactly what the generic kernel (or the
naive reference in :mod:`repro.monet.operators.naive`) returns:

* ``join:positional`` and ``join:datavectorjoin`` against the
  ``verbatim`` dispatch and against ``naive.join_match``;
* :func:`repro.monet.vectorized.group_keys` (the grouped-aggregate
  factorization) against ``np.unique`` and ``naive.first_occurrence``;
* the heap-entry multiplex over a var-sized column against the
  per-row evaluation, including a large shared heap that must keep the
  per-row path.

Inputs cover empty operands, NaN keys, sparse and negative domains.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import assume, given, settings

from repro.monet import (BAT, MonetKernel, atoms, bat_from_pairs,
                         compute_props, verify)
from repro.monet import operators as ops
from repro.monet import vectorized as vz
from repro.monet.column import VarColumn
from repro.monet.heap import VarHeap
from repro.monet.operators import naive
from repro.monet.optimizer import Optimizer, use


def _bat(pairs, head="oid", tail="int"):
    bat = bat_from_pairs(head, tail, pairs)
    bat.props = compute_props(bat)
    return bat


def _reference_join(ab, cd):
    with use(Optimizer(verbatim=True)):
        return ops.join(ab, cd).to_pairs()


def _naive_join(ab, cd):
    left, right = naive.join_match(np.asarray(ab.tail.logical()),
                                   np.asarray(cd.head.logical()))
    lefts, rights = ab.to_pairs(), cd.to_pairs()
    return [(lefts[i][0], rights[j][1]) for i, j in zip(left, right)]


# ----------------------------------------------------------------------
# join:datavectorjoin
# ----------------------------------------------------------------------
def _class_kernel(oids):
    kernel = MonetKernel()
    kernel.bulk_load("C_v", "oid", oids, "int",
                     [(o * 7) % 11 - 5 for o in oids], group="C")
    kernel.bulk_load("C_s", "oid", oids, "string",
                     ["s%d" % (o % 4) for o in oids], group="C")
    kernel.create_extent("C", "C_v")
    kernel.create_datavectors("C", ["C_v", "C_s"])
    kernel.reorder_on_tail(["C_v", "C_s"])
    return kernel


_extents = st.one_of(
    st.builds(lambda base, n: list(range(base, base + n)),
              st.integers(0, 40), st.integers(1, 30)),          # dense
    st.lists(st.integers(0, 400), min_size=1, max_size=30,
             unique=True).map(sorted))                          # sparse
_probes = st.lists(st.tuples(st.integers(0, 9), st.integers(-50, 450)),
                   max_size=30)


@settings(max_examples=60, deadline=None)
@given(_extents, _probes)
def test_datavectorjoin_matches_hashjoin_and_naive(oids, probe_pairs):
    assume(len(probe_pairs) != len(oids))     # else it may be positional
    kernel = _class_kernel(oids)
    registry = kernel.registries["C"]
    assert registry.dense == (oids == list(range(oids[0],
                                                 oids[0] + len(oids))))
    ab = bat_from_pairs("oid", "int", probe_pairs)  # negative probes too
    for name in ("C_v", "C_s"):
        cd = kernel.get(name)
        with use(Optimizer()) as optimizer:
            out = ops.join(ab, cd)
            assert optimizer.last["join"] == "datavectorjoin"
        assert out.to_pairs() == _reference_join(ab, cd) \
            == _naive_join(ab, cd)
        verify(out)


def test_datavectorjoin_empty_outer():
    kernel = _class_kernel([3, 4, 9])
    ab = bat_from_pairs("oid", "oid", [])
    with use(Optimizer()) as optimizer:
        out = ops.join(ab, kernel.get("C_v"))
        assert optimizer.last["join"] == "datavectorjoin"
    assert out.to_pairs() == []


# ----------------------------------------------------------------------
# join:positional
# ----------------------------------------------------------------------
_positional_cases = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(-1000, 1000),
              st.integers(-5, 5)),
    max_size=25, unique_by=lambda t: t[1])


@settings(max_examples=60, deadline=None)
@given(_positional_cases)
def test_positional_join_matches_hashjoin_and_naive(rows):
    ab = _bat([(h, k) for h, k, _v in rows], head="int")
    cd = _bat([(k, v) for _h, k, v in rows], head="int")
    with use(Optimizer()) as optimizer:
        out = ops.join(ab, cd)
        assert optimizer.last["join"] == "positional"
    assert out.to_pairs() == _reference_join(ab, cd) \
        == _naive_join(ab, cd)
    verify(out)


def test_positional_join_on_strings_across_heaps():
    ab = _bat([(1, "x"), (2, "y")], tail="string")
    cd = _bat([("x", 5), ("y", 6)], head="string")
    assert ab.tail.heap is not cd.head.heap
    with use(Optimizer()) as optimizer:
        out = ops.join(ab, cd)
        assert optimizer.last["join"] == "positional"
    assert out.to_pairs() == _reference_join(ab, cd) == [(1, 5), (2, 6)]


def test_positional_join_refuses_nan_keys():
    nan = float("nan")
    ab = _bat([(1, nan), (2, 2.0)], tail="dbl")
    cd = _bat([(nan, 5), (2.0, 6)], head="dbl")
    with use(Optimizer()) as optimizer:
        out = ops.join(ab, cd)
        assert optimizer.last["join"] != "positional"
    assert out.to_pairs() == _reference_join(ab, cd) == [(2, 6)]


# ----------------------------------------------------------------------
# grouped aggregates: group_keys
# ----------------------------------------------------------------------
_group_keys = st.one_of(
    st.lists(st.integers(-30, 30), max_size=40),                # dense
    st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=20),      # sparse
    st.lists(st.sampled_from([-7, 3, 2 ** 30]), max_size=30))


@settings(max_examples=80, deadline=None)
@given(_group_keys)
def test_group_keys_matches_unique_and_naive(values):
    keys = np.asarray(values, dtype=np.int64)
    first_pos, codes, n_groups = vz.group_keys(keys)
    uniq, want_first, want_codes = np.unique(keys, return_index=True,
                                             return_inverse=True)
    assert n_groups == len(uniq)
    assert np.array_equal(first_pos, want_first)
    assert np.array_equal(codes, want_codes)
    assert np.array_equal(np.sort(first_pos),
                          naive.first_occurrence(keys))


def test_group_keys_nan_keys_follow_unique():
    keys = np.asarray([2.0, np.nan, 1.0, np.nan, 2.0])
    first_pos, codes, n_groups = vz.group_keys(keys)
    uniq, want_first, want_codes = np.unique(keys, return_index=True,
                                             return_inverse=True)
    assert n_groups == len(uniq)
    assert np.array_equal(first_pos, want_first)
    assert np.array_equal(codes, want_codes)


def test_grouped_aggregates_share_one_factorization():
    ab = _bat([(3, 1), (1, 2), (3, 4), (-2, 8)], head="int")
    sums = ops.set_aggregate("sum", ab)
    groups = ab.head.groups
    assert groups is not None
    counts = ops.set_aggregate("count", ab)
    assert ab.head.groups is groups
    assert sums.to_pairs() == [(-2, 8), (1, 2), (3, 5)]
    assert counts.to_pairs() == [(-2, 1), (1, 1), (3, 2)]
    empty = _bat([], head="int")
    assert ops.set_aggregate("sum", empty).to_pairs() == []


# ----------------------------------------------------------------------
# multiplex over a var-sized column
# ----------------------------------------------------------------------
_seen_lengths = []


def _probe_contains(values, pattern):
    _seen_lengths.append(len(values))
    return np.fromiter((pattern in v for v in values), dtype=bool,
                       count=len(values))


ops.register_function("contains_probe", _probe_contains, atoms.BOOL, 2)


def _per_row(bat, pattern):
    return [(h, pattern in v) for h, v in bat.to_pairs()]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["green", "red", "greenish", "", "b"]),
                max_size=30), st.sampled_from(["green", "", "x"]))
def test_multiplex_heap_path_matches_per_row(values, pattern):
    bat = _bat(list(enumerate(values)), tail="string")
    del _seen_lengths[:]
    out = ops.multiplex("contains_probe", bat, pattern)
    assert out.to_pairs() == _per_row(bat, pattern)
    assert _seen_lengths == [len(bat.tail.heap)]     # once per entry
    assert ops.multiplex("contains", bat, pattern).to_pairs() \
        == out.to_pairs()


def test_multiplex_large_shared_heap_takes_per_row_path():
    heap = VarHeap()
    heap.insert_many(["v%d" % i for i in range(500)])
    column = VarColumn("string", np.asarray([3, 7, 3], dtype=np.int32),
                       heap)
    bat = BAT(bat_from_pairs("oid", "int", [(0, 0), (1, 0), (2, 0)]).head,
              column)
    del _seen_lengths[:]
    out = ops.multiplex("contains_probe", bat, "7")
    assert _seen_lengths == [3]                       # per row
    assert out.to_pairs() == [(0, False), (1, True), (2, False)]
