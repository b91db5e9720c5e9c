"""Heaps, columns (incl. void), and the BAT structure itself."""

import numpy as np
import pytest

from repro.errors import BATError
from repro.monet import (BAT, FixedColumn, VarColumn, VoidColumn,
                         bat_from_pairs, column_from_values, compute_props,
                         concat_bats, empty_bat)
from repro.monet.column import concat_columns, equality_keys
from repro.monet.heap import VarHeap


# ----------------------------------------------------------------------
# heaps
# ----------------------------------------------------------------------
def test_var_heap_dedups():
    heap = VarHeap()
    a = heap.insert("hello")
    b = heap.insert("world")
    c = heap.insert("hello")
    assert a == c != b
    assert len(heap) == 2


def test_var_heap_decode():
    heap = VarHeap()
    idx = heap.insert_many(["x", "y", "x", "z"])
    assert list(heap.decode(idx)) == ["x", "y", "x", "z"]
    assert heap.decode_one(idx[1]) == "y"


def test_var_heap_sorted_order_cached_and_invalidated():
    heap = VarHeap()
    heap.insert_many(["b", "a", "c"])
    order, rank = heap.sorted_order()
    assert [heap.values[i] for i in order] == ["a", "b", "c"]
    assert heap.sorted_order() is heap.sorted_order()
    heap.insert("aa")
    order2, _rank2 = heap.sorted_order()
    assert [heap.values[i] for i in order2] == ["a", "aa", "b", "c"]


def test_var_heap_nbytes_counts_bodies():
    heap = VarHeap()
    heap.insert("abcd")
    before = heap.nbytes
    heap.insert("abcd")      # duplicate: no growth
    assert heap.nbytes == before


# ----------------------------------------------------------------------
# columns
# ----------------------------------------------------------------------
def test_fixed_column_basics():
    col = column_from_values("int", [3, 1, 2])
    assert isinstance(col, FixedColumn)
    assert len(col) == 3
    assert col.value(0) == 3
    assert list(col.take([2, 0]).logical()) == [2, 3]
    assert list(col.slice(1, 3).logical()) == [1, 2]
    assert col.width == 4


def test_var_column_basics():
    col = column_from_values("string", ["b", "a", "b"])
    assert isinstance(col, VarColumn)
    assert list(col.logical()) == ["b", "a", "b"]
    assert col.value(1) == "a"
    assert col.encode("a") is not None
    assert col.encode("zz") is None
    # order keys sort like the values
    ranks = col.order_keys()
    assert ranks[1] < ranks[0]


def test_void_column():
    col = VoidColumn(10, 4)
    assert list(col.logical()) == [10, 11, 12, 13]
    assert col.value(2) == 12
    assert col.width == 0 and col.nbytes == 0
    assert col.is_void()
    sliced = col.slice(1, 3)
    assert list(sliced.logical()) == [11, 12]
    taken = col.take(np.array([3, 0]))
    assert list(taken.logical()) == [13, 10]
    with pytest.raises(IndexError):
        col.value(4)


def test_column_atom_mismatch():
    with pytest.raises(BATError):
        FixedColumn("string", np.array([1]))
    with pytest.raises(BATError):
        VarColumn.from_values("int", [1])


def test_equality_keys_across_heaps():
    left = column_from_values("string", ["a", "b", "c"])
    right = column_from_values("string", ["c", "x", "a"])
    lk, rk = equality_keys(left, right)
    assert lk[0] == rk[2]          # "a"
    assert lk[2] == rk[0]          # "c"
    assert rk[1] == -1             # "x" not in left heap


def test_concat_columns_strings():
    a = column_from_values("string", ["x", "y"])
    b = column_from_values("string", ["y", "z"])
    merged = concat_columns([a, b])
    assert list(merged.logical()) == ["x", "y", "y", "z"]


# ----------------------------------------------------------------------
# BATs
# ----------------------------------------------------------------------
def test_bat_construction_and_signature():
    bat = bat_from_pairs("oid", "string", [(1, "a"), (2, "b")])
    assert bat.signature() == "[oid,string]"
    assert len(bat) == 2
    assert bat.to_pairs() == [(1, "a"), (2, "b")]
    assert bat.bun(1) == (2, "b")


def test_bat_length_mismatch():
    with pytest.raises(BATError):
        BAT(column_from_values("int", [1]),
            column_from_values("int", [1, 2]))


def test_mirror_is_free_and_involutive():
    bat = bat_from_pairs("oid", "int", [(1, 10), (2, 20)])
    bat.props = compute_props(bat)
    mirrored = bat.mirror()
    assert mirrored.to_pairs() == [(10, 1), (20, 2)]
    assert mirrored.head is bat.tail and mirrored.tail is bat.head
    assert mirrored.mirror() is bat
    # properties swap
    assert mirrored.props.hkey == bat.props.tkey
    assert mirrored.props.tordered == bat.props.hordered


def test_mirror_alignment_involution():
    bat = bat_from_pairs("oid", "int", [(1, 10)])
    assert bat.mirror().mirror().alignment == bat.alignment


def test_mirror_pair_is_no_reference_cycle():
    """A mirror refers back to its source weakly: a dead intermediate
    is freed at once, not left to the cycle collector, and its
    surviving mirror rebuilds an equivalent source on demand."""
    import gc
    import weakref
    bat = bat_from_pairs("oid", "int", [(1, 10), (2, 20)])
    mirrored = bat.mirror()
    source = weakref.ref(bat)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del bat
        assert source() is None
    finally:
        if enabled:
            gc.enable()
    rebuilt = mirrored.mirror()
    assert rebuilt.to_pairs() == [(1, 10), (2, 20)]
    assert rebuilt.head is mirrored.tail and rebuilt.tail is mirrored.head
    assert rebuilt.alignment == mirrored.tail_alignment
    assert mirrored.mirror() is rebuilt


def test_empty_bat():
    bat = empty_bat("oid", "double")
    assert len(bat) == 0
    assert bat.props.hkey and bat.props.tordered


def test_concat_bats():
    a = bat_from_pairs("oid", "int", [(1, 10)])
    b = bat_from_pairs("oid", "int", [(2, 20)])
    merged = concat_bats([a, b])
    assert merged.to_pairs() == [(1, 10), (2, 20)]


def test_append_guards_properties():
    bat = bat_from_pairs("oid", "int", [(1, 10), (2, 20)])
    bat.props = compute_props(bat)
    assert bat.props.hordered and bat.props.hkey
    grown = bat.append(3, 30)
    assert grown.props.hordered and grown.props.hkey
    # appending a duplicate, out-of-order head switches the flags off
    broken = grown.append(2, 40)
    assert not broken.props.hordered
    assert not broken.props.hkey
    assert len(broken) == 4


def test_bat_nbytes_counts_shared_heaps_once():
    col = column_from_values("int", [1, 2, 3])
    bat = BAT(col, col)
    assert bat.nbytes == col.nbytes
