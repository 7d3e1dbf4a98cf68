"""Tests for per-rank address spaces."""

import numpy as np
import pytest

from repro.machine import AddressSpace, MemoryError_


@pytest.fixture
def space():
    return AddressSpace(rank=3)


class TestAlloc:
    def test_alloc_returns_handle(self, space):
        a = space.alloc(128)
        assert a.rank == 3
        assert a.size == 128

    def test_alloc_zero_filled_by_default(self, space):
        a = space.alloc(16)
        assert (space.buffer(a) == 0).all()

    def test_alloc_with_fill(self, space):
        a = space.alloc(4, fill=7)
        assert space.buffer(a).tolist() == [7, 7, 7, 7]

    @pytest.mark.parametrize("fill", [-1, 256, 259])
    def test_non_byte_fill_rejected_by_name(self, space, fill):
        with pytest.raises(ValueError, match="fill"):
            space.alloc(4, fill=fill)

    def test_negative_size_rejected(self, space):
        with pytest.raises(MemoryError_):
            space.alloc(-1)

    @pytest.mark.parametrize("nbytes", [2.5, 8.0, "8", None, [8]],
                             ids=repr)
    def test_non_integer_size_rejected_by_name(self, space, nbytes):
        """Used to die as numpy's raw ``TypeError`` from ``np.full``
        (or a ``str < int`` comparison), naming neither the rank nor
        the call."""
        with pytest.raises(MemoryError_) as err:
            space.alloc(nbytes)
        assert str(err.value) == (f"rank 3: allocation size must be an "
                                  f"integer, got {nbytes!r}")
        assert space.bytes_allocated == 0

    def test_numpy_integer_size_passes(self, space):
        a = space.alloc(np.int64(24))
        assert a.size == 24 and type(a.size) is int
        assert space.buffer(a).size == 24

    def test_distinct_ids(self, space):
        assert space.alloc(1).alloc_id != space.alloc(1).alloc_id

    def test_bytes_allocated_tracks(self, space):
        a = space.alloc(100)
        space.alloc(50)
        assert space.bytes_allocated == 150
        space.free(a)
        assert space.bytes_allocated == 50

    def test_32bit_space_caps_allocation(self):
        small = AddressSpace(rank=0, pointer_bits=32)
        with pytest.raises(MemoryError_, match="32-bit"):
            small.alloc(2**32)

    def test_invalid_pointer_bits(self):
        with pytest.raises(ValueError):
            AddressSpace(0, pointer_bits=16)

    def test_invalid_endianness(self):
        with pytest.raises(ValueError):
            AddressSpace(0, endianness="middle")


class TestFree:
    def test_double_free_rejected(self, space):
        a = space.alloc(8)
        space.free(a)
        with pytest.raises(MemoryError_):
            space.free(a)

    def test_access_after_free_rejected(self, space):
        a = space.alloc(8)
        space.free(a)
        with pytest.raises(MemoryError_):
            space.read(a, 0, 1)


class TestReadWrite:
    def test_roundtrip(self, space):
        a = space.alloc(32)
        space.write(a, 4, np.arange(8, dtype=np.uint8))
        assert space.read(a, 4, 8).tolist() == list(range(8))

    def test_read_is_a_copy(self, space):
        a = space.alloc(8)
        got = space.read(a, 0, 8)
        got[:] = 99
        assert (space.buffer(a) == 0).all()

    def test_out_of_bounds_read(self, space):
        a = space.alloc(8)
        with pytest.raises(MemoryError_):
            space.read(a, 4, 8)

    def test_out_of_bounds_write(self, space):
        a = space.alloc(8)
        with pytest.raises(MemoryError_):
            space.write(a, 7, np.zeros(2, dtype=np.uint8))

    def test_negative_offset(self, space):
        a = space.alloc(8)
        with pytest.raises(MemoryError_):
            space.read(a, -1, 2)


class TestTypedView:
    def test_little_endian_view(self):
        sp = AddressSpace(0, endianness="little")
        a = sp.alloc(8)
        v = sp.view(a, "int32")
        v[0] = 0x01020304
        assert sp.buffer(a)[:4].tolist() == [4, 3, 2, 1]

    def test_big_endian_view(self):
        sp = AddressSpace(0, endianness="big")
        a = sp.alloc(8)
        v = sp.view(a, "int32")
        v[0] = 0x01020304
        assert sp.buffer(a)[:4].tolist() == [1, 2, 3, 4]

    def test_view_is_live(self, space):
        a = space.alloc(8)
        v = space.view(a, "int64")
        space.write(a, 0, np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8))
        assert v[0] == 1

    def test_view_count_and_offset(self, space):
        a = space.alloc(16)
        v = space.view(a, "int32", offset=4, count=2)
        assert v.size == 2

    def test_oversized_view_rejected(self, space):
        a = space.alloc(8)
        with pytest.raises(MemoryError_):
            space.view(a, "int64", count=2)
