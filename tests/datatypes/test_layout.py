"""Tests for datatype construction and flattened layouts."""

import pytest

from repro.datatypes import (
    BYTE,
    DOUBLE,
    FLOAT64,
    INT32,
    INT64,
    DatatypeError,
    Segment,
    contiguous,
    hindexed,
    hvector,
    indexed,
    struct_type,
    vector,
)


class TestPrimitives:
    def test_sizes(self):
        assert BYTE.size == 1
        assert INT32.size == 4
        assert INT64.size == 8
        assert FLOAT64.size == 8

    def test_extent_equals_size(self):
        for t in (BYTE, INT32, FLOAT64):
            assert t.extent == t.size

    def test_single_segment(self):
        assert INT32.segments == (Segment(0, 4, 4),)

    def test_is_contiguous(self):
        assert INT32.is_contiguous

    def test_aliases(self):
        assert DOUBLE is FLOAT64


class TestContiguous:
    def test_coalesces_to_one_segment(self):
        t = contiguous(1024, BYTE)
        assert t.segments == (Segment(0, 1024, 1),)
        assert t.size == 1024
        assert t.extent == 1024
        assert t.is_contiguous

    def test_of_int32(self):
        t = contiguous(10, INT32)
        assert t.size == 40
        assert t.segments == (Segment(0, 40, 4),)

    def test_zero_count(self):
        t = contiguous(0, INT32)
        assert t.size == 0
        assert t.segments == ()

    def test_negative_count_rejected(self):
        with pytest.raises(DatatypeError):
            contiguous(-1, BYTE)

    def test_nested(self):
        inner = contiguous(4, INT32)
        outer = contiguous(3, inner)
        assert outer.size == 48
        assert outer.segments == (Segment(0, 48, 4),)


class TestVector:
    def test_layout(self):
        # 3 blocks of 2 int32 every 4 int32: |xx..|xx..|xx|
        t = vector(3, 2, 4, INT32)
        assert t.size == 24
        assert t.extent == ((3 - 1) * 4 + 2) * 4
        assert t.segments == (
            Segment(0, 8, 4),
            Segment(16, 8, 4),
            Segment(32, 8, 4),
        )
        assert not t.is_contiguous

    def test_unit_stride_collapses_to_contiguous(self):
        t = vector(4, 1, 1, INT64)
        assert t.segments == (Segment(0, 32, 8),)
        assert t.is_contiguous

    def test_negative_args_rejected(self):
        with pytest.raises(DatatypeError):
            vector(-1, 1, 1, BYTE)
        with pytest.raises(DatatypeError):
            vector(1, -1, 1, BYTE)

    def test_zero_blocks(self):
        t = vector(0, 2, 4, INT32)
        assert t.size == 0
        assert t.extent == 0


class TestHvector:
    def test_byte_stride(self):
        t = hvector(2, 3, 100, BYTE)
        assert t.segments == (Segment(0, 3, 1), Segment(100, 3, 1))
        assert t.size == 6
        assert t.extent == 103


class TestIndexed:
    def test_layout(self):
        t = indexed([2, 1], [0, 5], INT32)
        assert t.size == 12
        assert t.segments == (Segment(0, 8, 4), Segment(20, 4, 4))
        assert t.extent == 24

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DatatypeError):
            indexed([1, 2], [0], BYTE)

    def test_adjacent_blocks_coalesce(self):
        t = indexed([2, 2], [0, 2], INT32)
        assert t.segments == (Segment(0, 16, 4),)


class TestHindexed:
    def test_byte_displacements(self):
        t = hindexed([1, 1], [0, 9], INT32)
        assert t.segments == (Segment(0, 4, 4), Segment(9, 4, 4))
        assert t.extent == 13

    def test_negative_blocklength_rejected(self):
        with pytest.raises(DatatypeError):
            hindexed([-1], [0], BYTE)


class TestStruct:
    def test_mixed_fields(self):
        # {int32 a; float64 b;} with natural alignment padding
        t = struct_type([1, 1], [0, 8], [INT32, FLOAT64])
        assert t.size == 12
        assert t.extent == 16
        assert t.segments == (Segment(0, 4, 4), Segment(8, 8, 8))

    def test_forced_extent(self):
        t = struct_type([1], [0], [INT32], extent=64)
        assert t.extent == 64
        assert t.size == 4

    def test_mismatched_lists_rejected(self):
        with pytest.raises(DatatypeError):
            struct_type([1], [0, 1], [INT32])

    def test_array_field(self):
        t = struct_type([3], [4], [INT32])
        assert t.size == 12
        assert t.segments == (Segment(4, 12, 4),)


class TestByteRange:
    def test_contiguous(self):
        assert contiguous(8, INT32).byte_range(2) == (0, 64)

    def test_vector_counts_extent_between_instances(self):
        t = vector(2, 1, 4, INT32)  # extent 20, last byte of one inst at 20
        lo, hi = t.byte_range(3)
        assert lo == 0
        assert hi == 2 * t.extent + 20

    def test_zero_count(self):
        assert INT32.byte_range(0) == (0, 0)


class TestEquality:
    def test_structural_equality(self):
        assert vector(2, 2, 4, INT32) == vector(2, 2, 4, INT32)
        assert contiguous(4, BYTE) != contiguous(5, BYTE)

    def test_hashable(self):
        assert len({contiguous(4, BYTE), contiguous(4, BYTE)}) == 1

    def test_equivalent_layouts_equal(self):
        # contiguous(4, int32) and vector(4,1,1,int32) flatten identically
        assert contiguous(4, INT32) == vector(4, 1, 1, INT32)


class TestDerivedOncePerObject:
    """``is_contiguous``, the hash and the one-instance byte span are
    computed on first use and kept: every read equals the definition."""

    @pytest.mark.parametrize("make", [
        lambda: INT32,
        lambda: contiguous(8, INT32),
        lambda: contiguous(0, BYTE),
        lambda: vector(3, 2, 4, INT64),
        lambda: hvector(2, 1, 24, DOUBLE),
        lambda: indexed([2, 1], [4, 0], INT32),
        lambda: hindexed([1, 2], [16, 0], BYTE),
        lambda: struct_type([1, 1], [-8, 8], [INT64, DOUBLE]),
    ])
    def test_reads_equal_the_definition(self, make):
        t, twin = make(), make()
        segs = t.segments
        contiguous_ = (len(segs) == 1 and segs[0].disp == 0
                       and segs[0].nbytes == t.size == t.extent)
        for _ in range(2):
            assert t.is_contiguous is contiguous_
            assert hash(t) == hash((segs, t.size, t.extent)) == hash(twin)
            if segs:
                lo = min(s.disp for s in segs)
                hi = max(s.disp + s.nbytes for s in segs)
                assert t.byte_range(1) == (lo, hi)
                assert t.byte_range(3) == (lo, 2 * t.extent + hi)
            assert t.byte_range(0) == (0, 0)
        assert t == twin and len({t, twin}) == 1


class TestSegmentsFor:
    def test_multiple_instances_coalesce(self):
        t = contiguous(4, BYTE)
        assert t.segments_for(3) == (Segment(0, 12, 1),)

    def test_strided_instances_coalesce_only_at_seams(self):
        # extent 12: the second instance starts right after the first's
        # trailing block (byte 8..12 meets 12..16), so those two merge.
        t = vector(2, 1, 2, INT32)
        segs = t.segments_for(2)
        assert [(s.disp, s.nbytes) for s in segs] == [(0, 4), (8, 8), (20, 4)]

    def test_negative_count_rejected(self):
        with pytest.raises(DatatypeError):
            BYTE.segments_for(-1)
