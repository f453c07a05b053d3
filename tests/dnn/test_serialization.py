"""Checkpoint serializer tests."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IntegrityError, StorageError
from repro.dnn.serialization import (
    H5LikeSerializer,
    Segments,
    ViperSerializer,
    crc32_combine,
    state_dict_nbytes,
)

RNG = np.random.default_rng(11)


def sample_state():
    return {
        "conv/W": RNG.standard_normal((3, 2, 4)).astype(np.float32),
        "conv/b": np.zeros(4, dtype=np.float32),
        "dense/W": RNG.standard_normal((8, 2)).astype(np.float64),
        "scalar": np.array(3.14),
    }


@pytest.fixture(params=[ViperSerializer, H5LikeSerializer], ids=["viper", "h5py"])
def serializer(request):
    return request.param()


class TestRoundtrip:
    def test_values_preserved(self, serializer):
        state = sample_state()
        back = serializer.loads(serializer.dumps(state))
        assert set(back) == set(state)
        for key in state:
            np.testing.assert_array_equal(back[key], state[key])

    def test_dtypes_preserved(self, serializer):
        state = sample_state()
        back = serializer.loads(serializer.dumps(state))
        for key in state:
            assert back[key].dtype == state[key].dtype

    def test_shapes_preserved(self, serializer):
        state = sample_state()
        back = serializer.loads(serializer.dumps(state))
        for key in state:
            assert back[key].shape == state[key].shape

    def test_unicode_names(self, serializer):
        state = {"слой/väikt": np.ones(2, dtype=np.float32)}
        back = serializer.loads(serializer.dumps(state))
        assert "слой/väikt" in back

    def test_empty_state_rejected(self, serializer):
        with pytest.raises(StorageError):
            serializer.dumps({})

    def test_deterministic_output(self, serializer):
        state = sample_state()
        assert serializer.dumps(state) == serializer.dumps(state)

    def test_noncontiguous_tensor(self, serializer):
        base = RNG.standard_normal((4, 6)).astype(np.float32)
        state = {"t": base[:, ::2]}  # strided view
        back = serializer.loads(serializer.dumps(state))
        np.testing.assert_array_equal(back["t"], base[:, ::2])


class TestFormatDiscrimination:
    def test_wrong_magic_rejected(self):
        state = sample_state()
        viper_blob = ViperSerializer().dumps(state)
        with pytest.raises(StorageError):
            H5LikeSerializer().loads(viper_blob)
        h5_blob = H5LikeSerializer().dumps(state)
        with pytest.raises(StorageError):
            ViperSerializer().loads(h5_blob)

    @pytest.mark.parametrize("cut", [None, 20])
    def test_checksum_free_v1_header_is_refused(self, cut):
        # VIPR | <I 1> | payload: a valid payload behind the old header
        # must not load unverified; it is refused like an unknown version,
        # with a retryable error that moves a load to the next replica.
        from repro.resilience import RETRYABLE_ERRORS

        blob = ViperSerializer().dumps(sample_state())
        legacy = b"VIPR" + struct.pack("<I", 1) + blob[12:cut]
        with pytest.raises(StorageError, match="unsupported") as exc_info:
            ViperSerializer().loads(legacy)
        assert isinstance(exc_info.value, RETRYABLE_ERRORS)
        assert not isinstance(exc_info.value, IntegrityError)

    def test_h5_blob_is_larger(self):
        state = sample_state()
        assert len(H5LikeSerializer().dumps(state)) > len(
            ViperSerializer().dumps(state)
        )


class TestTimingModel:
    def test_h5_overheads_exceed_viper(self):
        viper, h5 = ViperSerializer(), H5LikeSerializer()
        assert h5.serialize_seconds(30) > viper.serialize_seconds(30)
        assert h5.wire_bytes(10**9) > viper.wire_bytes(10**9)

    def test_per_tensor_overhead_scales(self):
        ser = H5LikeSerializer()
        assert ser.serialize_seconds(100) > ser.serialize_seconds(10)

    def test_wire_bytes_factor(self):
        ser = ViperSerializer()
        assert ser.wire_bytes(1000) == int(1000 * ser.bytes_overhead_factor)


class TestHelpers:
    def test_state_dict_nbytes(self):
        state = {"a": np.zeros(10, dtype=np.float32), "b": np.zeros(5, dtype=np.float64)}
        assert state_dict_nbytes(state) == 40 + 40


class TestChunkAPI:
    def test_dump_chunks_concat_equals_dumps(self, serializer):
        state = sample_state()
        assert b"".join(serializer.dump_chunks(state)) == serializer.dumps(state)

    def test_dump_chunks_are_views_not_copies(self, serializer):
        arr = RNG.standard_normal(64).astype(np.float32)
        state = {"t": arr}
        chunks = list(serializer.dump_chunks(state))
        before = b"".join(chunks)
        arr[0] += 1.0  # tensor payload chunks alias the array
        assert b"".join(chunks) != before


class TestZeroCopyLoads:
    def test_equal_to_copying_load(self, serializer):
        state = sample_state()
        blob = serializer.dumps(state)
        copied = serializer.loads(blob, copy=True)
        aliased = serializer.loads(blob, copy=False)
        for key in state:
            np.testing.assert_array_equal(aliased[key], copied[key])

    def test_zero_copy_tensors_are_read_only(self, serializer):
        blob = serializer.dumps(sample_state())
        back = serializer.loads(blob, copy=False)
        for tensor in back.values():
            assert not tensor.flags.writeable
            if tensor.size:
                with pytest.raises(ValueError):
                    tensor[(0,) * tensor.ndim] = 0

    def test_zero_copy_aliases_blob(self, serializer):
        state = {"t": RNG.standard_normal(32).astype(np.float32)}
        buf = bytearray(serializer.dumps(state))
        back = serializer.loads(buf, copy=False)
        before = back["t"].copy()
        buf[-1] ^= 0xFF  # flip a payload byte under the view
        assert not np.array_equal(back["t"], before)

    def test_copying_load_does_not_alias(self, serializer):
        state = {"t": RNG.standard_normal(32).astype(np.float32)}
        buf = bytearray(serializer.dumps(state))
        back = serializer.loads(buf, copy=True)
        before = back["t"].copy()
        buf[-1] ^= 0xFF
        np.testing.assert_array_equal(back["t"], before)


class TestEdgeShapes:
    @pytest.mark.parametrize("copy", [True, False], ids=["copy", "zero-copy"])
    def test_zero_dim_empty_and_fortran(self, serializer, copy):
        state = {
            "scalar": np.array(2.5),
            "empty": np.zeros((0, 3), dtype=np.float32),
            "fortran": np.asfortranarray(
                RNG.standard_normal((4, 5)).astype(np.float64)
            ),
        }
        back = serializer.loads(serializer.dumps(state), copy=copy)
        for key in state:
            np.testing.assert_array_equal(back[key], state[key])
            assert back[key].dtype == state[key].dtype
            assert back[key].shape == state[key].shape


def carrying(blob, crc=None):
    """``blob`` as a table of segments cut every 7 bytes, carrying
    ``crc`` (default: the blob's own) as its verified whole CRC."""
    views = [memoryview(blob)[i : i + 7] for i in range(0, len(blob), 7)]
    crc = zlib.crc32(blob) if crc is None else crc
    return Segments(views, [zlib.crc32(v) for v in views], crc)


class TestDerivedCRC:
    def test_carried_crc_loads_like_a_full_pass(self, serializer):
        state = sample_state()
        blob = serializer.dumps(state)
        back = serializer.loads(carrying(blob))
        for key in state:
            np.testing.assert_array_equal(back[key], state[key])

    def test_carried_crc_still_checks_the_header(self):
        ser = ViperSerializer()
        bad = bytearray(ser.dumps(sample_state()))
        bad[8] ^= 0x01  # the header's payload CRC
        with pytest.raises(IntegrityError):
            ser.loads(carrying(bytes(bad)))
        # A carried CRC that is not the blob's fails the check too.
        good = ser.dumps(sample_state())
        with pytest.raises(IntegrityError):
            ser.loads(carrying(good, zlib.crc32(good) ^ 1))


class TestSegmentedLoads:
    @pytest.mark.parametrize("copy", [True, False], ids=["copy", "zero-copy"])
    def test_a_table_loads_like_its_joined_bytes(self, serializer, copy):
        state = sample_state()
        blob = serializer.dumps(state)
        table = Segments([memoryview(blob)[:100], memoryview(blob)[100:]])
        assert table.crc is None and bytes(table) == blob
        back = serializer.loads(table, copy=copy)
        for key in state:
            np.testing.assert_array_equal(back[key], state[key])

    def test_a_tensor_inside_one_segment_is_read_in_place(self):
        ser = ViperSerializer()
        state = {"a": np.arange(64, dtype=np.float32), "b": np.ones(64)}
        blob = ser.dumps(state)
        a_ends = blob.index(state["b"].tobytes()) - 4  # inside b's header
        table = Segments([memoryview(blob)[:a_ends], memoryview(blob)[a_ends:]])
        back = ser.loads(table, copy=False)
        assert np.shares_memory(back["a"], np.frombuffer(blob, np.uint8))
        assert np.shares_memory(back["b"], np.frombuffer(blob, np.uint8))
        # A tensor that spans two segments is joined, and only it.
        cut = blob.index(state["b"].tobytes()) + 8
        table = Segments([memoryview(blob)[:cut], memoryview(blob)[cut:]])
        back = ser.loads(table, copy=False)
        assert np.shares_memory(back["a"], np.frombuffer(blob, np.uint8))
        assert not np.shares_memory(back["b"], np.frombuffer(blob, np.uint8))
        np.testing.assert_array_equal(back["b"], state["b"])
        assert not back["b"].flags.writeable

    def test_a_table_is_immutable(self):
        table = Segments.of(b"abc")
        with pytest.raises(AttributeError):
            table.views = (memoryview(b"xyz"),)
        with pytest.raises(AttributeError):
            table.crc = zlib.crc32(b"abc")


class TestGarbledTensorLength:
    def test_length_not_a_multiple_of_itemsize_is_corruption(self, serializer):
        # The packed-tensor parser is the only check an h5py-like blob has:
        # a garbled length must be an IntegrityError (counted, retried),
        # as for any other corrupt field.
        state = {"w": np.arange(8, dtype=np.float32)}
        blob = serializer.dumps(state)
        raw_len = struct.pack("<Q", 32)
        assert blob.count(raw_len) == 1
        bad = blob.replace(raw_len, struct.pack("<Q", 33))
        if serializer.name == "viper":  # the checksum catches it first
            bad = bad[:8] + struct.pack("<I", zlib.crc32(bad[12:])) + bad[12:]
        with pytest.raises(IntegrityError, match="multiple of itemsize"):
            serializer.loads(bad)


class TestCRC32Combine:
    @given(a=st.binary(max_size=300), b=st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_matches_crc_of_the_concatenation(self, a, b):
        combined = crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b))
        assert combined == zlib.crc32(a + b)

    @given(
        crc=st.integers(0, 2**32 - 1),
        n1=st.integers(0, 2**40),
        n2=st.integers(0, 2**40),
    )
    @settings(max_examples=50, deadline=None)
    def test_shifts_compose_beyond_32_bit_lengths(self, crc, n1, n2):
        # Shifting a CRC past n1 bytes and then past n2 bytes is one shift
        # past n1 + n2: exercises the x^(2^k) table past its 32-entry cycle.
        twice = crc32_combine(crc32_combine(crc, 0, n1), 0, n2)
        assert twice == crc32_combine(crc, 0, n1 + n2)

    def test_large_second_part(self):
        a, b = b"VIPR\x02\x00\x00\x00", bytes(range(256)) * 4099
        assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)


# The serializers are stateless, so hypothesis drives the classes directly
# (its health check forbids mixing @given with function-scoped fixtures).
@pytest.mark.parametrize(
    "serializer_cls", [ViperSerializer, H5LikeSerializer], ids=["viper", "h5py"]
)
class TestChunkProperties:
    @staticmethod
    def _state_from(shapes):
        rng = np.random.default_rng(sum(sum(s) for s in shapes) + len(shapes))
        return {
            f"t{i}": rng.standard_normal(shape).astype(np.float32)
            for i, shape in enumerate(shapes)
        }

    @given(
        shapes=st.lists(
            st.tuples(st.integers(0, 8), st.integers(1, 8)), min_size=1, max_size=5
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_chunks_always_concat_to_dumps(self, serializer_cls, shapes):
        serializer = serializer_cls()
        state = self._state_from(shapes)
        assert b"".join(serializer.dump_chunks(state)) == serializer.dumps(state)

    @given(
        shapes=st.lists(
            st.tuples(st.integers(0, 8), st.integers(1, 8)), min_size=1, max_size=5
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_zero_copy_load_always_matches(self, serializer_cls, shapes):
        serializer = serializer_cls()
        state = self._state_from(shapes)
        blob = serializer.dumps(state)
        back = serializer.loads(blob, copy=False)
        assert set(back) == set(state)
        for key in state:
            np.testing.assert_array_equal(back[key], state[key])
            assert not back[key].flags.writeable
