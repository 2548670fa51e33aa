import numpy as np
import pytest

from kadjust.bitio import BitReader, DecodeError


class TestBitReader:
    def test_read_bits(self):
        reader = BitReader(np.array([1, 0, 1, 1, 0], dtype=np.uint8))
        assert reader.read_bits(0).tolist() == []
        assert reader.read_bits(3).tolist() == [1, 0, 1]
        with pytest.raises(DecodeError):
            reader.read_bits(3)
        assert reader.pos == 3
        assert reader.read_bits(2).tolist() == [1, 0]
        with pytest.raises(DecodeError):
            reader.read_bits(1)
        with pytest.raises(DecodeError):
            reader.read_bits(-1)
