import re

import numpy as np
import pytest

from spadrate import io
from spadrate.exceptions import DegenerateDataError
from spadrate.simulate import TimestampSeries


def test_read_timestamps_picks_the_reader_by_suffix(tmp_path):
    series = TimestampSeries(times=np.array([1e-7, 2.5e-6, 3.0]))
    io.write_timestamps_binary(tmp_path / "ts.bin", series)
    io.write_timestamps_csv(tmp_path / "ts.csv", series)
    for name in ("ts.bin", "ts.csv"):
        np.testing.assert_array_equal(io.read_timestamps(tmp_path / name), series.times)
    # binary bytes under any other suffix go to the CSV reader, which rejects them
    (tmp_path / "ts.dat").write_bytes((tmp_path / "ts.bin").read_bytes())
    with pytest.raises(DegenerateDataError, match=re.escape(str(tmp_path / "ts.dat"))):
        io.read_timestamps(tmp_path / "ts.dat")
