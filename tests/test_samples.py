"""Tests for the sample container and flat-file I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisherinfo import SampleSet


class TestSampleSet:
    def test_basic_construction(self):
        s = SampleSet([1.0, 2.0, 3.0])
        assert s.n == 3
        assert s.values.dtype == np.float64

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SampleSet([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            SampleSet([1.0, np.nan])
        with pytest.raises(ValueError):
            SampleSet([np.inf])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            SampleSet([[1.0, 2.0]])


class TestFileIO:
    def test_round_trip(self, tmp_path):
        s = SampleSet([0.1, -2.5, 3.75])
        path = tmp_path / "samples.txt"
        s.to_file(path)
        loaded = SampleSet.from_file(path)
        assert np.array_equal(loaded.values, s.values)

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("value\n1.0\n2.0\n")
        assert np.array_equal(SampleSet.from_file(path).values, [1.0, 2.0])

    def test_single_column_csv(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("1.0,ignored\n2.0,also\n")
        assert np.array_equal(SampleSet.from_file(path).values, [1.0, 2.0])

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("# comment\n\n1.5\n\n# more\n2.5\n")
        assert np.array_equal(SampleSet.from_file(path).values, [1.5, 2.5])

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("1.0\nnot-a-number\n")
        with pytest.raises(ValueError, match="line|2"):
            SampleSet.from_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(ValueError, match="no samples"):
            SampleSet.from_file(path)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-1e12, max_value=1e12,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_round_trip_exact(self, values):
        import tempfile
        from pathlib import Path

        s = SampleSet(values)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "vals.txt"
            s.to_file(path)
            loaded = SampleSet.from_file(path)
        assert np.array_equal(loaded.values, s.values)
