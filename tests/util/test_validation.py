import numpy as np
import pytest

from repro.util.validation import (
    ReproError,
    ShapeError,
    check_array,
    check_positive,
)


class TestCheckArray:
    def test_passthrough(self):
        a = np.arange(5)
        out = check_array("a", a)
        assert out is a

    def test_list_coerced(self):
        out = check_array("a", [1, 2, 3])
        assert isinstance(out, np.ndarray)

    def test_ndim_mismatch(self):
        with pytest.raises(ShapeError, match="expected 2 dimensions"):
            check_array("a", np.arange(4), ndim=2)

    def test_shape_wildcards(self):
        out = check_array("a", np.zeros((3, 6)), shape=(None, 6))
        assert out.shape == (3, 6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="axis 1"):
            check_array("a", np.zeros((3, 5)), shape=(None, 6))

    def test_shape_rank_mismatch(self):
        with pytest.raises(ShapeError):
            check_array("a", np.zeros(3), shape=(3, 1))

    def test_dtype_cast(self):
        out = check_array("a", np.arange(3, dtype=np.int32), dtype=np.float64)
        assert out.dtype == np.float64

    def test_unsafe_cast_rejected(self):
        with pytest.raises(ShapeError, match="castable"):
            check_array("a", np.array([1.5]), dtype=np.int64)

    def test_finite_rejects_nan(self):
        with pytest.raises(ShapeError, match="non-finite"):
            check_array("a", np.array([1.0, np.nan]), finite=True)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError, match="empty"):
            check_array("a", np.zeros(0), allow_empty=False)

    def test_shape_error_is_repro_and_value_error(self):
        assert issubclass(ShapeError, ReproError)
        assert issubclass(ShapeError, ValueError)


class TestScalars:
    def test_positive_ok(self):
        assert check_positive("x", 2) == 2.0

    def test_positive_rejects_zero(self):
        with pytest.raises(ShapeError):
            check_positive("x", 0.0)

    def test_nonneg_allows_zero(self):
        assert check_positive("x", 0.0, strict=False) == 0.0

    def test_positive_rejects_inf(self):
        with pytest.raises(ShapeError):
            check_positive("x", float("inf"))
