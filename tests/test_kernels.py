import pytest

from badlab import kernels
from badlab.kernels import _pykernels


def test_backend_dispatch_reports():
    assert kernels.backend_name() == "pure"
    # the benchmark's tracer wraps both names; one object would lose a count
    assert kernels.badness_scan is not _pykernels.badness_scan


def test_badness_scan_zero_detection_both():
    # w = 3/8: distance hits zero first at q = 8, after the records 1, 2, 3
    assert kernels.badness_scan([3], 8, 50, 1) == ([8], 8)
    assert kernels.badness_scan([3], 8, 7, 1) == ([1, 2, 3], None)


def test_badness_scan_rejects_empty_range():
    with pytest.raises(ValueError):
        _pykernels.badness_scan([1], 4, 10, 11)
