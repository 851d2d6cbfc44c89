import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from badlab import kernels
from badlab.kernels import _pykernels


def test_backend_dispatch_reports():
    assert kernels.backend_name() == "pure"
    # the benchmark's tracer wraps both names; one object would lose a count
    assert kernels.badness_scan is not _pykernels.badness_scan


def test_badness_scan_zero_detection_both():
    # w = 3/8: distance hits zero first at q = 8, after the records 1, 2, 3
    # at folded residues 3, 2, 1 (distances 3/8, 2/8, 1/8)
    assert kernels.badness_scan([3], 8, 50, 1) == ([(8, 0)], 8)
    assert kernels.badness_scan([3], 8, 7, 1) == (
        [(1, 3), (2, 2), (3, 1)], None)


def test_badness_scan_rejects_empty_range():
    with pytest.raises(ValueError):
        _pykernels.badness_scan([1], 4, 10, 11)


def _all_coordinates_scan(nums, D, X, q_min):
    """Strict records (q, m) of the folded sup residue m, every coordinate
    every q."""
    records = []
    best = None
    for q in range(q_min, X + 1):
        m = max((min(q * n % D, D - q * n % D) for n in nums), default=0)
        if m == 0:
            return [(q, 0)], q
        if best is None or m < best:
            best = m
            records.append((q, m))
    return records, None


def test_badness_scan_first_coordinate_zero_is_not_a_zero():
    # w = (1/2, 1/3): coordinate 0 is at residue 0 for every even q, but
    # the sup distance is zero only at q = 6
    assert kernels.badness_scan([3, 2], 6, 5, 1) == ([(1, 3), (2, 2)], None)
    assert kernels.badness_scan([3, 2], 6, 20, 1) == ([(6, 0)], 6)
    assert kernels.badness_scan([3, 2], 6, 11, 7) == (
        [(7, 3), (8, 2)], None)
    for X, q_min in ((5, 1), (20, 1), (20, 3), (11, 7)):
        assert kernels.badness_scan([3, 2], 6, X, q_min) == \
            _all_coordinates_scan([3, 2], 6, X, q_min)


@st.composite
def _scan_input(draw):
    D = draw(st.one_of(st.integers(0, 270).map(lambda k: 1 << k),
                       st.integers(1, 10**6), st.integers(1, 60)))
    nums = draw(st.lists(st.integers(-3 * D, 3 * D), min_size=1, max_size=3))
    # now and then an exact zero residue: in coordinate 0 every q passes
    # its filter, and in another it never raises the sup
    nums = [D * draw(st.integers(-2, 2)) if draw(st.integers(0, 4)) == 0
            else n for n in nums]
    X = draw(st.integers(1, draw(st.sampled_from((400, 5000)))))
    q_min = draw(st.one_of(st.integers(1, X), st.just(X)))
    return nums, D, X, q_min


@example(([5], 1, 5000, 5000))  # D = 1: every q is at distance zero
@example(([0, 3], 7, 5000, 1))  # coordinate 0 at residue 0 for every q
@example(([10, 0], 2**40, 5000, 2))  # another coordinate always at zero
@example(([3 * 2**38 + 1], 2**40, 5000, 4999))
@example(([30977, 33790], 2**14, 1551, 397))  # a pass at the window's edge
@settings(max_examples=300, deadline=None)
@given(_scan_input())
def test_badness_scan_matches_all_coordinates_scan(case):
    nums, D, X, q_min = case
    assert _pykernels.badness_scan(nums, D, X, q_min) == \
        _all_coordinates_scan(nums, D, X, q_min)
