"""Shared-memory trace segments: publish, attach, release (PR 8).

The zero-copy fan-out path rests on three promises tested here: an
attached trace is **bit-identical** to the trace that was shared, the
attach is a genuine zero-copy mapping (no float64 duplicate), and the
segment lifecycle never leaks ``/dev/shm`` entries — release is
idempotent and the owner's unlink wins over lingering attachments.
"""

import glob
import os

import numpy as np
import pytest

from repro.workload.trace import (
    SHM_PREFIX,
    LoadTrace,
    SharedTraceHandle,
    TraceError,
    attach_trace,
    release_segment,
    share_trace,
    shm_stats,
)
from repro.workload.worldcup import synthesize


def _shm_entries():
    """This process's segments: names carry the creating process's pid."""
    return glob.glob(f"/dev/shm/{SHM_PREFIX}{os.getpid()}-*")


@pytest.fixture()
def trace():
    return synthesize(n_days=1, seed=42, peak_rate=1500.0)


class TestShareAttach:
    def test_round_trip_is_bit_identical(self, trace):
        handle = share_trace(trace)
        try:
            attached = attach_trace(handle)
            assert np.array_equal(attached.values, trace.values)
            assert attached.timestep == trace.timestep
            assert attached.name == trace.name
            assert attached.t0 == trace.t0
        finally:
            release_segment(handle)

    def test_attach_is_zero_copy_and_read_only(self, trace):
        handle = share_trace(trace)
        try:
            attached = attach_trace(handle)
            assert not attached.values.flags.writeable
            # LoadTrace adopted the shared view instead of copying it:
            # the array's memory is the segment, not a private buffer.
            assert attached.values.base is not None
        finally:
            release_segment(handle)

    def test_attach_is_memoised_per_segment(self, trace):
        handle = share_trace(trace)
        try:
            first = attach_trace(handle)
            second = attach_trace(handle)
            assert second is first
        finally:
            release_segment(handle)

    def test_handle_is_tiny_and_knows_its_payload(self, trace):
        handle = share_trace(trace)
        try:
            assert isinstance(handle, SharedTraceHandle)
            assert handle.samples == trace.values.size
            assert handle.nbytes == trace.values.nbytes
            assert handle.segment.startswith(SHM_PREFIX)
        finally:
            release_segment(handle)


class TestLifecycle:
    def test_release_removes_the_segment(self, trace):
        handle = share_trace(trace)
        assert any(handle.segment in p for p in _shm_entries())
        release_segment(handle)
        assert not any(handle.segment in p for p in _shm_entries())

    def test_release_is_idempotent(self, trace):
        handle = share_trace(trace)
        release_segment(handle)
        release_segment(handle)  # second release is a no-op
        release_segment(handle.segment)  # by name too

    def test_attach_after_release_raises(self, trace):
        handle = share_trace(trace)
        release_segment(handle)
        with pytest.raises(TraceError, match="no longer exists"):
            attach_trace(handle)

    def test_stats_track_segment_lifecycle(self, trace):
        before = shm_stats()
        handle = share_trace(trace)
        attach_trace(handle)
        mid = shm_stats()
        assert mid["segments_created"] == before["segments_created"] + 1
        assert mid["segments_live"] >= 1
        assert (
            mid["bytes_shared"]
            == before["bytes_shared"] + trace.values.nbytes
        )
        assert mid["attaches"] > before["attaches"]
        release_segment(handle)
        after = shm_stats()
        assert (
            after["segments_unlinked"] == before["segments_unlinked"] + 1
        )


class TestZeroCopyAdoption:
    def test_read_only_float64_is_adopted_without_copy(self):
        arr = np.arange(100, dtype=np.float64)
        arr.flags.writeable = False
        tr = LoadTrace(arr, 1.0, "adopt")
        assert tr.values is arr

    def test_writeable_input_is_still_copied(self):
        arr = np.arange(100, dtype=np.float64)
        tr = LoadTrace(arr, 1.0, "copy")
        assert tr.values is not arr
        # the caller's array must keep its flags: adoption never mutates
        assert arr.flags.writeable
        arr[0] = 123.0
        assert tr.values[0] == 0.0  # genuinely decoupled

    def test_non_contiguous_read_only_view_is_copied(self):
        base = np.arange(200, dtype=np.float64)
        view = base[::2]
        view.flags.writeable = False
        tr = LoadTrace(view, 1.0, "strided")
        assert tr.values.flags.c_contiguous
        assert tr.values is not view
        assert np.array_equal(tr.values, view)
