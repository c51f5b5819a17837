"""Tests for the stream/timeline model of the overlap oracle."""

import pytest

from ..frameworks.stream_oracle import Timeline


class TestStreams:
    def test_single_stream_serialises(self):
        tl = Timeline()
        s = tl.stream("compute")
        s.enqueue(1.0)
        s.enqueue(2.0)
        assert tl.makespan == pytest.approx(3.0)

    def test_two_streams_overlap(self):
        tl = Timeline()
        tl.stream("compute").enqueue(2.0)
        tl.stream("copy").enqueue(1.5)
        assert tl.makespan == pytest.approx(2.0)

    def test_event_wait_orders_across_streams(self):
        tl = Timeline()
        copy_done = tl.stream("copy").enqueue(1.0, "h2d")
        compute = tl.stream("compute")
        compute.wait(copy_done)
        compute.enqueue(0.5, "kernel")
        assert tl.makespan == pytest.approx(1.5)

    def test_not_before(self):
        tl = Timeline()
        s = tl.stream("s")
        s.enqueue(1.0, not_before=5.0)
        assert tl.makespan == pytest.approx(6.0)

    def test_busy_time_per_stream(self):
        tl = Timeline()
        tl.stream("a").enqueue(1.0)
        tl.stream("a").enqueue(2.0)
        tl.stream("b").enqueue(4.0)
        assert tl.busy_time("a") == pytest.approx(3.0)
        assert tl.busy_time("b") == pytest.approx(4.0)

    def test_stream_identity(self):
        tl = Timeline()
        assert tl.stream("x") is tl.stream("x")

    def test_negative_duration_rejected(self):
        tl = Timeline()
        with pytest.raises(ValueError):
            tl.stream("s").enqueue(-1.0)

    def test_empty_timeline(self):
        assert Timeline().makespan == 0.0

    def test_double_buffering_pattern(self):
        """Prefetch pipeline: copy batch i+1 while computing batch i —
        Caffe's hidden-transfer pattern (Fig. 7)."""
        tl = Timeline()
        copy, compute = tl.stream("copy"), tl.stream("compute")
        ready = copy.enqueue(0.3, "h2d 0")
        for i in range(4):
            nxt = copy.enqueue(0.3, f"h2d {i+1}")
            compute.wait(ready)
            compute.enqueue(1.0, f"iter {i}")
            ready = nxt
        # Copies fully hidden: makespan == first copy + 4 iterations.
        assert tl.makespan == pytest.approx(0.3 + 4.0)
