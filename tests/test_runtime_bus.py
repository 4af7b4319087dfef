"""Unit tests for the runtime's bounded stage queues."""

import pytest

from repro.runtime.stage import BoundedQueue


class TestBoundedQueue:
    def test_fifo_order(self):
        queue = BoundedQueue(3)
        for item in (1, 2, 3):
            assert queue.push(item)
        assert list(queue.drain()) == [1, 2, 3]

    def test_capacity_enforced_with_drop_accounting(self):
        queue = BoundedQueue(2)
        assert queue.push("a") and queue.push("b")
        assert not queue.push("c")
        assert queue.dropped == 1
        assert len(queue) == 2

    def test_drain_limit(self):
        queue = BoundedQueue(4)
        for item in range(4):
            queue.push(item)
        assert list(queue.drain(2)) == [0, 1]
        assert len(queue) == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)
