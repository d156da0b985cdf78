"""Tests for Resource."""

import pytest

from repro.sim import Resource, ResourceError


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ResourceError):
            Resource(sim, capacity=0)

    def test_grant_immediately_when_free(self, sim):
        res = Resource(sim, capacity=2)

        def proc():
            yield res.request()
            return (res.in_use, res.capacity - res.in_use)

        assert sim.run_process(proc()) == (1, 1)

    def test_fifo_queueing(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def worker(name, hold):
            req = res.request()
            yield req
            order.append((sim.now, name))
            yield sim.timeout(hold)
            res.release()

        sim.process(worker("a", 2.0))
        sim.process(worker("b", 2.0))
        sim.process(worker("c", 2.0))
        sim.run()
        assert order == [(0.0, "a"), (2.0, "b"), (4.0, "c")]

    def test_release_without_grant_raises(self, sim):
        res = Resource(sim, capacity=1)
        with pytest.raises(ResourceError):
            res.release()

    def test_release_transfers_to_waiter(self, sim):
        res = Resource(sim, capacity=1)
        got = []

        def a():
            yield res.request()
            yield sim.timeout(1.0)
            res.release()

        def b():
            yield res.request()
            got.append(sim.now)
            res.release()

        sim.process(a())
        sim.process(b())
        sim.run()
        assert got == [1.0]
        assert res.in_use == 0

    def test_queue_length(self, sim):
        res = Resource(sim, capacity=1)

        def holder():
            yield res.request()
            yield sim.timeout(10.0)
            res.release()

        def waiter():
            yield res.request()
            res.release()

        sim.process(holder())
        sim.process(waiter())
        sim.process(waiter())
        sim.run(until=1.0)
        assert res.queue_length == 2
