"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Environment, Resource, SimulationError, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grant_within_capacity_is_immediate(self, env):
        res = Resource(env, capacity=2)
        r1, r2 = res.request(), res.request()
        assert r1.triggered and r2.triggered
        assert res.count == 2

    def test_over_capacity_waits(self, env):
        res = Resource(env, capacity=1)
        r1 = res.request()
        r2 = res.request()
        assert r1.triggered and not r2.triggered
        assert res.queue_len == 1
        res.release(r1)
        assert r2.triggered
        assert res.count == 1

    def test_fifo_grant_order(self, env):
        res = Resource(env, capacity=1)
        order = []

        def user(name, hold):
            with res.request() as req:
                yield req
                order.append((name, env.now))
                yield env.timeout(hold)

        for i in range(4):
            env.process(user(i, 1.0))
        env.run()
        assert order == [(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)]

    def test_context_manager_releases(self, env):
        res = Resource(env, capacity=1)

        def user():
            with res.request() as req:
                yield req
                yield env.timeout(1.0)

        env.process(user())
        env.run()
        assert res.count == 0

    def test_release_unknown_request_raises(self, env):
        res_a = Resource(env, capacity=1)
        res_b = Resource(env, capacity=1)
        req = res_a.request()
        with pytest.raises(SimulationError):
            res_b.release(req)

    def test_release_queued_request_cancels_it(self, env):
        res = Resource(env, capacity=1)
        r1 = res.request()
        r2 = res.request()
        res.release(r2)  # cancel the queued one
        assert res.queue_len == 0
        res.release(r1)
        assert res.count == 0

    def test_cancel_waiting_request(self, env):
        res = Resource(env, capacity=1)
        res.request()
        r2 = res.request()
        r2.cancel()
        assert res.queue_len == 0

    def test_parallel_capacity_two(self, env):
        res = Resource(env, capacity=2)
        finish = []

        def user(name):
            with res.request() as req:
                yield req
                yield env.timeout(1.0)
                finish.append((name, env.now))

        for i in range(4):
            env.process(user(i))
        env.run()
        assert finish == [(0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0)]


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)

        def consumer():
            item = yield store.get()
            return item

        store.put("x")
        p = env.process(consumer())
        assert env.run(p) == "x"

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        got = []

        def consumer():
            got.append((yield store.get()))

        def producer():
            yield env.timeout(3.0)
            store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == ["late"]
        assert env.now == 3.0

    def test_fifo_item_order(self, env):
        store = Store(env)
        for i in range(5):
            store.put(i)
        got = []

        def consumer():
            for _ in range(5):
                got.append((yield store.get()))

        env.run(env.process(consumer()))
        assert got == [0, 1, 2, 3, 4]

    def test_len(self, env):
        store = Store(env)
        assert len(store) == 0
        store.put(1)
        assert len(store) == 1

    def test_multiple_getters_fifo(self, env):
        store = Store(env)
        got = []

        def consumer(name):
            item = yield store.get()
            got.append((name, item))

        env.process(consumer("first"))
        env.process(consumer("second"))

        def producer():
            yield env.timeout(1.0)
            store.put("x")
            store.put("y")

        env.process(producer())
        env.run()
        assert got == [("first", "x"), ("second", "y")]
