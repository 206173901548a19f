"""Free-time servers, absolute timeouts and detached processes.

``Server.claim`` is the closed form of a FIFO ``Resource`` queue for work
whose service time is known on arrival; the property test drives both
with the same arrivals and requires identical start and end instants.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.events
from repro.perf.stats import PERF
from repro.sim import Environment, Resource, Server, SimulationError


@pytest.fixture
def env():
    return Environment()


# -- Server ≡ Resource -----------------------------------------------------------

def _via_resource(capacity, jobs):
    """Grant and release instants of each job queued through a Resource."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    out = [None] * len(jobs)

    def job(i, arrival, service, stall):
        yield env.timeout(arrival)
        with res.request() as req:
            yield req
            start = env.now
            if stall:
                yield env.timeout(stall)
            yield env.timeout(service)
            out[i] = (start, env.now)

    for i, spec in enumerate(jobs):
        env.process(job(i, *spec))
    env.run()
    return out


def _via_server(capacity, jobs):
    """``Server.claim`` results for the same arrivals."""
    env = Environment()
    server = Server(env, capacity=capacity)
    out = [None] * len(jobs)

    def job(i, arrival, service, stall):
        yield env.timeout(arrival)
        out[i] = server.claim(service, stall)

    for i, spec in enumerate(jobs):
        env.process(job(i, *spec))
    env.run()
    return out


# Coarse grids make same-instant arrivals and releases common: those ties
# are where a closed form could disagree with the event-driven queue.
_times = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]),
    st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False),
)
_jobs = st.lists(
    st.tuples(_times, _times, st.one_of(st.just(0.0), _times)),
    min_size=1, max_size=12,
)


class TestServerMatchesResource:
    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(1, 3), jobs=_jobs)
    def test_claims_equal_resource_grant_and_release(self, capacity, jobs):
        assert _via_server(capacity, jobs) == _via_resource(capacity, jobs)


class TestServer:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Server(env, capacity=0)

    def test_fifo_back_to_back(self, env):
        server = Server(env, capacity=1, name="dma")
        assert server.claim(2.0) == (0.0, 2.0)
        assert server.claim(1.0) == (2.0, 3.0)
        assert server.claim(0.5, stall=0.25) == (3.0, 3.75)

    def test_idle_server_starts_now(self, env):
        server = Server(env, capacity=1)
        server.claim(1.0)
        env.timeout(5.0)
        env.run()
        assert server.claim(1.0) == (5.0, 6.0)

    def test_picks_earliest_free_unit(self, env):
        server = Server(env, capacity=2)
        assert server.claim(4.0) == (0.0, 4.0)
        assert server.claim(1.0) == (0.0, 1.0)
        assert server.claim(1.0) == (1.0, 2.0)
        assert server.claim(1.0) == (2.0, 3.0)
        assert server.claim(1.0) == (3.0, 4.0)

    def test_negative_work_rejected(self, env):
        server = Server(env)
        with pytest.raises(ValueError):
            server.claim(-1.0)
        with pytest.raises(ValueError):
            server.claim(1.0, stall=-1.0)


# -- timeout_at ---------------------------------------------------------------------

class TestTimeoutAt:
    def test_fires_at_absolute_time_with_value(self, env):
        seen = []

        def proc():
            yield env.timeout(1.0)
            value = yield env.timeout_at(3.5, value="v")
            seen.append((env.now, value))

        env.process(proc())
        env.run()
        assert seen == [(3.5, "v")]

    def test_past_time_rejected(self, env):
        env.timeout(2.0)
        env.run()
        with pytest.raises(SimulationError):
            env.timeout_at(1.0)

    def test_now_goes_through_the_immediate_lane_in_fifo_order(self, env):
        order = []
        env.timeout(0.0).callbacks.append(lambda _e: order.append("a"))
        env.timeout_at(0.0).callbacks.append(lambda _e: order.append("b"))
        env.timeout(0.0).callbacks.append(lambda _e: order.append("c"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_reuses_pooled_timeouts(self, env):
        def proc():
            for k in range(1, 50):
                yield env.timeout_at(float(k))

        before = PERF.snapshot().get("event_pool_hit", 0)
        env.process(proc())
        env.run()
        assert PERF.snapshot().get("event_pool_hit", 0) - before >= 48

    def test_same_order_with_pooling_off(self, monkeypatch):
        def trace():
            env = Environment()
            seen = []

            def proc(k):
                for step in range(5):
                    yield env.timeout_at(float(step + k % 2))
                    seen.append((env.now, k))

            for k in range(4):
                env.process(proc(k))
            env.run()
            return seen

        pooled = trace()
        # With a zero cap no timeout is ever recycled: the unpooled kernel.
        monkeypatch.setattr(repro.sim.events, "TIMEOUT_POOL_CAP", 0)
        before = PERF.snapshot().get("event_pool_hit", 0)
        unpooled = trace()
        assert PERF.snapshot().get("event_pool_hit", 0) == before
        assert pooled == unpooled


# -- spawn --------------------------------------------------------------------------

def _finishes_at_once():
    return None
    yield  # pragma: no cover


class TestSpawn:
    def test_returns_none_and_runs(self, env):
        seen = []

        def proc():
            yield env.timeout(2.0)
            seen.append(env.now)

        assert env.spawn(proc(), name="detached") is None
        env.run()
        assert seen == [2.0]

    def test_schedules_no_completion_event(self):
        joined = Environment()
        joined.process(_finishes_at_once())
        joined.run()
        detached = Environment()
        detached.spawn(_finishes_at_once())
        detached.run()
        # Both pay the start event; only the joinable process also
        # schedules a completion.
        assert joined._eid - detached._eid == 1

    def test_exception_still_aborts_the_run(self, env):
        def proc():
            yield env.timeout(1.0)
            raise KeyError("lost message")

        env.spawn(proc())
        with pytest.raises(KeyError, match="lost message"):
            env.run()
        assert env.now == 1.0

    def test_same_event_order_as_process(self):
        def trace(start):
            env = Environment()
            seen = []

            def proc(k):
                yield env.timeout(0.0)
                seen.append(("a", k, env.now))
                yield env.timeout(1.0)
                seen.append(("b", k, env.now))

            for k in range(3):
                start(env)(proc(k))
            env.run()
            return seen

        assert trace(lambda env: env.spawn) == trace(lambda env: env.process)
