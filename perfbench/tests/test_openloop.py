import pytest

from seqbench.openloop import keeps_up, run_open_loop


class FakeClock:
    def __init__(self, t=100.0):
        self.t = t
        self.slept = []

    def __call__(self):
        return self.t

    def sleep(self, dt):
        assert dt > 0
        self.slept.append(dt)
        self.t += dt


def service(clock, times):
    def op(i):
        clock.t += times[i]
        return True
    return op


def test_due_times_follow_the_schedule_not_completions():
    clock = FakeClock()
    res = run_open_loop(4, 10.0, service(clock, [0.01] * 4), clock, clock.sleep)
    assert res.due == pytest.approx([100.0, 100.1, 100.2, 100.3])
    assert res.lateness == pytest.approx([0.0] * 4)
    assert res.latency == pytest.approx([0.01] * 4)
    assert clock.slept == pytest.approx([0.09] * 3)


def test_a_stall_charges_the_requests_behind_it():
    clock = FakeClock()
    # request 1 stalls for 0.35 s; 2 and 3 were due meanwhile and start late
    res = run_open_loop(5, 10.0, service(clock, [0.01, 0.35, 0.01, 0.01, 0.01]),
                        clock, clock.sleep)
    assert res.lateness == pytest.approx([0.0, 0.0, 0.25, 0.16, 0.07])
    assert res.latency == pytest.approx([0.01, 0.35, 0.26, 0.17, 0.08])
    assert res.service == pytest.approx([0.01, 0.35, 0.01, 0.01, 0.01])


def test_failed_requests_never_meet_a_latency_limit():
    clock = FakeClock()
    res = run_open_loop(2, 10.0, lambda i: i == 0, clock, clock.sleep)
    assert res.latency[0] == 0.0 and res.latency[1] == float("inf")


def test_a_backlog_shows_as_completions_falling_behind_arrivals():
    clock = FakeClock()
    over = run_open_loop(40, 100.0, service(clock, [0.02] * 40), clock, clock.sleep)
    assert over.lateness[-1] == pytest.approx(39 * 0.01)
    assert over.achieved_rate == pytest.approx(40 / 0.8)
    assert not keeps_up([over])

    clock = FakeClock()
    under = run_open_loop(40, 40.0, service(clock, [0.02] * 40), clock, clock.sleep)
    assert keeps_up([under])


def test_a_drained_stall_keeps_up_and_a_late_one_is_diluted_by_pooling():
    def run(times):
        clock = FakeClock()
        return run_open_loop(40, 20.0, service(clock, times), clock, clock.sleep)

    early = [0.02] * 40
    early[5] = 0.3                   # the queue drains before the schedule ends
    drained = run(early)
    assert max(drained.lateness) == pytest.approx(0.25) and drained.lateness[-1] == 0.0
    assert keeps_up([drained])
    late = [0.02] * 39 + [0.3]       # the last request stalls
    stalled = run(late)
    assert not keeps_up([stalled])
    assert keeps_up([stalled, run([0.02] * 40), run([0.02] * 40)])


def test_rejects_empty_schedules():
    with pytest.raises(ValueError):
        run_open_loop(0, 10.0, lambda i: True)
    with pytest.raises(ValueError):
        run_open_loop(1, 0.0, lambda i: True)
