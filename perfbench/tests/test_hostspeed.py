"""Host-speed correction: sampler time left out, handler and timer restored."""

import signal
import time

from perfbench import hostspeed


def test_timed_leaves_out_the_sampler_and_divides_by_its_slowdown(monkeypatch):
    # A stub kernel that takes twice REF_S: every sample reads a slowdown of 2.
    monkeypatch.setattr(hostspeed, "REF_S", 0.05)
    monkeypatch.setattr(hostspeed, "kernel", lambda: time.sleep(0.1))

    def work():  # about 0.35 s of 1 ms steps; a sample landing in a step adds 0.1 s
        for _ in range(300):
            time.sleep(0.001)

    t0 = time.perf_counter()
    work()
    plain = time.perf_counter() - t0
    before = signal.getsignal(signal.SIGALRM)
    result, seconds, factor = hostspeed.timed(work)
    assert result is None
    assert 1.9 < factor < 2.2
    # Every 0.2 s a sample adds 0.1 s of wall time, which timed() leaves out.
    assert abs(seconds * factor - plain) < 0.06
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_timed_restores_the_handler_when_the_operation_raises():
    before = signal.getsignal(signal.SIGALRM)

    def fail():
        raise ValueError("boom")

    try:
        hostspeed.timed(fail)
    except ValueError:
        pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
