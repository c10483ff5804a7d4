"""The process-wide counter registry: per-thread scopes, exact totals
under concurrent increments, merging of forked workers' scopes, and
fork safety of the registry lock."""

import os
import signal
import sys
import threading
import time

import pytest

from repro.experiments.config import ScalingStudyConfig
from repro.experiments.parallel import ExecutorOptions
from repro.experiments.runner import run_scaling_study
from repro.obs import counters

SMALL = ScalingStudyConfig(
    app_type="A32", fractions=(0.1,), trials=2, system_nodes=1200
)


class TestScopes:
    def test_threads_count_exactly_and_scopes_see_only_their_own(self):
        before = counters.counter_value("test.stress")
        scopes = []

        def work():
            with counters.scope() as mine:
                for _ in range(2000):
                    counters.increment("test.stress")
            scopes.append(mine)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert scopes == [{"test.stress": 2000}] * 8
        assert counters.counter_value("test.stress") - before == 16000

    def test_nested_scopes_both_see_increments(self):
        with counters.scope() as outer:
            counters.increment("test.nested", 1)
            with counters.scope() as inner:
                counters.increment("test.nested", 2)
            counters.increment("test.nested", 4)
        assert inner == {"test.nested": 2}
        assert outer == {"test.nested": 7}

    def test_forked_study_counts_like_a_serial_one(self):
        with counters.scope() as serial:
            run_scaling_study(SMALL, options=ExecutorOptions(jobs=1))
        with counters.scope() as forked:
            run_scaling_study(SMALL, options=ExecutorOptions(jobs=2))
        assert serial["single_app.simulations"] > 0
        assert forked == serial


class TestFork:
    def test_child_forked_while_the_lock_is_held_can_count(self):
        held = threading.Event()
        release = threading.Event()

        def hold():
            with counters._LOCK:
                held.set()
                release.wait(30)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(10)
            pid = os.fork()
            if pid == 0:  # the holder thread does not exist in here
                code = 1
                try:
                    counters.increment("test.fork")
                    code = 0
                finally:
                    os._exit(code)
            deadline = time.monotonic() + 10
            while True:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    pytest.fail("forked child hung on the registry lock")
                time.sleep(0.01)
            assert os.waitstatus_to_exitcode(status) == 0
        finally:
            release.set()
            holder.join(timeout=10)
        assert not holder.is_alive()
