"""The one ``repro serve`` launcher: boot failure, kill, restart, stop."""

import socket
import time

import pytest

from repro.chaos.process import ServeError, ServeProcess, wait_gone

SMALL = ["--port", "0", "--servers", "4", "--entries", "6"]


def test_a_serve_that_exits_at_boot_fails_start_with_its_output():
    started = time.monotonic()
    with pytest.raises(ServeError, match="store 'log' requires a data_dir"):
        ServeProcess([*SMALL, "--store", "log"]).start()
    assert time.monotonic() - started < 5


def test_a_sigkilled_supervisor_leaves_no_bus_dir(tmp_path):
    """The workers exit on lifeline EOF; the writer takes the bus
    socket's temp dir with it, since its supervisor cannot."""
    with ServeProcess([*SMALL, "--workers", "2"], env={"TMPDIR": str(tmp_path)}) as serve:
        assert list(tmp_path.glob("repro-workers-*"))
        pids = serve.workers().values()
        serve.kill()
        assert wait_gone(pids, 30) == [], "a worker outlived its supervisor"
        assert list(tmp_path.glob("repro-workers-*")) == []


def test_restart_comes_back_on_the_same_port():
    with ServeProcess(SMALL) as serve:
        port, first = serve.port, serve.pid
        serve.kill()
        serve.restart()
        assert (serve.port, serve.running) == (port, True)
        assert serve.pid != first
        socket.create_connection((serve.host, serve.port), timeout=5).close()


def test_stop_is_a_clean_exit():
    with ServeProcess(SMALL) as serve:
        assert serve.stop() == 0
        assert "[serve] stopped" in serve.output()
