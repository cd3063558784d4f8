"""One launcher for ``repro serve`` subprocesses.

Every caller that boots a real ``serve`` — the chaos scenarios, the CI
smokes, the fleet tests and the fleet benchmark — goes through
:class:`ServeProcess`.  It starts ``python -m repro serve <args>
--ready-file <dir>/ready`` in a new session, sends the child's output
to ``<dir>/serve.log`` (so no caller drains a pipe), and waits for the
ready file and the child's exit together: a ``serve`` that dies at boot
fails :meth:`ServeProcess.start` at once, with its output.

``serve`` writes two files, each by atomic replace, so a reader sees
the previous version or the next, never a torn one:

- ``<ready-file>``: ``host port\\n`` once it listens;
- ``<ready-file>.workers`` (``--workers N`` only): one ``index pid\\n``
  line per live worker, replaced after every respawn and written
  before the ready file.

A worker fleet is one session, so :meth:`ServeProcess.kill_group`
reaches the parent, its workers and the orphans of a SIGKILLed parent
with one ``killpg``.
"""

from __future__ import annotations

import contextlib
import glob
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import repro

#: The one readiness poll interval (seconds).
POLL = 0.01
#: How long a boot may take before ``start`` gives up.
BOOT_TIMEOUT = 30.0
#: How long ``stop`` waits after SIGTERM before it kills.
STOP_GRACE = 15.0

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class ServeError(RuntimeError):
    """A ``serve`` failed to boot, or to stop when asked."""


def _running(pid: int) -> bool:
    """Whether ``pid`` still runs; a zombie no one has reaped does not."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def wait_gone(pids: Iterable[int], grace: float) -> List[int]:
    """Wait up to ``grace`` seconds for every pid to exit; return the rest."""
    pids = list(pids)
    deadline = time.monotonic() + grace
    while True:
        left = [pid for pid in pids if _running(pid)]
        if not left or time.monotonic() >= deadline:
            return left
        time.sleep(POLL)


class ServeProcess:
    """One ``python -m repro serve`` child: boot, observe, kill, restart.

    ``args`` is the ``serve`` argument list without ``--ready-file``.
    The ready file and the log live in a temp dir of the object's own,
    removed by :meth:`close`.  ``env`` adds to this process's
    environment; ``PYTHONPATH`` always leads with the imported
    ``repro`` package's source root.  As a context manager it starts
    the child on entry and leaves nothing of its session running on
    exit.
    """

    def __init__(self, args: Sequence[str], *, env: Optional[Mapping[str, str]] = None) -> None:
        self.args = list(args)
        self.workdir = tempfile.mkdtemp(prefix="serve-")
        self.ready = os.path.join(self.workdir, "ready")
        self.log = os.path.join(self.workdir, "serve.log")
        self.env = dict(os.environ, **(env or {}))
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [_SRC, self.env.get("PYTHONPATH")])
        )
        #: The current child; ``None`` until :meth:`start`.
        self.process: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def __enter__(self) -> "ServeProcess":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- boot --------------------------------------------------------------

    def start(self) -> "ServeProcess":
        """Spawn ``serve`` and wait until it listens; raise if it exits first."""
        for path in (self.ready, f"{self.ready}.workers", self.log):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        with open(self.log, "wb") as sink:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", *self.args,
                 "--ready-file", self.ready],
                stdout=sink,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                env=self.env,
                start_new_session=True,
            )
        deadline = time.monotonic() + BOOT_TIMEOUT
        while True:
            with contextlib.suppress(FileNotFoundError):
                with open(self.ready, encoding="utf-8") as handle:
                    text = handle.read()
                if text.endswith("\n"):
                    host, port = text.split()
                    self.host, self.port = host, int(port)
                    return self
            code = self.process.poll()
            if code is not None:
                problem = f"exited {code} at boot"
            elif time.monotonic() > deadline:
                problem = f"was not ready after {BOOT_TIMEOUT:.0f}s"
            else:
                time.sleep(POLL)
                continue
            self.kill_group()
            error = ServeError(f"serve {' '.join(self.args)} {problem}:\n{self.output()}")
            self.close()
            raise error

    def restart(self) -> "ServeProcess":
        """Stop what is left of this ``serve``, then boot its argv on its port."""
        if self.running:
            self.stop()
        self.kill_group()
        if "--port" in self.args:
            self.args[self.args.index("--port") + 1] = str(self.port)
        else:
            self.args += ["--port", str(self.port)]
        return self.start()

    # -- observation -------------------------------------------------------

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def running(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def workers(self) -> Dict[int, int]:
        """The fleet's worker manifest, ``index -> pid``; empty without one."""
        try:
            with open(f"{self.ready}.workers", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except FileNotFoundError:
            return {}
        return {int(index): int(pid) for index, pid in map(str.split, lines)}

    def pids(self) -> List[int]:
        """The parent's pid, then each worker's."""
        return [self.pid, *self.workers().values()]

    def await_respawn(self, index: int, old_pid: int, timeout: float = 30.0) -> int:
        """Wait for worker ``index`` to show a pid other than ``old_pid``."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.running:
                raise ServeError(f"serve exited while worker {index} was down")
            fresh = self.workers().get(index, old_pid)
            if fresh != old_pid:
                return fresh
            time.sleep(POLL)
        raise ServeError(f"worker {index} (pid {old_pid}) was never respawned")

    def output(self) -> str:
        """Everything the current ``serve`` wrote to stdout and stderr."""
        try:
            with open(self.log, encoding="utf-8", errors="replace") as handle:
                return handle.read()
        except FileNotFoundError:
            return ""

    # -- teardown ----------------------------------------------------------

    def kill(self) -> None:
        """SIGKILL the parent only, and reap it; its workers are on their own."""
        self.process.kill()
        self.process.wait()

    def kill_group(self) -> None:
        """SIGKILL the whole session — parent, workers, orphans — and reap.

        Nothing of the session is left to remove a fleet's bus dir
        (``repro-workers-<parent pid>-*``), so this does, as a reboot
        would.
        """
        if self.process is None:
            return
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(self.process.pid, signal.SIGKILL)
        self.process.wait()
        tmp = self.env.get("TMPDIR") or tempfile.gettempdir()
        for path in glob.glob(os.path.join(tmp, f"repro-workers-{self.process.pid}-*")):
            shutil.rmtree(path, ignore_errors=True)

    def stop(self) -> int:
        """SIGTERM and wait; returns the exit code.

        A ``serve`` still running after :data:`STOP_GRACE` seconds is
        killed with its session and :class:`ServeError` raised.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_GRACE)
            except subprocess.TimeoutExpired:
                self.kill_group()
                raise ServeError(
                    f"serve did not exit within {STOP_GRACE:.0f}s of SIGTERM:\n"
                    f"{self.output()}"
                ) from None
        return self.process.returncode

    def close(self) -> None:
        """Kill whatever of the session still runs; remove the workdir."""
        self.kill_group()
        shutil.rmtree(self.workdir, ignore_errors=True)


__all__ = ["BOOT_TIMEOUT", "ServeError", "ServeProcess", "STOP_GRACE", "wait_gone"]
