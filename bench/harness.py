"""Process plumbing: boot the real ``repro serve`` topologies, read /proc, tear down.

Everything here works on process *groups*: each ``serve`` process is
started in its own session, so a worker fleet's supervisor and the
workers it forks share one pgid that a single ``killpg`` reaches and a
single ``/proc`` scan enumerates.  Nothing in this file imports
``repro`` — the servers are only ever driven through their CLI.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = pathlib.Path(__file__).resolve().parent / "results"

#: ``sun_path`` holds 108 bytes; the worker supervisor puts its writer
#: bus at ``$TMPDIR/repro-workers-XXXXXXXX/writer.sock`` (35 bytes past
#: ``$TMPDIR``), so a longer work dir cannot host a fleet.
_MAX_TMPDIR = 70

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The harness could not set up or tear down what a workload needs."""


# --------------------------------------------------------------------------
# CPU placement
# --------------------------------------------------------------------------


class Placement:
    """Loadgen on core 0, servers on every other core (when there are two).

    Pinned, the load generator's own CPU never lands on the core whose
    CPU time is being measured; the workloads keep both sides busy so
    the cross-core wake-ups pinning costs stay rare (``bench/README.md``).
    """

    def __init__(self) -> None:
        self.nproc = os.cpu_count() or 1
        self.pinned = False
        self.loadgen_cpus: Set[int] = set()
        self.server_cpus: Set[int] = set()
        try:
            allowed = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            return
        if len(allowed) < 2:
            return
        self.loadgen_cpus = {allowed[0]}
        self.server_cpus = set(allowed[1:])
        try:
            os.sched_setaffinity(0, self.loadgen_cpus)
        except OSError:
            return
        self.pinned = True

    @contextlib.contextmanager
    def for_servers(self) -> Iterator[None]:
        """Children spawned inside inherit the server cores."""
        if not self.pinned:
            yield
            return
        os.sched_setaffinity(0, self.server_cpus)
        try:
            yield
        finally:
            os.sched_setaffinity(0, self.loadgen_cpus)


# --------------------------------------------------------------------------
# /proc readers
# --------------------------------------------------------------------------


def _stat_fields(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` after the ``(comm)`` field, or None if gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            text = handle.read()
    except OSError:
        return None
    return text[text.rfind(")") + 2 :].split()


def group_pids(pgid: int) -> List[int]:
    """Live (non-zombie) pids whose process group is ``pgid``."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is not None and fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(name))
    return sorted(pids)


def cpu_seconds(pids: Sequence[int]) -> float:
    """utime + stime summed over ``pids``, in seconds."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLK_TCK


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def loadavg() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def free_port() -> int:
    """A TCP port that was free a moment ago (shards need theirs up front)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# --------------------------------------------------------------------------
# The run's scratch directory and leak accounting
# --------------------------------------------------------------------------


class WorkDir:
    """One run's scratch space; also the servers' ``$TMPDIR``.

    Lives under ``bench/results/`` (git-ignored) so a run writes only
    inside its checkout, unless that path is too long for the worker
    fleet's Unix socket — then the system temp dir is used and said so.
    """

    def __init__(self) -> None:
        RESULTS.mkdir(parents=True, exist_ok=True)
        base = str(RESULTS)
        self.inside_checkout = len(base) + 16 <= _MAX_TMPDIR
        if not self.inside_checkout:
            base = tempfile.gettempdir()
        self.path = pathlib.Path(tempfile.mkdtemp(prefix="w", dir=base))
        self._shm_before = self._shm_listing()

    @staticmethod
    def _shm_listing() -> Set[str]:
        try:
            return set(os.listdir("/dev/shm"))
        except OSError:
            return set()

    def sub(self, name: str) -> pathlib.Path:
        path = self.path / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def sweep_shm(self) -> List[str]:
        """Unlink the ``psm_*`` segments that appeared during this run.

        A SIGKILLed fleet cannot unlink its shared reply cache (8 MiB
        a boot); the harness killed it, so the harness cleans up.
        """
        leaked = sorted(
            name
            for name in self._shm_listing() - self._shm_before
            if name.startswith("psm_")
        )
        for name in leaked:
            with contextlib.suppress(OSError):
                os.unlink(os.path.join("/dev/shm", name))
        return leaked

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# --------------------------------------------------------------------------
# Server processes
# --------------------------------------------------------------------------


class ServerGroup:
    """The ``serve`` processes of one booted topology."""

    def __init__(self, procs: List[subprocess.Popen], logs: List[pathlib.Path]) -> None:
        self.procs = procs
        self.logs = logs
        #: Every pid ever seen in the groups, so teardown can prove
        #: that none of them outlived the run.
        self.seen: Set[int] = {proc.pid for proc in procs}

    def pids(self) -> List[int]:
        pids: List[int] = []
        for proc in self.procs:
            pids.extend(group_pids(proc.pid))
        self.seen.update(pids)
        return pids

    def alive(self) -> bool:
        return all(proc.poll() is None for proc in self.procs)

    def log_tail(self, lines: int = 15) -> str:
        out = []
        for log in self.logs:
            with contextlib.suppress(OSError):
                text = log.read_text(encoding="utf-8", errors="replace")
                out.append(f"--- {log.name}\n" + "\n".join(text.splitlines()[-lines:]))
        return "\n".join(out)

    def kill(self) -> None:
        """SIGKILL every process group — the crash the journal must survive."""
        self.pids()
        for proc in self.procs:
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.killpg(proc.pid, signal.SIGKILL)
        self._reap()

    def stop(self, grace: float = 10.0) -> None:
        """SIGTERM (the clean path: fleets unlink their shm), then SIGKILL."""
        self.pids()
        for proc in self.procs:
            if proc.poll() is None:
                with contextlib.suppress(ProcessLookupError):
                    proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + grace
        for proc in self.procs:
            with contextlib.suppress(subprocess.TimeoutExpired):
                proc.wait(timeout=max(0.05, deadline - time.monotonic()))
        self.kill()

    def _reap(self, timeout: float = 10.0) -> None:
        for proc in self.procs:
            with contextlib.suppress(subprocess.TimeoutExpired):
                proc.wait(timeout=timeout)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.survivors():
                return
            time.sleep(0.005)

    def survivors(self) -> List[int]:
        """Pids this group started that still run (zombies do not count)."""
        live = []
        for pid in sorted(self.seen):
            fields = _stat_fields(pid)
            if fields is not None and fields[0] != "Z":
                live.append(pid)
        return live


class Spawner:
    """Starts ``python -m repro serve`` processes for one run.

    Tracks every group it started so :meth:`close` can kill whatever a
    failed phase left behind and report any survivor.
    """

    def __init__(self, placement: Placement, work: WorkDir) -> None:
        self.placement = placement
        self.work = work
        self.groups: List[ServerGroup] = []
        self._serial = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )
        self.env["TMPDIR"] = str(work.sub("tmp"))
        self.env["PYTHONHASHSEED"] = "0"

    def boot(
        self, commands: Sequence[Sequence[str]], timeout: float = 60.0
    ) -> Tuple[ServerGroup, List[Tuple[str, int]]]:
        """Spawn one ``serve`` per argument list; wait for every ready file.

        Returns the group and each process's ``(host, port)``.  The
        ready files are polled every millisecond so that polling adds
        under 2 ms to a timed boot.
        """
        procs: List[subprocess.Popen] = []
        logs: List[pathlib.Path] = []
        ready_files: List[pathlib.Path] = []
        boot_dir = self.work.sub("boot")
        with self.placement.for_servers():
            for args in commands:
                self._serial += 1
                ready = boot_dir / f"ready-{self._serial}"
                log = boot_dir / f"serve-{self._serial}.log"
                with open(log, "wb") as sink:
                    procs.append(
                        subprocess.Popen(
                            [sys.executable, "-m", "repro", "serve", *args,
                             "--ready-file", str(ready)],
                            stdout=sink,
                            stderr=subprocess.STDOUT,
                            stdin=subprocess.DEVNULL,
                            env=self.env,
                            cwd=str(self.work.path),
                            start_new_session=True,
                        )
                    )
                logs.append(log)
                ready_files.append(ready)
        group = ServerGroup(procs, logs)
        self.groups.append(group)
        deadline = time.monotonic() + timeout
        addresses: List[Tuple[str, int]] = []
        for ready in ready_files:
            while True:
                try:
                    text = ready.read_text(encoding="utf-8")
                except OSError:
                    text = ""
                if text.endswith("\n"):
                    host, port = text.split()
                    addresses.append((host, int(port)))
                    break
                if not group.alive():
                    raise BenchError(f"serve exited at boot:\n{group.log_tail()}")
                if time.monotonic() > deadline:
                    group.kill()
                    raise BenchError(f"serve never became ready:\n{group.log_tail()}")
                time.sleep(0.001)
        return group, addresses

    def close(self) -> Dict[str, object]:
        """Kill everything still running; report survivors and leaks."""
        survivors: List[int] = []
        for group in self.groups:
            group.kill()
            survivors.extend(group.survivors())
        leaked = self.work.sweep_shm()
        self.work.remove()
        return {
            "surviving_pids": survivors,
            "shm_segments_unlinked": len(leaked),
            "work_dir_removed": not self.work.path.exists(),
        }
