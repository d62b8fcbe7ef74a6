"""Server processes: start in a fresh session, measure, tear down hard.

Each server runs as the leader of its own session, so the session id
names every process it forks (cluster workers, the multiprocessing
resource tracker).  Teardown sends SIGINT (the service's clean shutdown,
which takes a final checkpoint), then SIGKILLs the whole process group,
and fails if any process of the session is still alive: a leftover
worker polling its ring would skew every later run.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import time

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class LeftoverProcessError(RuntimeError):
    """A process of a torn-down server session survived SIGKILL."""


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii", errors="replace") as fh:
            text = fh.read()
    except OSError:
        return None
    # The command name may contain spaces; fields resume after its ')'.
    return text[text.rindex(")") + 2 :].split()


def session_pids(session: int) -> list[int]:
    """Live (non-zombie) processes whose session id is ``session``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is None or fields[0] == "Z":
            continue
        if int(fields[3]) == session:
            found.append(int(entry))
    return found


class ServerProcess:
    """One ``repro.service`` process tree started by the benchmark."""

    def __init__(
        self, argv: list[str], *, env: dict, cwd: str, log_path: str
    ) -> None:
        self.argv = argv
        self.env = env
        self.cwd = cwd
        self.log_path = log_path
        self.port = free_port()
        self.proc: subprocess.Popen | None = None
        self.started_at = 0.0

    def start(self) -> None:
        with open(self.log_path, "ab") as log:
            self.started_at = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv + ["--host", "127.0.0.1", "--port", str(self.port)],
                env=self.env,
                cwd=self.cwd,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    async def wait_ready(self, connect, timeout: float = 60.0):
        """Poll until the server answers ``PING``; returns the client.

        ``connect(port)`` opens a client.  Gives up when the process
        exits or ``timeout`` passes.
        """
        deadline = time.perf_counter() + timeout
        while True:
            if self.proc is not None and self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} during start-up; "
                    f"see {self.log_path}"
                )
            try:
                client = await connect(self.port)
            except OSError:
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"server not ready after {timeout}s") from None
                await asyncio.sleep(0.005)
                continue
            if await client.ping():
                return client
            raise RuntimeError("server answered PING with something else")

    def cpu_seconds(self) -> float:
        """User + system CPU of every live process in the session."""
        total = 0
        for pid in session_pids(self.pid):
            fields = _stat_fields(pid)
            if fields is not None:
                total += int(fields[11]) + int(fields[12])
        return total / CLOCK_TICKS

    def rss_peak_mb(self) -> float:
        """VmHWM summed over the session's live processes, in MB."""
        total_kb = 0
        for pid in session_pids(self.pid):
            try:
                with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0

    def crash(self) -> None:
        """SIGKILL the whole process group (a power-cut style crash)."""
        if self.proc is None:
            return
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)
        self._reap_session()

    def stop(self, grace: float = 10.0) -> int | None:
        """SIGINT, wait up to ``grace`` seconds, then SIGKILL the group.

        Returns the server's exit status (``None`` if it had to be
        killed).  Raises :class:`LeftoverProcessError` when any process
        of the session outlives the kill.
        """
        if self.proc is None:
            return None
        status = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                status = self.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                status = None
        else:
            status = self.proc.returncode
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)
        self._reap_session()
        return status

    def _reap_session(self) -> None:
        deadline = time.perf_counter() + 10.0
        while True:
            survivors = session_pids(self.pid)
            if not survivors:
                return
            if time.perf_counter() > deadline:
                raise LeftoverProcessError(
                    f"processes {survivors} of server session {self.pid} "
                    "survived SIGKILL"
                )
            time.sleep(0.02)
