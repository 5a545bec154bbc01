"""Start, probe, measure and stop ``fpzc`` server subprocesses.

Servers log to files in the run's work directory (never to a pipe, which
could fill and block them) and are always stopped with SIGTERM -- the
program's drain path -- and waited for; SIGKILL only after the drain
budget runs out.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["SRC", "Server", "free_port", "stop_all", "tree_hwm_mb"]

#: The program under test: ``src/`` of the checkout holding this file.
SRC = Path(__file__).resolve().parent.parent / "src"

_ENTRY = (
    "import sys; from repro.cli.main import main; "
    "sys.exit(main(sys.argv[1:]))"
)


def free_port() -> int:
    """A TCP port on 127.0.0.1 that was free a moment ago."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One ``fpzc`` subprocess (``serve`` or ``cluster serve``)."""

    def __init__(self, args: List[str], workdir: Path, name: str):
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        self.name = name
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONUNBUFFERED"] = "1"
        self.log_path = workdir / f"{name}.log"
        self._log = open(self.log_path, "wb")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _ENTRY, *args, "--port", str(self.port)],
            env=env,
            cwd=str(workdir),
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def client(self, timeout: float = 120.0):
        from repro.service.client import ServiceClient

        return ServiceClient(self.url, timeout=timeout, retry_429=0)

    def wait_ready(self, budget_s: float = 60.0) -> float:
        """Poll ``/readyz`` until 200; returns seconds since spawn.
        Raises ``RuntimeError`` when the process dies or the budget runs
        out (its log tail is in the message)."""
        from repro.errors import TransportError
        from repro.service.client import ServiceError

        client = self.client(timeout=5.0)
        deadline = self.t_spawn + budget_s
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"{self.name} exited with {self.proc.returncode}: "
                    f"{self.log_tail()}"
                )
            try:
                if client.readyz():
                    return time.perf_counter() - self.t_spawn
            except (ServiceError, TransportError):
                pass
            time.sleep(0.02)
        raise RuntimeError(f"{self.name} not ready after {budget_s:g}s")

    def log_tail(self, n: int = 800) -> str:
        try:
            return self.log_path.read_bytes()[-n:].decode(errors="replace")
        except OSError:
            return ""

    def stop(self, timeout_s: float = 30.0) -> Optional[int]:
        """SIGTERM (drain), wait; SIGKILL if the drain overruns."""
        return stop_all([self], timeout_s)[0]


def stop_all(servers: List[Server], timeout_s: float = 30.0) -> List[Optional[int]]:
    """Drain several servers at once: SIGTERM to all, then wait for each
    (SIGKILL if its drain overruns)."""
    for server in servers:
        if server.proc.poll() is None:
            server.proc.send_signal(signal.SIGTERM)
    codes = []
    for server in servers:
        try:
            rc = server.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            server.proc.kill()
            rc = server.proc.wait(timeout=timeout_s)
        server._log.close()
        codes.append(rc)
    return codes


def _children() -> Dict[int, List[int]]:
    out: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read().decode(errors="replace")
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        out.setdefault(ppid, []).append(int(entry))
    return out


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_hwm_mb(pids: List[int]) -> float:
    """Sum of peak resident set sizes (VmHWM) of ``pids`` and all their
    descendants, in MB: the peak memory of the processes doing the work.
    Read before the processes exit."""
    children = _children()
    seen = set()
    stack = list(pids)
    total_kb = 0
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.add(pid)
        total_kb += _hwm_kb(pid)
        stack.extend(children.get(pid, ()))
    return total_kb * 1024 / 1e6
