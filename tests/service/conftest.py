"""Shared fixtures for the service tests.

Every daemon here runs its units the way production does: each attempt
in a supervised forked child.  Closure state does not cross ``fork`` —
a ``threading.Event`` set by the test never reaches the child, and a
list the child appends to stays in the child — so injected runners
coordinate with the test through :class:`Marks`, small files in a
per-test directory, and the :func:`no_orphan_children` fixture checks
that no test leaves a unit child behind.
"""

import glob
import os
import signal
import time

import pytest

#: How long a gate wait or the orphan check polls before giving up.
WAIT_S = 15.0
POLL_S = 0.02


class Marks:
    """Fork-safe gates, one-shot claims and logs backed by files.

    Every operation is a single file-system call (``O_EXCL`` create,
    ``O_APPEND`` write, existence test), so the test process and any
    number of unit children see one consistent state.
    """

    def __init__(self, root):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def claim(self, name: str) -> bool:
        """True for exactly one caller across all processes."""
        try:
            fd = os.open(self._path(name),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def set(self, name: str) -> None:
        with open(self._path(name), "a"):
            pass

    def wait(self, name: str, timeout_s: float = WAIT_S) -> bool:
        """Poll until ``name`` is set; False on timeout."""
        deadline = time.monotonic() + timeout_s
        while not os.path.exists(self._path(name)):
            if time.monotonic() > deadline:
                return False
            time.sleep(POLL_S)
        return True

    def append(self, name: str, value) -> None:
        """Append one value to the log ``name`` (atomic per line)."""
        fd = os.open(self._path(name),
                     os.O_CREAT | os.O_APPEND | os.O_WRONLY)
        try:
            os.write(fd, f"{value}\n".encode())
        finally:
            os.close(fd)

    def values(self, name: str) -> list:
        """Every value appended to ``name``, in order, as strings."""
        try:
            with open(self._path(name)) as fh:
                return fh.read().split()
        except FileNotFoundError:
            return []


@pytest.fixture
def marks(tmp_path):
    return Marks(tmp_path / "marks")


def child_pids() -> set:
    """PIDs of this process's children, live or not yet reaped."""
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as fh:
                pids.update(int(p) for p in fh.read().split())
        except FileNotFoundError:
            pass  # the thread exited between the glob and the read
    return pids


@pytest.fixture(autouse=True)
def no_orphan_children():
    """Fail a test that leaves a child process it started running.

    Children that already existed when the test started are not its
    own and are ignored.  A leftover child is killed before the
    failure is reported, so one leak does not cascade into later tests.
    """
    before = child_pids()
    yield
    deadline = time.monotonic() + 1.0
    leftover = child_pids() - before
    while leftover and time.monotonic() < deadline:
        time.sleep(POLL_S)
        leftover = child_pids() - before
    for pid in leftover:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):
            pass  # reaped by its own supervisor meanwhile
    assert not leftover, f"test left child processes running: {leftover}"
