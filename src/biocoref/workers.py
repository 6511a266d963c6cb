"""Worker processes forked from the ``resolve`` main process, on pipes.

``Pool`` forks its workers with ``os.fork()``, so each inherits the main
process's state, the resolver configuration among it, and nothing is sent
to start one. Each worker has a pipe for its tasks and a pipe for its
results. A message on either is a ``marshal`` blob after its length, 8
bytes little-endian: tasks and results hold only builtins that ``marshal``
handles, and both ends run the same interpreter. The main process runs no
thread but its main one. It sends and reads whatever each pipe takes or
holds, waiting on all of them at once with ``select.poll``, so a task and
results larger than a pipe holds are in flight both ways at once.

A worker exits when its task pipe ends, or when a write to its result
pipe fails because no one reads it any more, so none outlives the main
process by more than the task it is working on. One whose result pipe
ends while it holds tasks has exited on its own: it is reaped, each
document of those tasks fails with ``"WorkerExited: exit status <n>"`` or
``"WorkerExited: killed by <SIGNAL>"``, and a new worker takes its place.

A worker collects garbage once per document, not by allocation count. As
it starts, it freezes what it inherited, which the collector then never
walks, and disables the automatic collector; ``serve`` runs one full
collection after each document, which takes microseconds for a small one
and under half a millisecond for a long one. Left to the allocation
count, a full collection landed in the middle of a long document's
resolve, where it walked the whole inherited heap, and a worker's second
long document peaked 1.2-1.4 MiB above its first; now the rise is 0.4-0.5
MiB (CHANGES.md records the measurements). The main process keeps the
interpreter's collector: at ``--jobs 1`` it is the caller's process,
whose heap is not this module's to freeze.
"""

from __future__ import annotations

import gc
import marshal
import os
import select
import signal
from collections import deque
from functools import partial
from itertools import chain
from typing import Callable

_HEADER = 8  # bytes of the length before each message
_READ_SIZE = 1 << 16  # bytes per read of a result pipe


def serve(work: Callable[[list], list], tasks: int, results: int) -> None:
    """A worker's loop: read each task from the pipe ``tasks``, hand its
    documents to ``work`` one at a time, each as a task of its own, with a
    full garbage collection after each, and write the task's results to the
    pipe ``results``, until ``tasks`` ends."""
    with open(tasks, "rb") as reader, open(results, "wb") as writer:
        while header := reader.read(_HEADER):
            task = marshal.loads(reader.read(int.from_bytes(header, "little")))
            task.reverse()
            done = []
            while task:
                # Popped into a list of its own, which holds the document's
                # only reference, so that ``work`` can drop it.
                done += work([task.pop()])
                gc.collect()
            data = marshal.dumps(done)
            del done
            writer.write(len(data).to_bytes(_HEADER, "little"))
            writer.write(data)
            writer.flush()
            del data  # sent: not held while the next task is worked on


class _Task:
    """A task sent to a worker: how many documents it holds, and their
    results once they are read."""

    __slots__ = ("size", "results")

    def __init__(self, size: int) -> None:
        self.size = size
        self.results: list | None = None


class _Worker:
    """A worker as the main process sees it: its pid, the main process's
    non-blocking ends of its task and result pipes, the bytes not yet sent to
    it, the tasks sent and not yet answered, in the order it works on them,
    and the bytes of results read and not yet complete."""

    __slots__ = ("pid", "tasks", "results", "out", "held", "inbox")

    def __init__(self, pid: int, tasks: int, results: int) -> None:
        self.pid = pid
        self.tasks = tasks
        self.results = results
        self.out: deque = deque()
        self.held: deque[_Task] = deque()
        self.inbox = bytearray()


class Pool:
    """Forked workers that each call ``work`` on the tasks sent to it, one
    document at a time (see ``serve``). A task is a list of documents, and
    ``work`` returns one result for each: ``(output, counters, error)``,
    the shape of a document's failure, too."""

    def __init__(self, work: Callable[[list], list]) -> None:
        self.work = work
        self.workers: list[_Worker] = []

    def start(self, jobs: int) -> None:
        """Fork ``jobs`` workers. The main process must have no other thread."""
        for _ in range(jobs):
            self.workers.append(self._fork())

    def _fork(self) -> _Worker:
        task_read, task_write = os.pipe()
        result_read, result_write = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # A pipe end left open here would keep its pipe from ending
                # when the main process closes it.
                for fd in chain(*((w.tasks, w.results) for w in self.workers),
                                (task_write, result_read)):
                    os.close(fd)
                gc.freeze()  # what the worker inherited is never collected
                gc.disable()  # serve collects after each document instead
                serve(self.work, task_read, result_write)
                code = 0
            finally:  # nothing of the main process's runs in a worker
                os._exit(code)
        os.close(task_read)
        os.close(result_write)
        os.set_blocking(task_write, False)
        os.set_blocking(result_read, False)
        return _Worker(pid, task_write, result_read)

    def submit(self, task: list) -> Callable[[], list]:
        """Send ``task`` to the worker that holds the fewest, and return the
        call that waits for its results. ``task`` is emptied once it is
        marshalled, so that the caller's list does not hold its documents
        while their bytes wait for the pipe and their results are awaited."""
        worker = min(self.workers, key=lambda w: len(w.held))
        data = marshal.dumps(task)
        held = _Task(len(task))  # before the list is emptied: a dead worker fails this many
        task.clear()
        worker.out += (len(data).to_bytes(_HEADER, "little"), data)
        worker.held.append(held)
        self._send(worker)
        return partial(self._get, held)

    def _get(self, task: _Task) -> list:
        while task.results is None:
            self._step()
        return task.results

    def _step(self) -> None:
        """Wait until a pipe is ready, then send and read what it takes."""
        poll = select.poll()
        for worker in self.workers:
            poll.register(worker.results, select.POLLIN)
            if worker.out:
                poll.register(worker.tasks, select.POLLOUT)
        ready = {fd for fd, _ in poll.poll()}
        for worker in list(self.workers):
            if worker.tasks in ready:
                self._send(worker)
            if worker.results in ready and not self._receive(worker):
                self._replace(worker)

    def _send(self, worker: _Worker) -> None:
        out = worker.out
        while out:
            try:
                sent = os.write(worker.tasks, out[0])
            except BlockingIOError:
                return
            except BrokenPipeError:  # it has exited; its result pipe ends too
                out.clear()
                return
            if sent < len(out[0]):
                out[0] = memoryview(out[0])[sent:]
            else:
                out.popleft()

    def _receive(self, worker: _Worker) -> bool:
        """Read all that ``worker`` has written and hand out each complete
        result; False once its result pipe has ended."""
        ended = False
        while not ended:
            try:
                data = os.read(worker.results, _READ_SIZE)
            except BlockingIOError:
                break
            ended = not data
            worker.inbox += data
        inbox = worker.inbox
        while len(inbox) >= _HEADER:
            end = _HEADER + int.from_bytes(inbox[:_HEADER], "little")
            if len(inbox) < end:
                break
            worker.held.popleft().results = marshal.loads(memoryview(inbox)[_HEADER:end])
            del inbox[:end]
        return not ended

    def _replace(self, worker: _Worker) -> None:
        os.close(worker.tasks)
        os.close(worker.results)
        _, status = os.waitpid(worker.pid, 0)
        code = os.waitstatus_to_exitcode(status)
        error = "WorkerExited: " + (f"exit status {code}" if code >= 0 else
                                    f"killed by {signal.Signals(-code).name}")
        for task in worker.held:
            task.results = [(None, None, error)] * task.size
        # Taken out before the fork, so that the new worker closes no pipe end twice.
        index = self.workers.index(worker)
        del self.workers[index]
        self.workers.insert(index, self._fork())

    def stop(self) -> None:
        """Close every pipe, kill each worker that still holds a task, and
        reap them all; an idle worker exits when its task pipe ends."""
        for worker in self.workers:
            os.close(worker.tasks)
            os.close(worker.results)
            if worker.held:
                os.kill(worker.pid, signal.SIGKILL)
        for worker in self.workers:
            os.waitpid(worker.pid, 0)
