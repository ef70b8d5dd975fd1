"""A pool seam for the report/exit race: see a worker's exit before its report.

:class:`LateWaitContext` stands in for both the multiprocessing context the
pool forks from and the ``multiprocessing.connection.wait`` it blocks on.
Its first ``wait`` releases the workers (via ``go``), waits until every one
has reported and exited, and then returns only their sentinels: exactly a
worker that reports between the parent's look at its pipe and its look at
the process. The pool must read those reports rather than count the exits
as crashes.
"""

from multiprocessing import connection


class LateWaitContext:
    def __init__(self, real):
        self.real = real
        self.go = real.Event()
        self.processes = []
        self.fired = False

    def Process(self, *args, **kwargs):
        process = self.real.Process(*args, **kwargs)
        self.processes.append(process)
        return process

    def Pipe(self, duplex=True):
        return self.real.Pipe(duplex=duplex)

    def wait(self, objects, timeout=None):
        if self.fired:
            return connection.wait(objects, timeout)
        self.fired = True
        self.go.set()
        for process in self.processes:
            process.join(timeout=30)
            assert process.exitcode is not None, "worker did not finish"
        return [p.sentinel for p in self.processes if p.sentinel in objects]

    def install(self, monkeypatch):
        from repro.evalx import parallel

        monkeypatch.setattr(parallel, "_mp_context", lambda: self)
        monkeypatch.setattr(parallel, "_wait_ready", self.wait)
