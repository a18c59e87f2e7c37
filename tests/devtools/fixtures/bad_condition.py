"""REP001 fixture: a lock inversion taken through a ``threading.Condition``.

The rule tests register ``Router._lock`` at rank 50 and ``Server._lock``
at rank 40 (both RLocks).  ``Server._work`` is a Condition over the
router's lock, the way ``InferenceServer._work`` wraps
``BatchingRouter._lock``: holding it holds rank 50.
"""

import threading


class Router:
    def __init__(self):
        self._lock = threading.RLock()


class Server:
    def __init__(self):
        self._lock = threading.RLock()
        self.router = Router()
        self._work = threading.Condition(self.router._lock)

    def inverted(self):
        with self._work:  # holds Router._lock (rank 50)...
            with self._lock:  # REP001: rank 40 while holding rank 50
                pass

    def waits_on_its_own_condition(self):  # no findings: wait() releases
        with self._work:
            self._work.wait()

    def well_ordered(self):  # no findings: ascending rank
        with self._lock:
            with self._work:
                pass
