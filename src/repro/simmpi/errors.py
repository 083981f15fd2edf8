"""Exceptions raised by the SPMD substrate."""


class SimMPIError(Exception):
    """Base class for all substrate errors."""


class DeadlockError(SimMPIError):
    """A blocking receive or barrier did not complete within the timeout.

    In a correct SPMD program every ``recv`` is matched by a ``send`` and all
    ranks reach every collective; hitting this error in a test almost always
    means mismatched tags or a rank that exited early.
    """


class PeerFailedError(DeadlockError):
    """A barrier or receive was released because another rank failed first.

    A *secondary* failure: the rank that raises it did nothing wrong, it was
    waiting for a peer that raised (or timed out) and the world aborted the
    wait so the run fails fast.  The peer's own failure is the root
    cause; :class:`WorldError` leads with that one.
    """


class WorldError(SimMPIError):
    """One or more ranks raised inside :meth:`repro.simmpi.world.World.run`.

    The message leads with the lowest-rank *root* failure — the first one
    that is not a :class:`PeerFailedError` echo of somebody else's.

    Attributes
    ----------
    failures:
        Mapping of rank -> exception instance for every rank that failed.
    """

    def __init__(self, failures):
        self.failures = dict(failures)
        ranks = ", ".join(str(r) for r in sorted(self.failures))
        in_rank_order = [self.failures[r] for r in sorted(self.failures)]
        first = next(
            (f for f in in_rank_order if not isinstance(f, PeerFailedError)),
            in_rank_order[0],
        )
        super().__init__(
            f"{len(self.failures)} rank(s) failed (ranks {ranks}); "
            f"first failure: {first!r}"
        )


class RankCrashError(SimMPIError):
    """A process-backend rank died without reporting a result.

    Raised (inside a :class:`WorldError`) when a rank's OS process exits
    hard — killed by a signal, ``os._exit``, an interpreter abort — or when
    the exception it raised could not be transported back to the parent.
    The failure-injection machinery maps node deaths onto this error so a
    crashed rank surfaces as a diagnosable failure instead of a hang.
    """


class WindowError(SimMPIError):
    """Out-of-bounds or mis-sequenced one-sided window access."""
