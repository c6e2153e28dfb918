"""Shared exception types.

A budget a caller sets counts search nodes, never wall-clock, so results
are machine-independent. A fixed limit on an enumeration (inner pairs,
retries, copies) is a constant of its module, not a parameter. Running
past either is always a distinct outcome, raised as
:class:`BudgetExceeded` rather than silently returned as a negative
answer.
"""


class BudgetExceeded(Exception):
    """A solver ran out of its node budget, or an enumeration reached its
    module's fixed limit.

    Attributes carry whatever partial information the search proved before
    stopping (e.g. a lower bound), so callers can report honestly.
    """

    def __init__(self, message, **info):
        super().__init__(message)
        self.info = dict(info)


class AuditError(Exception):
    """An internal structural audit failed.

    Raised loudly when a construction violates a property it is supposed
    to guarantee (e.g. a clique family that is not edge-disjoint).
    """
