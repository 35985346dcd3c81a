"""A test-side view of report records: one tuple per check instance.

A CheckResult holds all instances of one (claim, p, n) in its lhs/rhs lists;
the tests read them one instance at a time, with k counted from the
record's first index, exactly as the report prints them.
"""

from typing import NamedTuple


class Instance(NamedTuple):
    claim: object
    p: int
    n: int | None
    k: int | None
    modulus: int
    lhs: int
    rhs: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def expand(records):
    """Every instance of `records`, in record order."""
    return [
        Instance(r.claim, r.p, r.n, None if r.k is None else r.k + i, r.modulus, a, b)
        for r in records
        for i, (a, b) in enumerate(zip(r.lhs, r.rhs, strict=True))
    ]
