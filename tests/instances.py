"""A test-side view of report records: one tuple per check instance.

A CheckResult holds all instances of one (claim, p, n) in its lhs/rhs lists;
the tests read them one instance at a time, with k counted from the
record's first index, exactly as the report prints them.  The checker
helpers look claims up in, and swap fakes into, the checker table, whose
every checker is run(ctx, nmax).
"""

from typing import NamedTuple

from trinocheck.congruences import CHECKERS, ClaimId


#: The claims whose records carry n; every other claim's records have n None.
CLAIMS_WITH_N = frozenset({
    ClaimId.THM1_EQ2, ClaimId.THM1_EQ4, ClaimId.PROP3_EQ9, ClaimId.PROP3_EQ10,
    ClaimId.COR4_EQ11, ClaimId.TRIPLE_SUM_A, ClaimId.GLAISHER,
})


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


def checker_of(claim):
    """The checker whose CHECKERS entry emits `claim`."""
    [run] = [run for run, claims in CHECKERS.items() if claim in claims]
    return run


def records_of(claim, ctx, n=None):
    """The records of `claim` alone, at `n` (None for a claim without n),
    from the checker that emits it, run to nmax = n (1 when n is None)."""
    records = checker_of(claim)(ctx, n or 1)
    return [r for r in records if r.claim is claim and r.n == n]


def replace_checker(monkeypatch, checker, fake):
    """Run `fake` in `checker`'s place, with its entry's claims, until the
    test ends."""
    claims = CHECKERS[checker]
    monkeypatch.delitem(CHECKERS, checker)
    monkeypatch.setitem(CHECKERS, fake, claims)
