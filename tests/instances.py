"""A test-side view of report records: one tuple per check instance.

A CheckResult holds all instances of one (claim, p, n) in its lhs/rhs lists;
the tests read them one instance at a time, with k counted from the
record's first index, exactly as the report prints them.  The checker
helpers look claims up in, and swap fakes into, the checker table.
"""

from typing import NamedTuple

from trinocheck.congruences import CHECKERS


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
    """(checker, per_n) of the CHECKERS entry that emits `claim`; per_n means
    the checker takes nmax and returns records for n = 1..nmax."""
    [entry] = [(run, per_n) for run, (per_n, claims) in CHECKERS.items() if claim in claims]
    return entry


def replace_checker(monkeypatch, checker, fake):
    """Run `fake` in `checker`'s place, with its entry's per_n and claims,
    until the test ends."""
    entry = CHECKERS[checker]
    monkeypatch.delitem(CHECKERS, checker)
    monkeypatch.setitem(CHECKERS, fake, entry)
