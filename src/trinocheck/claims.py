"""Claim identifiers and check records shared by all congruence checkers."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ClaimId(str, enum.Enum):
    """Closed catalog of verifiable congruence claims.

    The string values are the stable wire names used by reports and the
    --claims CLI flag.  Declaration order is the canonical claim order used
    when sorting report records.
    """

    THM1_EQ2 = "Thm1_Eq2"
    THM1_EQ4 = "Thm1_Eq4"
    THM2_EQ6 = "Thm2_Eq6"
    THM2_EQ7 = "Thm2_Eq7"
    PROP3_EQ9 = "Prop3_Eq9"
    PROP3_EQ10 = "Prop3_Eq10"
    COR4_EQ11 = "Cor4_Eq11"
    TRIPLE_SUM_A = "TripleSum_a"
    BABBAGE = "Babbage"
    WOLSTENHOLME = "Wolstenholme"
    GLAISHER = "Glaisher"
    MORLEY = "Morley"
    CARLITZ = "Carlitz"
    HALF_ROW_BINOM = "HalfRowBinom"
    GL0 = "GL0"
    GL = "GL"
    GL2 = "GL2"
    CONG0 = "Cong0"
    CONG1 = "Cong1"
    C1B = "C1b"
    C1C = "C1c"
    C2B = "C2b"
    C2C = "C2c"
    C3 = "C3"
    C3B = "C3b"
    H0 = "H0"
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Canonical position of each claim in report ordering.
CLAIM_ORDER: dict[ClaimId, int] = {c: i for i, c in enumerate(ClaimId)}


@dataclass(slots=True)
class CheckResult:
    """One congruence instance: lhs and rhs are canonical residues mod `modulus`.

    `passed` is total (never unknown) and holds iff lhs == rhs.  `n` and `k`
    are None for claims that do not take that parameter.
    """

    claim: ClaimId
    p: int
    n: int | None
    k: int | None
    modulus: int
    lhs: int
    rhs: int
    passed: bool


def result(
    claim: ClaimId,
    p: int,
    modulus: int,
    lhs: int,
    rhs: int,
    *,
    n: int | None = None,
    k: int | None = None,
) -> CheckResult:
    """Build a CheckResult, deriving the pass flag from residue equality."""
    lhs, rhs = lhs % modulus, rhs % modulus
    return CheckResult(claim, p, n, k, modulus, lhs, rhs, lhs == rhs)


def record_sort_key(r: CheckResult) -> tuple[int, int, int, int]:
    """Deterministic report order: (p, n, claim, k), None sorting first."""
    return (
        r.p,
        -1 if r.n is None else r.n,
        CLAIM_ORDER[r.claim],
        -1 if r.k is None else r.k,
    )
