"""Parameter bundles for the blow-up overlay construction.

All logarithms are natural. Derived mode evaluates the asymptotic formulas

    N = round(n / ln(n)^2)      base graph order
    p = beta * sqrt(ln(n) / n)  base edge probability
    k = ceil(kappa * sqrt(n ln n))  independence target

together with the size cutoffs t1 = sqrt(n ln n)/ln(ln n), t2 = n^(1/4+eps),
t3 = n^(2 eps) used to stratify closed-pair diagnostics.  Explicit mode takes
(n, N, p, k) verbatim for desk-scale experiments where the formulas degenerate.

Conventions pinned here (computed from epsilon; a record must agree):
eps1 = eps^3, eps2 = eps^6, C = 3 sqrt(20); N rounds to nearest, k rounds up.

Note on N^2 >= n: the injection of n vertices into the N x N cell grid exists
only when N^2 >= n.  Derived mode returns the formula values even when the
grid is too small (at n = 100 the formulas give N = 5), and the build step is
where the requirement is enforced; explicit mode rejects N^2 < n up front.
Use feasible_params for a buildable bundle at any n >= 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar

__all__ = [
    "Params",
    "derive_params",
    "explicit_params",
    "feasible_params",
    "C_CONST",
]

# constant in the pairwise-intersection bounds of the concentration report
C_CONST = 3.0 * math.sqrt(20.0)

EPS_RULE = "eps1 = epsilon**3; eps2 = epsilon**6"
ROUNDING_RULE = "N = round(n/ln(n)^2), k = ceil(kappa*sqrt(n*ln(n)))"
# a record's keys, in the order it writes them; eps1, eps2 and C are computed
_RECORD_KEYS = ("n", "N", "p", "k", "epsilon", "eps1", "eps2", "beta",
                "kappa", "t1", "t2", "t3", "C", "mode")


@dataclass(frozen=True)
class Params:
    """Immutable parameter bundle shared by every pipeline stage."""

    n: int          # final vertex count
    N: int          # base graph order (one blow-up side)
    p: float        # base edge probability
    k: int          # independent-set size under test
    epsilon: float  # slack parameter
    beta: float     # p = beta * sqrt(ln n / n); implied value in explicit mode
    kappa: float    # k = ceil(kappa * sqrt(n ln n)); implied in explicit mode
    t1: float       # huge/large size cutoff
    t2: float       # large/medium cutoff
    t3: float       # medium/small cutoff
    mode: str = "derived"
    C: ClassVar[float] = C_CONST

    @property
    def eps1(self) -> float:  # coarse slack
        return self.epsilon ** 3

    @property
    def eps2(self) -> float:  # fine slack
        return self.epsilon ** 6

    @property
    def injectable(self) -> bool:
        """Whether n vertices fit injectively into the N x N grid."""
        return self.N * self.N >= self.n

    @property
    def pn(self) -> float:
        return self.p * self.n

    @property
    def pN(self) -> float:
        return self.p * self.N

    @property
    def log2n(self) -> float:
        return math.log(self.n) ** 2

    def require_injectable(self) -> None:
        if not self.injectable:
            raise ValueError("grid too small for injection: "
                             f"N^2 = {self.N * self.N} < n = {self.n}")

    def to_dict(self) -> dict:
        """Flat record, suitable for JSON sidecars and CSV provenance."""
        d = {key: getattr(self, key) for key in _RECORD_KEYS}
        d["convention_eps"] = EPS_RULE
        d["convention_rounding"] = ROUNDING_RULE
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Params":
        # re-check all but grid capacity (a derived record may describe a
        # non-injectable bundle); eps1, eps2 and C, and a derived or clamped
        # record's formula values, match up to ** rounding
        par = _validate(cls(**{f.name: d[f.name] for f in fields(cls)}))
        for key in ("eps1", "eps2", "C"):
            if not math.isclose(d[key], getattr(par, key), rel_tol=1e-12):
                raise ValueError(f"{key} = {d[key]} is not the convention's "
                                 f"{getattr(par, key)}")
        if par.mode != "explicit":
            want = derive_params(par.n, par.epsilon, par.beta, par.kappa)
            if par.mode == "clamped":
                want = replace(want, N=math.ceil(math.sqrt(par.n)))
            for key in ("N", "k", "p", "t1", "t2", "t3"):
                got, formula = getattr(par, key), getattr(want, key)
                tol = 0.0 if key in ("N", "k") else 1e-12
                if not math.isclose(got, formula, rel_tol=tol):
                    raise ValueError(f"{key} = {got} is not the {par.mode} "
                                     f"formula's {formula}")
        return par


def _validate(par: Params) -> Params:
    """par, after the checks every bundle passes; grid capacity is not one."""
    if par.mode not in ("derived", "clamped", "explicit"):
        raise ValueError(f"mode = {par.mode!r} is not derived, clamped or "
                         "explicit")
    if par.n < 1:
        raise ValueError(f"n = {par.n} must be positive")
    if par.N < 2:
        raise ValueError(f"N = {par.N} < 2")
    # p = 0 is a legitimate explicit degenerate case (empty base graphs);
    # the derived formula is always strictly positive.
    if not (0.0 <= par.p <= 1.0):
        raise ValueError(f"p = {par.p} outside [0, 1]")
    if par.mode != "explicit" and par.p <= 0.0:
        raise ValueError(f"p = {par.p} must be positive in {par.mode} mode")
    if not (1 <= par.k <= par.n):
        raise ValueError(f"k = {par.k} outside [1, n = {par.n}]")
    if not (0.0 < par.epsilon < 1.0):
        raise ValueError(f"epsilon = {par.epsilon} outside (0, 1)")
    if not (par.t3 < par.t2 < par.t1 < par.k):
        raise ValueError(
            f"cutoff chain violated: need t3 < t2 < t1 < k, "
            f"got ({par.t3}, {par.t2}, {par.t1}, {par.k})")
    return par


def derive_params(n: int, epsilon: float = 0.1, beta: float = 0.5,
                  kappa: float | None = None) -> Params:
    """Evaluate the asymptotic formulas at n.

    kappa defaults to 1 + epsilon.  Requires n >= 100 so that ln(ln n) is
    comfortably positive; smaller experiments should use explicit_params.
    """
    if n < 100:
        raise ValueError(f"derived mode needs n >= 100, got {n}")
    # before the cutoffs: n ** (0.25 + epsilon) overflows at a large epsilon
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon = {epsilon} outside (0, 1)")
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta = {beta} outside (0, 1)")
    if kappa is None:
        kappa = 1.0 + epsilon
    if not (1.0 <= kappa < math.inf):  # NaN and inf fail: k must be an int
        raise ValueError(f"kappa = {kappa} must be finite and >= 1")
    ln = math.log(n)
    par = Params(
        n=n,
        N=round(n / ln ** 2),
        p=beta * math.sqrt(ln / n),
        k=math.ceil(kappa * math.sqrt(n * ln)),
        epsilon=epsilon,
        beta=beta,
        kappa=kappa,
        t1=math.sqrt(n * ln) / math.log(ln),
        t2=n ** (0.25 + epsilon),
        t3=n ** (2.0 * epsilon),
        mode="derived",
    )
    return _validate(par)


def explicit_params(n: int, N: int, p: float, k: int,
                    epsilon: float = 0.1) -> Params:
    """Take (n, N, p, k) verbatim; for desk-scale instances.

    The cutoffs are fixed at (3/4, 1/2, 1/4) * k because the asymptotic
    formulas break the chain t1 < k at small n; a record with other cutoffs
    reads through Params.from_dict.  beta and kappa are back-solved from p
    and k for provenance (NaN when n is too small to define them).
    """
    ln = math.log(n) if n >= 2 else 0.0
    beta = p * math.sqrt(n / ln) if ln > 0 else math.nan
    kappa = k / math.sqrt(n * ln) if ln > 0 else math.nan
    par = Params(
        n=n, N=N, p=p, k=k, epsilon=epsilon, beta=beta, kappa=kappa,
        t1=0.75 * k, t2=0.50 * k, t3=0.25 * k, mode="explicit",
    )
    _validate(par).require_injectable()
    return par


def feasible_params(n: int, epsilon: float = 0.1, beta: float = 0.5,
                    kappa: float | None = None) -> Params:
    """Derived formulas with N raised to ceil(sqrt(n)) when the grid is short.

    round(n/ln^2 n)^2 < n for n below roughly 5.5e3, so plain derived bundles
    cannot host the injection there.  This keeps p, k and the cutoffs on the
    formulas and only lifts N to the minimum feasible order, recording
    mode="clamped".  At n where the formulas are already feasible the result
    equals derive_params(n, ...).
    """
    par = derive_params(n, epsilon=epsilon, beta=beta, kappa=kappa)
    if par.injectable:
        return par
    clamped = replace(par, N=math.ceil(math.sqrt(n)), mode="clamped")
    _validate(clamped).require_injectable()
    return clamped
