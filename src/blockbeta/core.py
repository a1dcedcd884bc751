"""Block geometry of ball products and growth-rate prediction.

A container is the product B_2^{d_1} x ... x B_2^{d_m} of Euclidean
unit balls, sitting inside R^d with d = d_1 + ... + d_m.  Its gauge is
the blockwise max norm max_i ||x^(i)||_2, and its support function is
the sum of the block norms.  The expected facet count of the convex
hull of n beta-weighted samples grows like

    n^((k_max - 1)/(k_max + 1)) * (ln n)^(#argmax - 1)

where k_i = (d_i + beta_i)/(1 + beta_i) is the beta-adjusted dimension
of block i.  Everything here is exact bookkeeping; no simulation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

# Relative tolerance for k_i ties when beta weights are floats.  Exact
# rational comparison is used whenever every weight is an int/Fraction.
TIE_REL_TOL = 1e-12


def as_int(x, what: str, least: int | None = None) -> int:
    """x as an int when it is an integral number (numpy integers and 1e5
    too) no smaller than least, if given; a bool, a fraction, a smaller
    number or anything else raises ValueError, never truncated."""
    integral = (isinstance(x, numbers.Integral) and not isinstance(x, bool)
                or isinstance(x, float) and x.is_integer())
    if not integral or (least is not None and int(x) < least):
        floor = "" if least is None else f" >= {least}"
        raise ValueError(f"{what} must be an integer{floor}, got {x!r}")
    return int(x)


def beta_floats(betas) -> list[float]:
    """The beta weights as floats, each finite and > -1; anything else
    raises ValueError."""
    floats = [float(b) for b in betas]
    if not all(math.isfinite(b) and b > -1.0 for b in floats):
        raise ValueError(f"beta weights must be finite and exceed -1, got {floats}")
    return floats


@dataclass(frozen=True)
class BlockStructure:
    """Dimensions (d_1, ..., d_m) of the ball factors, each >= 1."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(as_int(d, "block dimension", least=1) for d in self.dims)
        if len(dims) == 0:
            raise ValueError("need at least one block")
        object.__setattr__(self, "dims", dims)

    @property
    def m(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return sum(self.dims)


@dataclass(frozen=True)
class BetaParams:
    """One finite weight beta_i > -1 per block.

    Weights may be ints, Fractions or floats.  Rational weights keep
    rate prediction exact; floats fall back to tolerance comparisons.
    """

    betas: tuple

    def __post_init__(self):
        betas = tuple(self.betas)
        if len(betas) == 0:
            raise ValueError("need at least one weight")
        beta_floats(betas)
        object.__setattr__(self, "betas", betas)

    @classmethod
    def uniform(cls, m: int) -> "BetaParams":
        return cls((0,) * m)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(b) for b in self.betas)


@dataclass(frozen=True)
class RatePrediction:
    """Predicted growth of the expected facet count.

    mean facet count ~ const * n**exponent * (ln n)**log_power
    """

    k: tuple[float, ...]
    exponent: float
    log_power: int


def _check_pair(bs: BlockStructure, bp: BetaParams):
    if bs.m != len(bp.betas):
        raise ValueError(
            f"{bs.m} blocks but {len(bp.betas)} beta weights"
        )


def _is_rational(b) -> bool:
    return isinstance(b, (int, Fraction)) and not isinstance(b, bool)


def predict_rate(bs: BlockStructure, bp: BetaParams) -> RatePrediction:
    """Facet-count growth rate for hulls of n beta-weighted samples.

    Requires beta_i >= 0.  Ties among the adjusted dimensions k_i are
    decided exactly when all weights are rational, else within
    TIE_REL_TOL; the tie count sets the log power.
    """
    _check_pair(bs, bp)
    if any(float(b) < 0 for b in bp.betas):
        raise ValueError("rate prediction requires nonnegative beta weights")

    exact = all(_is_rational(b) for b in bp.betas)
    num = Fraction if exact else float
    ks = [(num(d) + num(b)) / (1 + num(b)) for d, b in zip(bs.dims, bp.betas)]
    k_max = max(ks)
    tol = 0 if exact else TIE_REL_TOL * max(1.0, abs(k_max))
    count = sum(k_max - k <= tol for k in ks)
    exponent = float((k_max - 1) / (k_max + 1))
    k_float = tuple(float(k) for k in ks)

    return RatePrediction(k=k_float, exponent=exponent, log_power=count - 1)


def volume_deficit_rate(bs: BlockStructure) -> tuple[float, int]:
    """Decay rate of the expected relative volume deficit, uniform case.

    Returns (exponent, log_power) with exponent = -2/(d_max + 1) and
    log_power = (#blocks of dimension d_max) - 1.
    """
    d_max = max(bs.dims)
    count = bs.dims.count(d_max)
    return -2.0 / (d_max + 1.0), count - 1
