"""Outcome of a decision procedure: holds, fails with a witness, or inconclusive."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


def _refuse_digits(digits: float, what: str) -> None:
    """Refuse, before building it, a value whose estimated decimal digits
    reach Python's integer-to-string limit, past which no report prints."""
    limit = sys.get_int_max_str_digits()
    if limit and digits >= limit:
        raise ValueError(f"{what} would have more than {limit} digits")


def format_rational(x) -> str:
    """Render an exact value the way the CLI expects it ("p/q", or "p" if
    integral).  Every rational a report prints passes here, so this is the
    one check of Python's integer-to-string digit limit on printing: a part
    past it raises a one-line ValueError that says so."""
    f = Fraction(x)
    try:
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"
    except ValueError:
        raise ValueError(f"a value to print has more than {sys.get_int_max_str_digits()} "
                         "digits") from None


@dataclass(frozen=True)
class Verdict:
    """Result of an exact or certified check.

    A ``fails`` verdict always carries a witness (a coefficient index, an exact
    evaluation point, or an interval pair).  ``inconclusive`` only arises from
    enclosure-backed comparisons whose tolerance refinement bottomed out.
    """

    status: str
    witness: object = None
    margin: object = None

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    @property
    def fails(self) -> bool:
        return self.status == FAILS

    def to_json(self) -> dict:
        out = {"status": self.status}
        if self.witness is not None:
            out["witness"] = _jsonify(self.witness)
        if self.margin is not None:
            out["margin"] = _jsonify(self.margin)
        return out


def _jsonify(value):
    """JSON form of a report value: rationals as "p/q", tuples as lists,
    anything with `to_json` through it, None as null, the rest as text."""
    if value is None:
        return None
    if isinstance(value, (Fraction, int)):
        return format_rational(value)
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    if hasattr(value, "to_json"):
        return value.to_json()
    return str(value)
