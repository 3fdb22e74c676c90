"""Three-valued verdicts shared by the decision procedures.

CERTIFIED_YES and CERTIFIED_NO are only issued on the strength of an exact
computation or an exact certificate; a CERTIFIED_NO always carries a
checkable witness.  Monte Carlo evidence is reported as CERTIFIED_YES only
when the operation's contract says so, and is then flagged in `detail`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Callable


class Status(str, Enum):
    CERTIFIED_YES = "CERTIFIED_YES"
    CERTIFIED_NO = "CERTIFIED_NO"
    UNKNOWN = "UNKNOWN"


@dataclass
class Verdict:
    status: Status
    witness: Any = None
    detail: str = ""

    @property
    def is_yes(self) -> bool:
        return self.status is Status.CERTIFIED_YES

    @property
    def is_no(self) -> bool:
        return self.status is Status.CERTIFIED_NO

    @property
    def is_unknown(self) -> bool:
        return self.status is Status.UNKNOWN

    def __repr__(self) -> str:
        extra = f", detail={self.detail!r}" if self.detail else ""
        return f"Verdict({self.status.value}{extra})"


def certified_yes(witness: Any = None, detail: str = "") -> Verdict:
    return Verdict(Status.CERTIFIED_YES, witness, detail)


def certified_no(witness: Any = None, detail: str = "") -> Verdict:
    return Verdict(Status.CERTIFIED_NO, witness, detail)


def unknown(witness: Any = None, detail: str = "") -> Verdict:
    return Verdict(Status.UNKNOWN, witness, detail)


def frac_json(x: Fraction) -> str:
    """A certificate rational as JSON text: always "n/d", "n/1" for integers."""
    return f"{x.numerator}/{x.denominator}"


def frac_from_json(x: Any) -> Fraction:
    """A certificate rational read back from JSON: an int or a rational string.

    Floats, bools and null have no exact rational meaning here and raise
    ValueError; a float would round the value it stood for.
    """
    if type(x) is int or type(x) is str:
        return Fraction(x)
    raise ValueError(f"a rational must be a JSON integer or string, got {type(x).__name__}")


def str_from_json(x: Any) -> str:
    """A JSON string, such as a variable name or a polynomial; anything else raises ValueError."""
    if type(x) is str:
        return x
    raise ValueError(f"expected a JSON string, got {type(x).__name__}")


def array_from_json(x: Any, depth: int = 1, item: Callable[[Any], Any] = frac_from_json) -> list:
    """A JSON array nested depth levels deep, each innermost entry read by item.

    Every level must be a JSON array.  A string or an object in its place
    raises ValueError, where iterating it would read its characters or keys.
    """
    if type(x) is not list:
        raise ValueError(f"expected a JSON array, got {type(x).__name__}")
    if depth > 1:
        return [array_from_json(v, depth - 1, item) for v in x]
    return [item(v) for v in x]


def to_jsonable(obj: Any) -> Any:
    """Convert verdicts/fractions/tuples to plain JSON-ready structures."""
    if isinstance(obj, Verdict):
        return {
            "status": obj.status.value,
            "witness": to_jsonable(obj.witness),
            "detail": obj.detail,
        }
    if isinstance(obj, Fraction):
        return frac_json(obj)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "to_jsonable"):
        return obj.to_jsonable()
    return obj
