"""Exact scalar arithmetic over the rationals and prime fields GF(p).

Scalars are plain Python values: `fractions.Fraction` over Q, and canonical
residues (`int` in [0, p)) over GF(p).  A `FieldSpec` carries the coercion,
arithmetic, parsing, and formatting rules so higher layers never branch on
the field kind themselves.  Two scalars are equal iff their canonical forms
are equal, which makes subspace equality structural later on.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterator, Union

from .errors import FieldError

Scalar = Union[Fraction, int]

# Prime moduli are capped so products of two residues fit in int64 for the
# vectorized row operations in linalg.
MAX_PRIME = 2**31 - 1


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Either the rationals (kind "Q") or a prime field (kind "GFp")."""

    kind: str
    p: int = 0
    # the constants 0 and 1, made once: outside equality, hash and repr
    zero: Scalar = dc_field(init=False, compare=False, repr=False)
    one: Scalar = dc_field(init=False, compare=False, repr=False)

    # --- constructors -----------------------------------------------------

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("Q")

    @staticmethod
    def gf(p: int) -> "FieldSpec":
        return FieldSpec("GFp", p)

    def __post_init__(self) -> None:
        p = self.p
        if self.kind == "Q":
            if p != 0:
                raise FieldError(f"Q takes no modulus, got {p!r}")
        elif self.kind == "GFp":
            # the bound first, so no huge p is trial-divided
            if isinstance(p, int) and p > MAX_PRIME:
                raise FieldError(f"modulus {p} exceeds supported bound {MAX_PRIME}")
            if not isinstance(p, int) or not _is_prime(p):
                raise FieldError(f"GF(p) needs a prime modulus, got {p!r}")
        else:
            raise FieldError(f"unknown field kind {self.kind!r}")
        q = self.kind == "Q"
        object.__setattr__(self, "zero", Fraction(0) if q else 0)
        object.__setattr__(self, "one", Fraction(1) if q else 1)

    # --- basic properties -------------------------------------------------

    @property
    def is_rationals(self) -> bool:
        return self.kind == "Q"

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == "Q" else self.p

    def __str__(self) -> str:
        return "Q" if self.kind == "Q" else f"GF({self.p})"

    # --- scalar construction ---------------------------------------------

    def coerce(self, x) -> Scalar:
        """Canonicalize an int, Fraction, or scalar string into this field."""
        if type(x) is int:
            return x % self.p if self.p else Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise FieldError(f"cannot coerce {x!r} into {self}")
        if self.kind == "Q":
            return Fraction(x)
        if isinstance(x, Fraction):
            return self.scalar(x.numerator, x.denominator)
        return x % self.p

    def scalar(self, num: int, den: int = 1) -> Scalar:
        """The canonical scalar num/den.  den must be invertible."""
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if self.kind == "Q":
            return Fraction(num, den)
        d = den % self.p
        if d == 0:
            raise ZeroDivisionError(f"denominator {den} is 0 in {self}")
        return (num * pow(d, -1, self.p)) % self.p

    def parse(self, text: str) -> Scalar:
        """Parse 'a' or 'a/b' (exact; also accepted over GF(p))."""
        s = text.strip()
        try:
            if "/" in s:
                a, b = s.split("/", 1)
                return self.scalar(int(a.strip()), int(b.strip()))
            return self.scalar(int(s))
        except ValueError as exc:
            raise FieldError(f"cannot parse scalar {text!r} over {self}") from exc

    def format(self, x: Scalar) -> str:
        """Canonical string: 'a' or 'a/b' over Q, least residue over GF(p)."""
        return str(x)

    # --- arithmetic -------------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) if self.kind == "Q" else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) if self.kind == "Q" else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) if self.kind == "Q" else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.kind == "Q" else (-a) % self.p

    # --- enumeration and sampling ----------------------------------------

    def elements(self) -> Iterator[Scalar]:
        """All field elements (finite fields only)."""
        if self.kind == "Q":
            raise FieldError("cannot enumerate Q")
        return iter(range(self.p))

    def random_scalar(self, rng, nonzero: bool = False) -> Scalar:
        if self.kind == "Q":
            while True:
                x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                if x != 0 or not nonzero:
                    return x
        while True:
            x = rng.randrange(self.p)
            if x != 0 or not nonzero:
                return x

    # --- characteristic-2 helper ------------------------------------------

    def omega(self) -> Scalar:
        """A fixed element outside {x^2 + x : x in F}; characteristic must be 2.

        Computed by enumeration, not hardcoded; over GF(2) this yields 1.
        """
        if self.characteristic != 2:
            raise FieldError(f"omega needs characteristic 2, not {self}")
        image = {self.add(self.mul(x, x), x) for x in self.elements()}
        for x in self.elements():
            if x not in image:
                return x
        raise FieldError(f"no element outside x^2+x over {self}")  # unreachable

    # --- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "Q":
            return {"kind": "Q"}
        return {"kind": "GFp", "p": self.p}

    @staticmethod
    def from_json(obj) -> "FieldSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise FieldError(f"bad field object {obj!r}")
        return FieldSpec(obj["kind"], obj.get("p", 0))


QQ = FieldSpec.rationals()
GF2 = FieldSpec.gf(2)
GF3 = FieldSpec.gf(3)
GF5 = FieldSpec.gf(5)

