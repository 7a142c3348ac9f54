"""Exact number systems beyond the integers: arbitrary-precision rationals
(stdlib ``fractions.Fraction``) and the real quadratic field Q(sqrt 2).

Isometries are integer Lorentz matrices (see moebius) and cusp lattices
are integral (see flat3); only ideal-vertex coordinates use rationals, and
layout coordinates live in Q(sqrt 2), so every comparison in the package is
exact.  The layout only adds, negates, subtracts, multiplies and compares
its coordinates, so QS2 carries the ring operations, equality and an exact
sign, and no division or ordering.
"""

from __future__ import annotations

from fractions import Fraction


class QS2:
    """An element a + b*sqrt(2) of the field Q(sqrt 2).

    The pair (a, b) is a unique representation since sqrt(2) is irrational,
    so equality and hashing are componentwise.  Signs are decided exactly by
    comparing a^2 with 2 b^2 (no root extraction).
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, *args):
        raise AttributeError("QS2 values are immutable")

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(x) -> "QS2":
        if isinstance(x, QS2):
            return x
        if isinstance(x, (int, Fraction)):
            return QS2(x, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QS2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QS2(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QS2(self.a - o.a, self.b - o.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QS2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    # -- sign and identity --------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(2) in {-1, 0, +1}."""
        a, b = self.a, self.b
        if b == 0:
            return 0 if a == 0 else (1 if a > 0 else -1)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Mixed signs: compare |a| with |b| sqrt(2) via squares.
        d = a * a - 2 * b * b
        bigger_is_a = d > 0
        if d == 0:
            raise ArithmeticError("sqrt(2) cannot be rational")
        if a > 0:
            return 1 if bigger_is_a else -1
        return -1 if bigger_is_a else 1

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __float__(self):
        return float(self.a) + float(self.b) * 2 ** 0.5

    def __repr__(self):
        return f"QS2({self.a!r}, {self.b!r})"
