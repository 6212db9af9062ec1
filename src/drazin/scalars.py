"""Exact scalar arithmetic: Gaussian rationals and their polynomials.

Everything in this package runs over Q(i), complex numbers whose real and
imaginary parts are rational.  ``fractions.Fraction`` supplies
arbitrary-precision components, so no operation ever rounds.
``ScalarPolynomial`` adds a small amount of univariate polynomial
arithmetic: it is the scalar view of a matrix polynomial's entry, and
``poly_limit_at_zero`` takes exact limits of ratios of them at 0.

The package's one scalar text grammar, shared by library and CLI: a
component is ``-?[0-9]+(/[0-9]+)?`` in ASCII digits; a scalar is a real
component, an imaginary part (``i``, ``-i``, ``3i``, ``-1/2*i``), or both
joined by ``+`` or ``-`` (``1/2-3/4*i``).  No spaces, leading ``+``,
decimals or exponents; ``bool`` is refused like ``float``.
"""

from __future__ import annotations

import re as _re
import sys
from fractions import Fraction

_HASH_IMAG = sys.hash_info.imag
_HASH_MASK = (1 << sys.hash_info.width) - 1
_new = object.__new__

_UNSIGNED = r"[0-9]+(?:/[0-9]+)?"
_COMPONENT_TEXT = _re.compile("-?" + _UNSIGNED)
# the imaginary sign is '+' or '-' after a real part, else an optional '-'
_SCALAR_TEXT = _re.compile(
    r"(?P<re>-?{0})?(?:(?P<sign>(?(re)[+-]|-?))(?:(?P<im>{0})\*?)?i)?".format(_UNSIGNED)
)


def _excerpt(text, limit=40):
    """repr of text, cut to a short prefix so errors never echo a payload."""
    more = "... (%d characters)" % len(text) if len(text) > limit else ""
    return repr(text[:limit]) + more


def _component(value):
    """Turn one real component into a Fraction, refusing lossy types."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if not _COMPONENT_TEXT.fullmatch(value):
            raise ValueError("component %s is not an integer or 'p/q'" % _excerpt(value))
        return Fraction(value)
    raise TypeError(
        "cannot build an exact rational from %r; use int, Fraction or 'p/q'"
        % type(value).__name__
    )


def _parse_text(text):
    """Parse scalar text like '1/2-3/4*i' into two Fractions."""
    match = _SCALAR_TEXT.fullmatch(text) if text else None
    if match is None:
        raise ValueError("malformed scalar text %s" % _excerpt(text))
    real, sign, imag = match.group("re", "sign", "im")
    if sign is None:
        return Fraction(real), Fraction(0)
    imag = Fraction(imag or 1)
    return Fraction(real or 0), -imag if sign == "-" else imag


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    Instances are immutable and hashable, and arithmetic mixes freely with
    ``int`` and ``Fraction``.  Strings use the textual form ``p/q+r/s*i``
    of the module docstring (either part may be omitted, ``i`` stands alone
    for a unit coefficient); each component may also be a ``'p/q'`` string.
    ``complex`` literals are accepted only when both parts are integral, so
    fixtures can be written ``GaussianRational.parse(2 - 2j)`` without any
    risk of floating-point loss; every other float is rejected.
    """

    __slots__ = ("_re", "_im")

    def __init__(self, real=0, imag=0):
        if isinstance(real, str) and type(imag) is int and imag == 0:
            self._re, self._im = _parse_text(real)
            return
        self._re = _component(real)
        self._im = _component(imag)

    @classmethod
    def _of(cls, re, im):
        """The value re + im i from two normalised Fractions the package
        built itself, without the checks of the public constructor."""
        value = _new(cls)
        value._re = re
        value._im = im
        return value

    @classmethod
    def parse(cls, value):
        """Coerce ``value`` to a GaussianRational.

        Accepts GaussianRational, int, Fraction, canonical text, a
        ``[re, im]`` pair of ints or ``'p/q'`` strings, and complex numbers
        with integral parts.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, (list, tuple)):
            if len(value) != 2:
                raise ValueError("scalar pair must have exactly two components")
            return cls(_component(value[0]), _component(value[1]))
        if isinstance(value, complex):
            if not (value.real.is_integer() and value.imag.is_integer()):
                raise TypeError(
                    "complex literals are exact only with integer parts; "
                    "write non-integers as text like '1/2+3/4*i'"
                )
            return cls(int(value.real), int(value.imag))
        if isinstance(value, (int, Fraction, str)):
            return cls(value)
        raise TypeError("cannot coerce %r to GaussianRational" % type(value).__name__)

    @property
    def re(self) -> Fraction:
        return self._re

    @property
    def im(self) -> Fraction:
        return self._im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._of(self._re, -self._im)

    def norm_squared(self) -> Fraction:
        """re^2 + im^2, the multiplicative norm of Q(i)."""
        return self._re * self._re + self._im * self._im

    @staticmethod
    def _coerce(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return GaussianRational(value)
        if isinstance(value, complex):
            try:
                return GaussianRational.parse(value)
            except TypeError:
                return None
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._of(self._re + other._re, self._im + other._im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._of(self._re - other._re, self._im - other._im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._of(
            self._re * other._re - self._im * other._im,
            self._re * other._im + self._im * other._re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        norm = other.norm_squared()
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational._of(
            (self._re * other._re + self._im * other._im) / norm,
            (self._im * other._re - self._re * other._im) / norm,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def __neg__(self):
        return GaussianRational._of(-self._re, -self._im)

    def __pos__(self):
        return self

    def __bool__(self):
        return self._re != 0 or self._im != 0

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._re == other._re and self._im == other._im

    def __hash__(self):
        # complex's hash, so that values equal to an int, a Fraction or a
        # complex hash alike: hash(re) + imag * hash(im) as a signed
        # width-bit word, with -1 (the error value) mapped to -2
        h = (hash(self._re) + _HASH_IMAG * hash(self._im)) & _HASH_MASK
        if h > _HASH_MASK >> 1:
            h -= _HASH_MASK + 1
        return -2 if h == -1 else h

    def __str__(self):
        if self._im == 0:
            return str(self._re)
        if self._im == 1:
            imag = "i"
        elif self._im == -1:
            imag = "-i"
        else:
            imag = "%s*i" % self._im
        if self._re == 0:
            return imag
        if imag.startswith("-"):
            return "%s%s" % (self._re, imag)
        return "%s+%s" % (self._re, imag)

    def __repr__(self):
        return "GaussianRational(%r)" % str(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


class ScalarPolynomial:
    """Univariate polynomial with GaussianRational coefficients.

    Coefficients are stored lowest degree first with trailing zeros trimmed,
    so the zero polynomial has an empty coefficient tuple and degree -1.
    The variable name only affects printing; equality ignores it.
    """

    __slots__ = ("_coeffs", "_variable")

    def __init__(self, coeffs=(), variable="x"):
        cs = [GaussianRational.parse(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._coeffs = tuple(cs)
        self._variable = variable

    @property
    def coeffs(self):
        return self._coeffs

    @property
    def variable(self) -> str:
        return self._variable

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, power: int) -> GaussianRational:
        """Coefficient of the given power, zero beyond the stored degree."""
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return ZERO

    def valuation(self):
        """Multiplicity of the root at 0, or None for the zero polynomial."""
        for power, c in enumerate(self._coeffs):
            if c:
                return power
        return None

    @staticmethod
    def _coerce(value):
        if isinstance(value, ScalarPolynomial):
            return value
        scalar = GaussianRational._coerce(value)
        if scalar is None:
            return None
        return ScalarPolynomial((scalar,))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for k, c in enumerate(b):
            summed[k] = summed[k] + c
        return ScalarPolynomial(summed, self._variable)

    __radd__ = __add__

    def __neg__(self):
        return ScalarPolynomial(tuple(-c for c in self._coeffs), self._variable)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ScalarPolynomial(variable=self._variable)
        out = [ZERO] * (len(self._coeffs) + len(other._coeffs) - 1)
        for p, a in enumerate(self._coeffs):
            if not a:
                continue
            for q, b in enumerate(other._coeffs):
                out[p + q] = out[p + q] + a * b
        return ScalarPolynomial(out, self._variable)

    __rmul__ = __mul__

    def __call__(self, point):
        point = GaussianRational.parse(point)
        acc = ZERO
        for c in reversed(self._coeffs):
            acc = acc * point + c
        return acc

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        # a constant hashes as its coefficient and zero as 0, so that a
        # polynomial equal to a scalar hashes like it
        if len(self._coeffs) <= 1:
            return hash(self.coefficient(0))
        return hash(self._coeffs)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for power, c in enumerate(self._coeffs):
            if not c:
                continue
            if power == 0:
                parts.append(str(c))
            elif power == 1:
                parts.append("(%s)*%s" % (c, self._variable))
            else:
                parts.append("(%s)*%s^%d" % (c, self._variable, power))
        return " + ".join(parts)

    def __repr__(self):
        return "ScalarPolynomial(%s)" % (list(map(str, self._coeffs)),)


def poly_limit_at_zero(num: ScalarPolynomial, den: ScalarPolynomial) -> GaussianRational:
    """Exact limit of num(x)/den(x) as x approaches 0.

    Writing ord(p) for the multiplicity of p's root at 0, the limit is the
    ratio of the two order-matching coefficients when ord(num) = ord(den),
    zero when ord(num) > ord(den) (including num = 0), and an
    ArithmeticError('limit diverges') when ord(num) < ord(den).  A zero
    denominator is a ZeroDivisionError.
    """
    if den.is_zero:
        raise ZeroDivisionError("limit with zero denominator polynomial")
    if num.is_zero:
        return ZERO
    ord_num = num.valuation()
    ord_den = den.valuation()
    if ord_num < ord_den:
        raise ArithmeticError("limit diverges")
    if ord_num > ord_den:
        return ZERO
    return num.coefficient(ord_num) / den.coefficient(ord_den)
