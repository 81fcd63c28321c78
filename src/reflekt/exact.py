"""Exact arithmetic underlying everything else.

Scalars are elements of cyclotomic fields Q(zeta_N), stored on the power basis
zeta_N^0 .. zeta_N^{phi(N)-1} as a sparse map exponent -> Fraction, reduced
modulo the N-th cyclotomic polynomial.  The reduced form is canonical at fixed
conductor, so equality and hashing are plain dict comparisons.  Mixing two
conductors promotes both operands to their lcm.

On top of the scalars:

  PolyT     dense univariate polynomials in the grading variable T
  SeriesT   truncated power series in T (coefficients valid up to `order`)
  MultiPoly sparse multivariate polynomials on the ambient vector space

All values are immutable after construction and safe to share between
concurrent workers.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

RatLike = int | Fraction


class ExactError(Exception):
    """Raised when an operation that must be exact cannot be performed."""


# ---------------------------------------------------------------------------
# cyclotomic polynomials and reduction tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _int_poly_divide(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials with monic divisor.
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num[: len(den) - 1]):
        raise ExactError("non-exact integer polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    if n == 1:
        return (-1, 1)
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_divide(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_table(n: int) -> tuple[dict[int, int], ...]:
    """For e in [phi(n), n): expansion of zeta_n^e over the power basis."""
    phi = euler_phi(n)
    cyc = cyclotomic_polynomial(n)
    # zeta^phi = -(c_0 + c_1 zeta + ... + c_{phi-1} zeta^{phi-1}); cyc is monic.
    rows: list[dict[int, int]] = []
    cur = {e: -c for e, c in enumerate(cyc[:-1]) if c}
    rows.append(dict(cur))
    for _ in range(phi + 1, n):
        nxt: dict[int, int] = {}
        for e, c in cur.items():
            if e + 1 < phi:
                nxt[e + 1] = nxt.get(e + 1, 0) + c
            else:
                for e2, c2 in rows[0].items():
                    nxt[e2] = nxt.get(e2, 0) + c * c2
        cur = {e: c for e, c in nxt.items() if c}
        rows.append(dict(cur))
    return tuple(rows)


_F0 = Fraction(0)


def _reduce(n: int, raw: Mapping[int, Fraction]) -> dict[int, Fraction]:
    phi = euler_phi(n)
    table = _reduction_table(n)
    out: dict[int, Fraction] = {}
    for e, c in raw.items():
        if not c:
            continue
        if e >= n or e < 0:
            e %= n
        if e < phi:
            out[e] = out.get(e, _F0) + c
        else:
            for e2, m in table[e - phi].items():
                out[e2] = out.get(e2, _F0) + c * m
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# CycNum
# ---------------------------------------------------------------------------

class CycNum:
    """An element of Q(zeta_N) in canonical reduced sparse form.

    `coeffs` maps exponents 0 <= e < phi(N) to nonzero Fractions.  Instances
    are immutable; all arithmetic returns fresh objects.
    """

    __slots__ = ("N", "coeffs", "_hash")

    def __init__(self, N: int, raw: Mapping[int, RatLike]):
        if N < 1:
            raise ValueError("conductor must be >= 1")
        object.__setattr__(self, "N", N)
        object.__setattr__(
            self, "coeffs", _reduce(N, {e: Fraction(c) for e, c in raw.items()})
        )
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def _make(N: int, coeffs: dict[int, Fraction]) -> CycNum:
        """Trusted constructor: coeffs must already be canonical (reduced
        exponents, Fraction values, no zeros)."""
        self = object.__new__(CycNum)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, *a):  # pragma: no cover - guard rail
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(q: RatLike, N: int = 1) -> CycNum:
        return CycNum(N, {0: Fraction(q)})

    @staticmethod
    def zero(N: int = 1) -> CycNum:
        return CycNum(N, {})

    @staticmethod
    def one(N: int = 1) -> CycNum:
        return CycNum(N, {0: 1})

    @staticmethod
    def zeta(N: int, e: int = 1) -> CycNum:
        """zeta_N^e, the primitive N-th root of unity to the e-th power."""
        return CycNum(N, {e: 1})

    # -- structure ---------------------------------------------------------

    def promote(self, M: int) -> CycNum:
        """Re-express in Q(zeta_M); M must be a multiple of the conductor."""
        if M == self.N:
            return self
        if M % self.N:
            raise ValueError(f"cannot promote conductor {self.N} to {M}")
        k = M // self.N
        return CycNum._make(M, _reduce(M, {e * k: c for e, c in self.coeffs.items()}))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return all(e == 0 for e in self.coeffs)

    def as_fraction(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        if not self.is_rational():
            raise ExactError(f"{self!r} is not rational")
        return self.coeffs[0]

    def is_integer(self) -> bool:
        return self.is_rational() and self.as_fraction().denominator == 1

    def conjugate(self) -> CycNum:
        return CycNum._make(
            self.N,
            _reduce(self.N, {(self.N - e) % self.N: c for e, c in self.coeffs.items()}),
        )

    # -- arithmetic --------------------------------------------------------

    def _pair(self, other) -> tuple[CycNum, CycNum]:
        if isinstance(other, (int, Fraction)):
            other = CycNum.rational(other, 1)
        if not isinstance(other, CycNum):
            return NotImplemented, NotImplemented  # type: ignore[return-value]
        if self.N == other.N:
            return self, other
        M = lcm(self.N, other.N)
        return self.promote(M), other.promote(M)

    def __add__(self, other) -> CycNum:
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        # both operands reduced: merging stays reduced
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return CycNum._make(a.N, out)

    __radd__ = __add__

    def __neg__(self) -> CycNum:
        return CycNum._make(self.N, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> CycNum:
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other) -> CycNum:
        return (-self) + other

    def __mul__(self, other) -> CycNum:
        if isinstance(other, (int, Fraction)):
            if not other:
                return CycNum._make(self.N, {})
            q = Fraction(other)
            return CycNum._make(self.N, {e: c * q for e, c in self.coeffs.items()})
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        ac, bc = a.coeffs, b.coeffs
        # rational operands scale without convolution or reduction
        if len(bc) <= 1 and (not bc or 0 in bc):
            if not bc:
                return CycNum._make(a.N, {})
            q = bc[0]
            return CycNum._make(a.N, {e: c * q for e, c in ac.items()})
        if len(ac) <= 1 and (not ac or 0 in ac):
            if not ac:
                return CycNum._make(a.N, {})
            q = ac[0]
            return CycNum._make(a.N, {e: c * q for e, c in bc.items()})
        out: dict[int, Fraction] = {}
        for e1, c1 in ac.items():
            for e2, c2 in bc.items():
                e = e1 + e2
                out[e] = out.get(e, _F0) + c1 * c2
        return CycNum._make(a.N, _reduce(a.N, out))

    __rmul__ = __mul__

    def inverse(self) -> CycNum:
        """Multiplicative inverse, via a linear solve over the power basis."""
        if self.is_zero():
            raise ZeroDivisionError("CycNum inverse of zero")
        if self.is_rational():
            return CycNum.rational(1 / self.as_fraction(), self.N)
        phi = euler_phi(self.N)
        # Columns: self * zeta^b expanded over the basis.
        cols = []
        for b in range(phi):
            prod = _reduce(self.N, {e + b: c for e, c in self.coeffs.items()})
            cols.append(prod)
        # Solve sum_b y_b * col_b = e_0 by Gaussian elimination.
        mat = [[cols[b].get(r, Fraction(0)) for b in range(phi)] for r in range(phi)]
        rhs = [Fraction(1 if r == 0 else 0) for r in range(phi)]
        for col in range(phi):
            piv = next((r for r in range(col, phi) if mat[r][col]), None)
            if piv is None:
                raise ExactError("singular multiplication matrix (bug)")
            mat[col], mat[piv] = mat[piv], mat[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
            inv = 1 / mat[col][col]
            mat[col] = [x * inv for x in mat[col]]
            rhs[col] *= inv
            for r in range(phi):
                if r != col and mat[r][col]:
                    f = mat[r][col]
                    mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
                    rhs[r] -= f * rhs[col]
        return CycNum._make(self.N, {b: rhs[b] for b in range(phi) if rhs[b]})

    def __truediv__(self, other) -> CycNum:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("CycNum division by zero")
            return self * (Fraction(1) / Fraction(other))
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __pow__(self, k: int) -> CycNum:
        if k < 0:
            return self.inverse() ** (-k)
        out = CycNum.one(self.N)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.coeffs
            return self.coeffs == {0: Fraction(other)}
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        # Valid across instances at the same conductor (canonical form);
        # rationals hash conductor-free.
        h = self._hash
        if h is None:
            if self.is_rational():
                h = hash(("rat", self.coeffs.get(0, Fraction(0))))
            else:
                h = hash((self.N, tuple(sorted(self.coeffs.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    # -- output -------------------------------------------------------------

    def to_complex(self) -> complex:
        """Numerical embedding zeta_N -> exp(2 pi i / N).  Never used for equality."""
        return sum(
            (float(c) * _zeta_power(self.N, e) for e, c in self.coeffs.items()),
            complex(0),
        )

    def to_json(self) -> dict:
        terms = [[e, f"{c.numerator}/{c.denominator}"] for e, c in sorted(self.coeffs.items())]
        return {"N": self.N, "terms": terms}

    @staticmethod
    def from_json(obj: Mapping) -> CycNum:
        raw = {int(e): Fraction(s) for e, s in obj["terms"]}
        return CycNum(int(obj["N"]), raw)

    def __repr__(self):
        if self.is_zero():
            return "CycNum(0)"
        parts = [f"{c}*z{self.N}^{e}" if e else str(c) for e, c in sorted(self.coeffs.items())]
        return "CycNum(" + " + ".join(parts) + ")"


@lru_cache(maxsize=None)
def _zeta_power(N: int, e: int) -> complex:
    return cmath.exp(2j * cmath.pi * e / N)


def cyc_reduce(raw: Mapping[int, RatLike], N: int) -> CycNum:
    """Canonical form of sum_e raw[e] * zeta_N^e.  Rejects N = 0."""
    return CycNum(N, raw)


ZERO = CycNum.zero()
ONE = CycNum.one()


def as_cyc(x: CycNum | RatLike) -> CycNum:
    return x if isinstance(x, CycNum) else CycNum.rational(x)


# ---------------------------------------------------------------------------
# PolyT
# ---------------------------------------------------------------------------

class PolyT:
    """Polynomial in T with CycNum coefficients, low degree first.

    Trailing zeros are stripped; the zero polynomial has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[CycNum | RatLike]):
        cs = [as_cyc(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("PolyT is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> CycNum:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyT):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: PolyT) -> PolyT:
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyT([self[k] + other[k] for k in range(n)])

    def __sub__(self, other: PolyT) -> PolyT:
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyT([self[k] - other[k] for k in range(n)])

    def __neg__(self) -> PolyT:
        return PolyT([-c for c in self.coeffs])

    def __mul__(self, other) -> PolyT:
        if isinstance(other, (int, Fraction, CycNum)):
            return PolyT([c * as_cyc(other) for c in self.coeffs])
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return PolyT(out)

    __rmul__ = __mul__

    def evaluate(self, x: CycNum | RatLike) -> CycNum:
        x = as_cyc(x)
        acc = CycNum.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, k: int) -> PolyT:
        """Multiply by T^k."""
        if self.is_zero():
            return self
        return PolyT([ZERO] * k + list(self.coeffs))

    def reversed_shift(self, c: int) -> PolyT:
        """T^c * p(1/T); raises if the result has a negative exponent."""
        if self.is_zero():
            return self
        out: dict[int, CycNum] = {}
        for k, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            e = c - k
            if e < 0:
                raise ExactError(f"T^{c} * p(1/T) is not a polynomial (term T^{e})")
            out[e] = a
        coeffs = [ZERO] * (max(out) + 1)
        for e, a in out.items():
            coeffs[e] = a
        return PolyT(coeffs)

    def exponents(self) -> list[int]:
        """Degrees with multiplicity = coefficient; requires nonneg integer coeffs."""
        out: list[int] = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if not c.is_integer() or c.as_fraction() < 0:
                raise ExactError(f"coefficient of T^{k} is not a nonnegative integer: {c!r}")
            out.extend([k] * int(c.as_fraction()))
        return out

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]

    def __repr__(self):
        if self.is_zero():
            return "PolyT(0)"
        return "PolyT[" + ", ".join(repr(c) for c in self.coeffs) + "]"


def poly_from_ints(*cs: int) -> PolyT:
    return PolyT([CycNum.rational(c) for c in cs])


def poly_one() -> PolyT:
    return poly_from_ints(1)


def poly_one_minus_Tk(k: int) -> PolyT:
    return PolyT([ONE] + [ZERO] * (k - 1) + [CycNum.rational(-1)])


def poly_divide_exact(num: PolyT, den: PolyT) -> PolyT:
    """Exact quotient num/den; raises ExactError when not divisible."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero():
        return num
    if num.degree < den.degree:
        raise ExactError("not divisible: degree too small")
    rem = list(num.coeffs)
    lead_inv = den.coeffs[-1].inverse()
    q = [ZERO] * (num.degree - den.degree + 1)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + den.degree] * lead_inv
        q[i] = c
        if not c.is_zero():
            for j, d in enumerate(den.coeffs):
                rem[i + j] = rem[i + j] - c * d
    if any(not r.is_zero() for r in rem[: den.degree]):
        raise ExactError("not divisible: nonzero remainder")
    return PolyT(q)


# ---------------------------------------------------------------------------
# SeriesT
# ---------------------------------------------------------------------------

class SeriesT:
    """Truncated power series in T: coefficients valid for degrees 0..order."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable[CycNum | RatLike], order: int):
        cs = [as_cyc(c) for c in coeffs][: order + 1]
        cs += [ZERO] * (order + 1 - len(cs))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("SeriesT is immutable")

    def __getitem__(self, k: int) -> CycNum:
        if k > self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k] if k >= 0 else ZERO

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesT):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __add__(self, other: SeriesT) -> SeriesT:
        order = min(self.order, other.order)
        return SeriesT([self.coeffs[k] + other.coeffs[k] for k in range(order + 1)], order)

    def __sub__(self, other: SeriesT) -> SeriesT:
        order = min(self.order, other.order)
        return SeriesT([self.coeffs[k] - other.coeffs[k] for k in range(order + 1)], order)

    def __mul__(self, other) -> SeriesT:
        if isinstance(other, (int, Fraction, CycNum)):
            return SeriesT([c * as_cyc(other) for c in self.coeffs], self.order)
        order = min(self.order, other.order)
        out = [CycNum.zero() for _ in range(order + 1)]
        for i in range(order + 1):
            a = self.coeffs[i]
            if a.is_zero():
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return SeriesT(out, order)

    __rmul__ = __mul__

    def scale(self, c: CycNum | RatLike) -> SeriesT:
        return self * as_cyc(c)

    def to_poly(self) -> PolyT:
        return PolyT(self.coeffs)

    def __repr__(self):
        return f"SeriesT(order={self.order}, {list(self.coeffs)!r})"


def series_of_poly(p: PolyT, order: int) -> SeriesT:
    return SeriesT(list(p.coeffs), order)


def series_inverse(p: PolyT, order: int) -> SeriesT:
    """Series b with p*b = 1 + O(T^{order+1}); requires nonzero constant term."""
    if p.is_zero() or p.coeffs[0].is_zero():
        raise ExactError("series_inverse: zero constant term")
    a0_inv = p.coeffs[0].inverse()
    out = [a0_inv]
    for k in range(1, order + 1):
        s = CycNum.zero()
        for i in range(1, min(k, p.degree) + 1):
            s = s + p.coeffs[i] * out[k - i]
        out.append(-(s * a0_inv))
    return SeriesT(out, order)


# ---------------------------------------------------------------------------
# MultiPoly
# ---------------------------------------------------------------------------

class MultiPoly:
    """Sparse polynomial on V: exponent tuple -> CycNum, no zero terms.

    Exponent tuples all have length `nvars`; the coordinates are labelled
    x0..x{n-1} in output.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], CycNum | RatLike]):
        clean = {}
        for exps, c in terms.items():
            c = as_cyc(c)
            if len(exps) != nvars:
                raise ValueError("exponent tuple has wrong length")
            if not c.is_zero():
                clean[tuple(exps)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("MultiPoly is immutable")

    @staticmethod
    def zero(nvars: int) -> MultiPoly:
        return MultiPoly(nvars, {})

    @staticmethod
    def constant(nvars: int, c: CycNum | RatLike) -> MultiPoly:
        return MultiPoly(nvars, {(0,) * nvars: as_cyc(c)})

    @staticmethod
    def variable(nvars: int, i: int) -> MultiPoly:
        e = [0] * nvars
        e[i] = 1
        return MultiPoly(nvars, {tuple(e): ONE})

    @staticmethod
    def linear_form(coeffs: Sequence[CycNum | RatLike]) -> MultiPoly:
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            e = [0] * n
            e[i] = 1
            terms[tuple(e)] = as_cyc(c)
        return MultiPoly(n, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __add__(self, other: MultiPoly) -> MultiPoly:
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) + c
        return MultiPoly(self.nvars, out)

    def __sub__(self, other: MultiPoly) -> MultiPoly:
        return self + (-other)

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> MultiPoly:
        if isinstance(other, (int, Fraction, CycNum)):
            c = as_cyc(other)
            return MultiPoly(self.nvars, {e: v * c for e, v in self.terms.items()})
        out: dict[tuple[int, ...], CycNum] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, ZERO) + c1 * c2
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> MultiPoly:
        out = MultiPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_degree(self) -> int | None:
        """Common total degree, None for the zero polynomial; raises if mixed."""
        degs = {sum(e) for e in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ExactError(f"inhomogeneous polynomial, degrees {sorted(degs)}")
        return degs.pop()

    def euler(self) -> MultiPoly:
        """Apply the Euler operator sum_i x_i d/dx_i."""
        return MultiPoly(self.nvars, {e: c * sum(e) for e, c in self.terms.items()})

    def evaluate(self, point: Sequence[CycNum | RatLike]) -> CycNum:
        acc = CycNum.zero()
        pt = [as_cyc(p) for p in point]
        for e, c in self.terms.items():
            term = c
            for i, a in enumerate(e):
                for _ in range(a):
                    term = term * pt[i]
            acc = acc + term
        return acc

    def evaluate_complex(self, point: Sequence[complex]) -> complex:
        acc = 0j
        for e, c in self.terms.items():
            term = c.to_complex()
            for i, a in enumerate(e):
                term *= point[i] ** a
            acc += term
        return acc

    def compose_matrix(self, matrix: Sequence[Sequence[CycNum]]) -> MultiPoly:
        """f(A v): substitute x_i -> sum_j A[i][j] x_j."""
        n = self.nvars
        rows = [MultiPoly.linear_form([matrix[i][j] for j in range(n)]) for i in range(n)]
        # Cache powers of each substituted coordinate.
        pow_cache: list[dict[int, MultiPoly]] = [dict() for _ in range(n)]

        def row_pow(i: int, k: int) -> MultiPoly:
            got = pow_cache[i].get(k)
            if got is None:
                got = rows[i] ** k
                pow_cache[i][k] = got
            return got

        acc = MultiPoly.zero(n)
        for e, c in self.terms.items():
            term = MultiPoly.constant(n, c)
            for i, a in enumerate(e):
                if a:
                    term = term * row_pow(i, a)
            acc = acc + term
        return acc

    def leading(self) -> tuple[tuple[int, ...], CycNum]:
        e = max(self.terms)  # lex order on exponent tuples
        return e, self.terms[e]

    def divide_exact(self, den: MultiPoly) -> MultiPoly:
        """Exact quotient self/den; raises ExactError when not divisible."""
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        num = self
        qterms: dict[tuple[int, ...], CycNum] = {}
        de, dc = den.leading()
        dc_inv = dc.inverse()
        while not num.is_zero():
            ne, nc = num.leading()
            qe = tuple(a - b for a, b in zip(ne, de))
            if any(a < 0 for a in qe):
                raise ExactError("not divisible (multivariate)")
            qc = nc * dc_inv
            qterms[qe] = qterms.get(qe, ZERO) + qc
            num = num - den * MultiPoly(self.nvars, {qe: qc})
        return MultiPoly(self.nvars, qterms)

    def to_json(self) -> list:
        items = sorted(self.terms.items(), key=lambda t: t[0])
        return [[list(e), c.to_json()] for e, c in items]

    def __repr__(self):
        if self.is_zero():
            return "MultiPoly(0)"
        parts = []
        for e, c in sorted(self.terms.items(), key=lambda t: t[0]):
            mono = "*".join(f"x{i}^{a}" if a > 1 else f"x{i}" for i, a in enumerate(e) if a)
            parts.append(f"({c!r})*{mono}" if mono else f"({c!r})")
        return "MultiPoly[" + " + ".join(parts) + "]"
