"""Exact arithmetic underlying everything else.

Scalars are elements of cyclotomic fields Q(zeta_N), stored on the power basis
zeta_N^0 .. zeta_N^{phi(N)-1} as a sparse map exponent -> int over one common
denominator, reduced modulo the N-th cyclotomic polynomial, with the gcd of
the denominator and the coefficients divided out.  The reduced form is
canonical at fixed conductor, so equality is a plain dict comparison; a hash
is taken at the least conductor holding the value, so equal values hash alike
whatever their labels.  Mixing two conductors promotes both operands to their
lcm.  Inverses come from the Galois norm: 1/x is the product of the other
conjugates of x divided by the rational norm N(x), the product of all of them,
at the conductor of x.  Fractions appear only at the edges: `as_fraction`,
`to_json`, `repr`, and the constructors and operators that take one.

On top of the scalars:

  PolyT     dense univariate polynomials in the grading variable T; a power
            series cut at degree `order` (series_inverse) is a PolyT too
  MultiPoly sparse multivariate polynomials on the ambient vector space

and the one integer form of Z[zeta_N] that every integer kernel uses:
`integral_terms` (CycNums to integers, a read of the stored form),
`kronecker_pack` (integers to one packed int), `from_integral` (integers back
to a CycNum), and `weighted_sums` on them (`integral_weighted_sums` on values
put in integer form once, by `integral_coefficients`).  No other module
touches `_reduce`, `CycNum._make` or a CycNum's stored fields.

All values are immutable after construction and safe to share between
concurrent workers.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

RatLike = int | Fraction


class ExactError(Exception):
    """Raised when an operation that must be exact cannot be performed."""


# ---------------------------------------------------------------------------
# cyclotomic polynomials and reduction tables
# ---------------------------------------------------------------------------

def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, in increasing order."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    for p in prime_factors(n):
        result -= result // p
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


def _reduce(n: int, terms: Iterable[tuple[int, int]]) -> dict[int, int]:
    """The nonzero power-basis coefficients at n of the sum of c zeta_n^e over
    the (e, c) terms, for integers c at any exponents e."""
    phi = euler_phi(n)
    table = _reduction_table(n)
    out: dict[int, int] = {}
    for e, c in terms:
        if not c:
            continue
        if e >= n or e < 0:
            e %= n
        if e < phi:
            out[e] = out.get(e, 0) + c
        else:
            for e2, m in table[e - phi].items():
                out[e2] = out.get(e2, 0) + c * m
    return {e: c for e, c in out.items() if c}


def _lowest(num: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """num/den with the gcd of den and the coefficients divided out and den
    made positive: the canonical (num, den) of a reduced num."""
    if den != 1:
        g = gcd(den, *num.values())
        if den < 0:
            g = -g
        if g != 1:
            return {e: c // g for e, c in num.items()}, den // g
    return num, den


def _scaled(x: CycNum, n: int, d: int) -> CycNum:
    """x n/d for coprime ints n, d with n != 0, d > 0."""
    den = x._den
    if d == 1 and den == 1:
        return CycNum._make(x.N, {e: c * n for e, c in x._num.items()}, 1)
    g = gcd(n, den)
    h = gcd(d, *x._num.values())
    n //= g
    return CycNum._make(x.N, {e: c * n // h for e, c in x._num.items()}, den // g * (d // h))


def _merge(out: dict[int, int], num: dict[int, int], s: int = 1) -> dict[int, int]:
    """out plus s num, in place; a key whose sum is 0 is dropped."""
    for e, c in num.items():
        if s != 1:
            c *= s
        t = out.get(e)
        if t is None:
            out[e] = c
        else:
            t += c
            if t:
                out[e] = t
            else:
                del out[e]
    return out


@lru_cache(maxsize=None)
def _descents(N: int) -> tuple[tuple[int, int, tuple, bool], ...]:
    """Per prime q | N, with M = N/q, (q, M, images, unreduced): images[e] is
    e/q or None (q^2 | N), or (t, f) with zeta_N^e = zeta_M^f zeta_q^t
    (q || N), where unreduced says some f reaches phi(M)."""
    out = []
    for q in prime_factors(N):
        M = N // q
        if M % q == 0:
            images: tuple = tuple(None if e % q else e // q for e in range(euler_phi(N)))
            unreduced = False
        else:
            u, v = pow(q, -1, M), pow(M, -1, q)
            images = tuple((v * e % q, u * e % M) for e in range(euler_phi(N)))
            unreduced = any(f >= euler_phi(M) for _, f in images)
        out.append((q, M, images, unreduced))
    return tuple(out)


def _minimal_form(N: int, num: dict[int, int]) -> tuple[int, dict[int, int]]:
    """(M, coefficients at M) of the sum of c zeta_N^e over num, M the least
    label whose field holds it.  For a prime q | N and M = N/q:
    when q^2 | N, zeta_N has degree q over Q(zeta_M) with basis zeta_N^r,
    r < q, and zeta_N^(q k) = zeta_M^k, so the value lies in Q(zeta_M)
    exactly when q divides every exponent.  When q || N, zeta_N =
    zeta_M^u zeta_q^v with u q + v M = 1 (mod N) splits it as
    sum_t y_t zeta_q^t with y_t at M; as 1, zeta_q, .., zeta_q^(q-2) is a
    basis over Q(zeta_M), it lies there exactly when y_1 = .. = y_(q-1), with
    value y_0 - y_1.  The labels holding a value are closed under gcd, so
    descending one prime at a time reaches the least."""
    for q, M, images, unreduced in _descents(N):
        if M % q == 0:
            if all(images[e] is not None for e in num):
                return _minimal_form(M, {images[e]: c for e, c in num.items()})
            continue
        if q == 2:  # zeta_2 = -1, so the value is y_0 - y_1 whatever it is
            terms = []
            for e, c in num.items():
                t, f = images[e]
                terms.append((f, -c if t else c))
            return _minimal_form(M, _reduce(M, terms))
        ys: list[dict[int, int]] = [{} for _ in range(q)]
        for e, c in num.items():
            t, f = images[e]
            ys[t][f] = c
        if unreduced:
            ys = [_reduce(M, y.items()) for y in ys]
        if all(y == ys[1] for y in ys[2:]):
            return _minimal_form(M, _merge(ys[0], ys[1], -1))
    return N, num


# ---------------------------------------------------------------------------
# CycNum
# ---------------------------------------------------------------------------

class CycNum:
    """An element of Q(zeta_N) in canonical reduced sparse form.

    Stored as the label N, a denominator `_den` > 0 and `_num`, a map from
    exponents 0 <= e < phi(N) to nonzero ints with gcd(_den, all of them) = 1:
    the value is sum _num[e] zeta_N^e / _den.  As the power basis is an
    integral basis of Z[zeta_N], _den is the least d making d x an algebraic
    integer, whatever the label.  Instances are immutable; all arithmetic
    returns fresh objects.
    """

    __slots__ = ("N", "_num", "_den", "_hash")

    def __init__(self, N: int, raw: Mapping[int, RatLike]):
        if N < 1:
            raise ValueError("conductor must be >= 1")
        if all(type(c) is int for c in raw.values()):
            num, den = _reduce(N, raw.items()), 1
        else:
            qs = [(e, Fraction(c)) for e, c in raw.items()]
            den = lcm(*(q.denominator for _, q in qs))
            num = _reduce(N, ((e, q.numerator * (den // q.denominator)) for e, q in qs))
        num, den = _lowest(num, den)
        _set_N(self, N)
        _set_num(self, num)
        _set_den(self, den)

    @staticmethod
    def _make(N: int, num: dict[int, int], den: int) -> CycNum:
        """Trusted constructor: (num, den) must already be canonical (reduced
        exponents, int values, no zeros, den > 0 prime to the values)."""
        self = _new(CycNum)
        _set_N(self, N)
        _set_num(self, num)
        _set_den(self, den)
        return self

    def __setattr__(self, *a):  # pragma: no cover - guard rail
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(q: RatLike, N: int = 1) -> CycNum:
        if type(q) is int and N >= 1:
            return CycNum._make(N, {0: q} if q else {}, 1)
        return CycNum(N, {0: q})

    @staticmethod
    def zero(N: int = 1) -> CycNum:
        return CycNum.rational(0, N)

    @staticmethod
    def one(N: int = 1) -> CycNum:
        return CycNum.rational(1, N)

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
        if self.is_rational():
            return CycNum._make(M, self._num, self._den)
        k = M // self.N
        return CycNum._make(M, _reduce(M, [(e * k, c) for e, c in self._num.items()]), self._den)

    def is_zero(self) -> bool:
        return not self._num

    def is_rational(self) -> bool:
        c = self._num
        return not c or (len(c) == 1 and 0 in c)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ExactError(f"{self!r} is not rational")
        return Fraction(self._num.get(0, 0), self._den)

    def is_integer(self) -> bool:
        return self._den == 1 and self.is_rational()

    def galois(self, j: int) -> CycNum:
        """The image under the automorphism zeta_N -> zeta_N^j, j prime to N."""
        N = self.N
        return CycNum._make(N, _reduce(N, [(e * j % N, c) for e, c in self._num.items()]), self._den)

    def conjugate(self) -> CycNum:
        return self.galois(-1)

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
        if type(other) is CycNum and self.N == other.N:
            a, b = self, other
        else:
            a, b = self._pair(other)
            if a is NotImplemented:
                return NotImplemented
        if not b._num:
            return a
        if not a._num:
            return b
        da, db = a._den, b._den
        if da == db:
            return CycNum._make(a.N, *_lowest(_merge(dict(a._num), b._num), da))
        # as for Fractions, a common factor of the sum and the denominator
        # da db / g divides g = gcd(da, db)
        g = gcd(da, db)
        sa, sb = db // g, da // g
        out = _merge({e: c * sa for e, c in a._num.items()} if sa != 1 else dict(a._num), b._num, sb)
        if g != 1:
            h = gcd(g, *out.values())
            if h != 1:
                return CycNum._make(a.N, {e: c // h for e, c in out.items()}, sb * (db // h))
        return CycNum._make(a.N, out, sb * db)

    __radd__ = __add__

    def __neg__(self) -> CycNum:
        return CycNum._make(self.N, {e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other) -> CycNum:
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other) -> CycNum:
        return (-self) + other

    def __mul__(self, other) -> CycNum:
        if type(other) is not CycNum:
            if isinstance(other, (int, Fraction)):
                if not other:
                    return CycNum._make(self.N, {}, 1)
                return _scaled(self, other.numerator, other.denominator)
            return NotImplemented
        a, b = (self, other) if self.N == other.N else self._pair(other)
        ac, bc = a._num, b._num
        # rational operands scale without convolution or reduction
        if len(bc) <= 1 and (not bc or 0 in bc):
            if not bc:
                return CycNum._make(a.N, {}, 1)
            return _scaled(a, bc[0], b._den)
        if len(ac) <= 1 and (not ac or 0 in ac):
            if not ac:
                return CycNum._make(a.N, {}, 1)
            return _scaled(b, ac[0], a._den)
        out: dict[int, int] = {}
        for e1, c1 in ac.items():
            for e2, c2 in bc.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return CycNum._make(a.N, *_lowest(_reduce(a.N, out.items()), a._den * b._den))

    __rmul__ = __mul__

    def inverse(self) -> CycNum:
        """Multiplicative inverse: the product of the other Galois conjugates
        of self divided by the rational norm, the product of all of them.
        Both are taken of the algebraic integer _den self."""
        if self.is_zero():
            raise ZeroDivisionError("CycNum inverse of zero")
        N, den = self.N, self._den
        if self.is_rational():
            c = self._num[0]
            return CycNum._make(N, {0: den if c > 0 else -den}, abs(c))
        a = CycNum._make(N, self._num, 1)
        others = a.galois(N - 1)
        for j in range(2, N - 1):
            if gcd(j, N) == 1:
                others = others * a.galois(j)
        return others * Fraction(den, (a * others)._num[0])

    def __truediv__(self, other) -> CycNum:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("CycNum division by zero")
            return self * Fraction(other.denominator, other.numerator)
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
        if type(other) is CycNum:
            a, b = (self, other) if self.N == other.N else self._pair(other)
            return a._den == b._den and a._num == b._num
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self._num
            return self._den == other.denominator and self._num == {0: other.numerator}
        return NotImplemented

    def __hash__(self):
        # The value at its least label: equal values hash alike whatever
        # their labels; rationals hash conductor-free.  Cached in the
        # `_hash` slot, which stays unset until then.
        try:
            return self._hash
        except AttributeError:
            pass
        if self.is_rational():
            h = hash(("rat", self._num.get(0, 0), self._den))
        else:
            M, num = _minimal_form(self.N, self._num)
            h = hash((M, self._den, tuple(sorted(num.items()))))
        _set_hash(self, h)
        return h

    # -- output -------------------------------------------------------------

    def to_complex(self) -> complex:
        """Numerical embedding zeta_N -> exp(2 pi i / N).  Never used for equality."""
        den = self._den
        return sum(
            ((c / den) * _zeta_power(self.N, e) for e, c in self._num.items()),
            complex(0),
        )

    def to_json(self) -> dict:
        den = self._den
        terms = []
        for e, c in sorted(self._num.items()):
            g = gcd(c, den)
            terms.append([e, f"{c // g}/{den // g}"])
        return {"N": self.N, "terms": terms}

    @staticmethod
    def from_json(obj: Mapping) -> CycNum:
        raw = {int(e): Fraction(s) for e, s in obj["terms"]}
        return CycNum(int(obj["N"]), raw)

    def __repr__(self):
        if self.is_zero():
            return "CycNum(0)"
        parts = []
        for e, c in sorted(self._num.items()):
            q = Fraction(c, self._den)
            parts.append(f"{q}*z{self.N}^{e}" if e else str(q))
        return "CycNum(" + " + ".join(parts) + ")"


# CycNum's slot setters, which its __setattr__ guard leaves to exact alone
_new = object.__new__
_set_N, _set_num, _set_den, _set_hash = (CycNum.__dict__[f].__set__ for f in CycNum.__slots__)


@lru_cache(maxsize=None)
def _zeta_power(N: int, e: int) -> complex:
    return cmath.exp(2j * cmath.pi * e / N)


ZERO = CycNum.zero()
ONE = CycNum.one()


def as_cyc(x: CycNum | RatLike) -> CycNum:
    return x if isinstance(x, CycNum) else CycNum.rational(x)


# ---------------------------------------------------------------------------
# the integer form of Z[zeta_N]: converter, Kronecker packer, way back
# ---------------------------------------------------------------------------

def integral_terms(values: Iterable[CycNum]) -> tuple[int, list[tuple[int, list[int]]]]:
    """(den, terms): den the lcm of the denominators of the values'
    power-basis coefficients, and per value (N, coeffs), its coefficients
    times den as ints, one per exponent below phi(N), N its label or 1 when
    it is rational.  As the power basis is an integral basis of Z[zeta_N], den
    is the least d making every d x an algebraic integer, whatever the labels,
    and multiplying by roots of unity keeps it."""
    values = list(values)
    den = lcm(*(x._den for x in values))
    terms = []
    for x in values:
        N = 1 if x.is_rational() else x.N
        coeffs = [0] * euler_phi(N)
        s = den // x._den
        for k, c in x._num.items():
            coeffs[k] = c * s
        terms.append((N, coeffs))
    return den, terms


def kronecker_pack(blocks: Iterable[Sequence[int]], bits: int, stride: int) -> int:
    """The int sum_b sum_e blocks[b][e] X^(b stride + e), X = 2^bits: block b's
    integer coefficients in slots b stride, b stride + 1, ..."""
    return sum(v << bits * (b * stride + e) for b, c in enumerate(blocks) for e, v in enumerate(c) if v)


def from_integral(N: int, terms: Iterable[tuple[int, int]], den: int = 1) -> CycNum:
    """The CycNum (sum of v zeta_N^e over the (e, v) terms) / den at label N,
    for integers v at any exponents e, repeats summed, reduced modulo Phi_N."""
    return CycNum._make(N, *_lowest(_reduce(N, terms), den))


def slot_bits(bound: int) -> int:
    """Width in bits of a whole-byte slot whose balanced digits, in
    [-2^(bits-1), 2^(bits-1)), hold every integer of size at most bound."""
    return 8 * ((bound.bit_length() + 8) // 8)


def weighted_sums(
    N: int,
    weights: Sequence[int],
    left: Sequence[Sequence[CycNum]],
    right: Sequence[Sequence[Sequence[CycNum]]],
    pairs: Iterable[tuple[int, int]],
) -> list[list[CycNum]]:
    """S(i, j)_t = sum_k weights[k] * left[i][k] * right[j][k][t] for each
    (i, j) in pairs and each block t, exactly, in Q(zeta_N).

    Each right[j][k] is a sequence of blocks (one CycNum, or the coefficients
    of a polynomial in T); the result holds one CycNum per block, at label N.

    Kronecker substitution (Harvey, J. Symbolic Comput. 44, 2009): every
    value becomes its integer coefficients a_0..a_{phi-1} (`integral_terms`),
    and those one Python int sum_e a_e X^e at X = 2^bits (`kronecker_pack`).
    Block t of a right entry starts at slot t*(2 phi - 1), so the product of
    a left and a right entry holds the unreduced convolution of each block in
    its own 2 phi - 1 slots, and S(i, j) is len(weights) big-integer
    multiply-adds.
    Its balanced base-X digits are the coefficients of sum_k w_k a_k b_k
    before reduction modulo Phi_N, which `from_integral` then does exactly.

    Slot width.  A coefficient of the unreduced product a*b is a sum of some
    a_e b_f, so its size is at most |a|_1 |b|_1 (l1 norms of the coefficient
    vectors), and every digit of every S(i, j) is at most
    bound = sum_k |w_k| max_i |left[i][k]|_1 max_{j,t} |right[j][k][t]|_1.
    Slots are whole bytes with bound < 2^(bits-1) (`slot_bits`), so balanced
    digits in [-2^(bits-1), 2^(bits-1)) hold them and no carry crosses a slot;
    a carry left over after the last slot raises ExactError, as does a
    non-integral coefficient.  Nothing falls back to CycNum arithmetic.

    Integrality.  The ring of integers of Q(zeta_N) is Z[zeta_N], and the
    power basis 1, zeta, .., zeta^(phi(N)-1) is an integral basis of it, so an
    element has integer coefficients exactly when it is an algebraic integer.
    Character values are sums of roots of unity, and so are their complex
    conjugates: algebraic integers.  det(1 - T c) = prod (1 - lambda T) over
    the eigenvalues lambda of c has algebraic-integer coefficients and
    constant term 1, so its inverse power series needs no division and has
    algebraic-integer coefficients; so has the coinvariant graded trace
    G_c = prod (1 - T^d_i) / det(1 - T c).  Every value the callers (the
    character table certificate, the fake degrees, ClassFunction.inner) pass
    here is therefore integral, and ExactError means a bug upstream.
    """
    return integral_weighted_sums(
        N,
        weights,
        [integral_coefficients(N, vec) for vec in left],
        [[integral_coefficients(N, blocks) for blocks in vec] for vec in right],
        pairs,
    )


def integral_coefficients(N: int, values: Iterable[CycNum]) -> list[list[int]]:
    """The power-basis coefficients at N of algebraic integers, as ints (one
    per exponent below phi(N), or one for a rational value): the form
    `integral_weighted_sums` takes.  ExactError for any other value."""
    den, terms = integral_terms(x.promote(N) for x in values)
    if den != 1:
        raise ExactError("weighted_sums needs algebraic integers")
    return [c for _, c in terms]


def integral_weighted_sums(
    N: int,
    weights: Sequence[int],
    lc: Sequence[Sequence[Sequence[int]]],
    rc: Sequence[Sequence[Sequence[Sequence[int]]]],
    pairs: Iterable[tuple[int, int]],
) -> list[list[CycNum]]:
    """`weighted_sums` of values already in the form of
    `integral_coefficients`, so a caller converts a table once for several
    calls."""
    phi = euler_phi(N)
    stride = 2 * phi - 1
    nblocks = max((len(blocks) for vec in rc for blocks in vec), default=0)
    nslots = nblocks * stride
    bound = sum(
        abs(w)
        * max((sum(map(abs, vec[k])) for vec in lc), default=0)
        * max((sum(map(abs, c)) for vec in rc for c in vec[k]), default=0)
        for k, w in enumerate(weights)
    )
    bits = slot_bits(bound)
    size = bits // 8
    half = 1 << (bits - 1)
    # Adding half to every slot turns balanced digits into plain bytes; a
    # carry left over shows as a biased sum outside [0, 2^(bits nslots)).
    offset = half * ((1 << bits * nslots) - 1) // ((1 << bits) - 1)
    lp = [[w * kronecker_pack([c], bits, 0) for w, c in zip(weights, vec)] for vec in lc]
    rp = [[kronecker_pack(blocks, bits, stride) for blocks in vec] for vec in rc]
    out = []
    for i, j in pairs:
        biased = sum(map(mul, lp[i], rp[j])) + offset
        if biased < 0 or biased >> bits * nslots:
            raise ExactError("a packed sum overflowed its slots")
        data = biased.to_bytes(nslots * size, "little")
        coeffs = [int.from_bytes(data[s : s + size], "little") - half for s in range(0, len(data), size)]
        out.append([
            from_integral(N, enumerate(coeffs[t * stride : (t + 1) * stride]))
            for t in range(nblocks)
        ])
    return out


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


def poly_one_minus_Tk(k: int) -> PolyT:
    return PolyT([ONE] + [ZERO] * (k - 1) + [CycNum.rational(-1)])


def series_inverse(p: PolyT, order: int) -> PolyT:
    """Coefficients 0..order of 1/p, i.e. b with p*b = 1 + O(T^{order+1});
    requires a nonzero constant term."""
    if p.is_zero() or p.coeffs[0].is_zero():
        raise ExactError("series_inverse: zero constant term")
    a0_inv = p.coeffs[0].inverse()
    out = [a0_inv]
    for k in range(1, order + 1):
        s = CycNum.zero()
        for i in range(1, min(k, p.degree) + 1):
            s = s + p.coeffs[i] * out[k - i]
        out.append(-(s * a0_inv))
    return PolyT(out)


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

    def homogeneous_degree(self) -> int | None:
        """Common total degree, None for the zero polynomial; raises if mixed."""
        degs = {sum(e) for e in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ExactError(f"inhomogeneous polynomial, degrees {sorted(degs)}")
        return degs.pop()

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
