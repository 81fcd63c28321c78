"""Finite complex reflection groups as enumerated matrix groups.

A group is built from a descriptor:

    S<n>            symmetric group on the (n-1)-dimensional zero-sum subspace
    G(<m>,<p>,<n>)  imprimitive group of m-th-root monomial matrices, p | m
    file:<path>     JSON list of square unitary generator matrices

The symmetric group is realized in the discrete-Fourier basis of the zero-sum
subspace of C^n, which keeps the permutation matrices exactly unitary with
entries in Q(zeta_n) (the 1/sqrt(n) normalizations cancel in conjugation).

Enumeration is breadth-first over generator words; the first word reaching an
element (shortest, then lexicographically smallest) is stored.  The search
records the Cayley graph of right multiplication by the generators
(rmul[i][g] = index of w_i * s_g) and the BFS tree (w_j = w_parent(j) * s_last),
so it costs |W| * #generators matrix products.  All pure group structure -
the multiplication table, products, inverses, element orders, conjugacy
classes - is integer lookups in that graph.  Matrices are used only where the
answer is linear algebra: traces, determinants and eigenvalues, the rank test
for reflections (one per class), hyperplane forms and the action on them.
Everything is exact; all data is immutable after construction.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exact import (
    CycNum,
    ExactError,
    MultiPoly,
    PolyT,
    SeriesT,
    ZERO,
    ONE,
    poly_one_minus_Tk,
    poly_divide_exact,
    series_inverse,
)
from . import linalg
from .linalg import Matrix, Vector

DEFAULT_MAX_ORDER = 50_000
# Full multiplication tables only below this size; above it a product w_i * w_j
# walks the word of w_j from i through the Cayley graph.
MULT_TABLE_LIMIT = 4096


class GroupBuildError(Exception):
    """Invalid descriptor or a constructor-level failure."""


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Descriptor:
    kind: str  # "sym" | "imprimitive" | "file"
    n: int = 0
    m: int = 0
    p: int = 0
    path: str = ""

    def canonical(self) -> str:
        if self.kind == "sym":
            return f"S{self.n}"
        if self.kind == "imprimitive":
            return f"G({self.m},{self.p},{self.n})"
        return f"file:{self.path}"


def parse_descriptor(text: str) -> Descriptor:
    text = text.strip()
    if text.startswith("file:"):
        return Descriptor(kind="file", path=text[5:])
    if text.startswith("S") or text.startswith("s"):
        try:
            n = int(text[1:])
        except ValueError:
            raise GroupBuildError(f"bad symmetric-group descriptor {text!r}")
        if n < 2:
            raise GroupBuildError("S<n> needs n >= 2")
        return Descriptor(kind="sym", n=n)
    if text.startswith("G(") and text.endswith(")"):
        parts = text[2:-1].split(",")
        if len(parts) != 3:
            raise GroupBuildError(f"bad imprimitive descriptor {text!r}")
        try:
            m, p, n = (int(x) for x in parts)
        except ValueError:
            raise GroupBuildError(f"bad imprimitive descriptor {text!r}")
        if p < 1 or n < 1 or m < 1:
            raise GroupBuildError("G(m,p,n) needs positive m, p, n")
        if m % p:
            raise GroupBuildError(f"G({m},{p},{n}): p does not divide m")
        if m < 2:
            raise GroupBuildError("G(m,p,n) needs m >= 2")
        if n == 1 and p != 1:
            raise GroupBuildError("G(m,p,1) needs p = 1")
        return Descriptor(kind="imprimitive", m=m, p=p, n=n)
    raise GroupBuildError(f"unrecognized group descriptor {text!r}")


# ---------------------------------------------------------------------------
# generator constructions
# ---------------------------------------------------------------------------

def _sym_generator_matrices(n: int) -> list[Matrix]:
    """Adjacent transpositions of S_n on the zero-sum subspace, Fourier basis.

    Basis vectors are v_j = sum_b zeta_n^{jb} e_b / sqrt(n), j = 1..n-1.  The
    conjugated permutation matrix has (j,k) entry (1/n) sum_b zeta^{j sigma(b) - k b}.
    """
    mats = []
    ninv = Fraction(1, n)
    for t in range(n - 1):
        sigma = list(range(n))
        sigma[t], sigma[t + 1] = sigma[t + 1], sigma[t]
        rows = []
        for j in range(1, n):
            row = []
            for k in range(1, n):
                raw: dict[int, Fraction] = {}
                for b in range(n):
                    e = (j * sigma[b] - k * b) % n
                    raw[e] = raw.get(e, Fraction(0)) + ninv
                row.append(CycNum(n, raw))
            rows.append(tuple(row))
        mats.append(tuple(rows))
    return mats


def _imprimitive_generator_matrices(m: int, p: int, n: int) -> list[Matrix]:
    """Standard generators of G(m,p,n) as monomial matrices over Q(zeta_m)."""
    zeta = CycNum.zeta(m)
    gens: list[Matrix] = []

    def monomial(perm: list[int], scalars: list[CycNum]) -> Matrix:
        # e_j -> scalars[j] * e_{perm[j]}:  column j has scalars[j] at row perm[j]
        rows = [[ZERO] * n for _ in range(n)]
        for j in range(n):
            rows[perm[j]][j] = scalars[j]
        return tuple(tuple(r) for r in rows)

    if p < m:
        # diagonal reflection of order m/p
        gens.append(monomial(list(range(n)), [zeta**p] + [ONE] * (n - 1)))
    if n >= 2 and p > 1:
        # twisted transposition: e_1 -> zeta^-1 e_2, e_2 -> zeta e_1
        perm = list(range(n))
        perm[0], perm[1] = 1, 0
        scal = [zeta ** (m - 1), zeta] + [ONE] * (n - 2)
        gens.append(monomial(perm, scal))
    for t in range(n - 1):
        perm = list(range(n))
        perm[t], perm[t + 1] = perm[t + 1], perm[t]
        gens.append(monomial(perm, [ONE] * n))
    return gens


def _file_generator_matrices(path: str) -> list[Matrix]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise GroupBuildError(f"cannot read generator file: {exc}")
    except json.JSONDecodeError as exc:
        raise GroupBuildError(f"generator file is not valid JSON: {exc}")
    if not isinstance(data, list) or not data:
        raise GroupBuildError("generator file must be a nonempty JSON list of matrices")
    mats = []
    for mdata in data:
        rows = [tuple(CycNum.from_json(x) for x in row) for row in mdata]
        if any(len(r) != len(rows) for r in rows):
            raise GroupBuildError("generator matrices must be square")
        mats.append(tuple(rows))
    if len({len(m) for m in mats}) != 1:
        raise GroupBuildError("generator matrices must share one dimension")
    return mats


# ---------------------------------------------------------------------------
# group data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hyperplane:
    """One reflection hyperplane: normalized linear form, cyclic stabilizer."""

    form: Vector            # row covector, first nonzero coefficient = 1
    alpha: MultiPoly        # the same form as a polynomial on V
    fixed_basis: tuple[Vector, ...]
    order: int              # e_H
    generator: int          # element index of s_H, det(s_H) = zeta_{e_H}
    stabilizer: tuple[int, ...]


@dataclass(frozen=True)
class HyperplaneOrbit:
    members: tuple[int, ...]
    order: int              # common e_C
    pi: MultiPoly           # product of member forms


@dataclass(frozen=True)
class ConjugacyClass:
    rep: int
    members: tuple[int, ...]
    size: int


class ReflectionGroup:
    """Fully enumerated unitary reflection group with its invariant data."""

    def __init__(self, descriptor: Descriptor, max_order: int = DEFAULT_MAX_ORDER):
        self.descriptor = descriptor
        self.max_order = max_order
        if descriptor.kind == "sym":
            gen_mats = _sym_generator_matrices(descriptor.n)
            expected = math.factorial(descriptor.n)
        elif descriptor.kind == "imprimitive":
            gen_mats = _imprimitive_generator_matrices(descriptor.m, descriptor.p, descriptor.n)
            expected = descriptor.m ** descriptor.n * math.factorial(descriptor.n) // descriptor.p
        else:
            gen_mats = _file_generator_matrices(descriptor.path)
            expected = None
        if expected is not None and expected > max_order:
            raise GroupBuildError(
                f"estimated order {expected} exceeds the cap {max_order}"
            )

        # Uniform conductor across generator entries.
        n0 = 1
        for mt in gen_mats:
            for row in mt:
                for x in row:
                    n0 = lcm(n0, x.N)
        gen_mats = [
            tuple(tuple(x.promote(n0) for x in row) for row in mt) for mt in gen_mats
        ]
        self.dimension = len(gen_mats[0])
        for mt in gen_mats:
            if not linalg.is_unitary(mt):
                raise GroupBuildError("non-unitary generator matrix")
        self.generator_matrices = gen_mats

        self._enumerate(max_order)
        if expected is not None and self.order != expected:
            raise GroupBuildError(
                f"enumeration found {self.order} elements, expected {expected} (bug)"
            )
        self._element_orders()
        self.conductor = lcm(n0, *self.element_orders) if self.order > 1 else n0
        self._find_classes()
        self._find_reflections()
        self._find_hyperplanes()
        if descriptor.kind == "file":
            self._check_reflections_generate()
        self._find_orbits()
        self._molien_degrees()

    # -- enumeration --------------------------------------------------------

    def _enumerate(self, max_order: int) -> None:
        ident = linalg.identity(self.dimension)
        ident = tuple(tuple(x.promote(self.generator_matrices[0][0][0].N) for x in row) for row in ident)
        elements: list[Matrix] = [ident]
        words: list[tuple[int, ...]] = [()]
        parent = [0]
        index: dict[Matrix, int] = {ident: 0}
        rmul: list[tuple[int, ...]] = []
        head = 0
        while head < len(elements):
            cur = elements[head]
            row = []
            for g, gm in enumerate(self.generator_matrices):
                new = linalg.mat_mul(cur, gm)
                j = index.get(new)
                if j is None:
                    if len(elements) >= max_order:
                        raise GroupBuildError(
                            f"group order exceeds the cap {max_order}"
                        )
                    j = index[new] = len(elements)
                    elements.append(new)
                    words.append(words[head] + (g,))
                    parent.append(head)
                row.append(j)
            rmul.append(tuple(row))
            head += 1
        self.elements = elements
        self.words = words
        self.index = index
        self.order = len(elements)
        self.identity = 0
        self._rmul = rmul
        self.generator_elements = rmul[0]

        if self.order <= MULT_TABLE_LIMIT:
            # Row i follows the BFS tree: i * w_j = (i * w_parent(j)) * gen_last(j).
            steps = [(parent[j], words[j][-1]) for j in range(1, self.order)]
            table = []
            for i in range(self.order):
                row = [i]
                for p, a in steps:
                    row.append(rmul[row[p]][a])
                table.append(row)
            self._mult_table: list[list[int]] | None = table
        else:
            self._mult_table = None
        # (w_parent * s)^-1 = s^-1 * w_parent^-1, with s^-1 = s^(o-1) from the s-cycle through 1.
        gen_inv = []
        for a in range(len(self.generator_matrices)):
            prev, cur = 0, rmul[0][a]
            while cur != 0:
                prev, cur = cur, rmul[cur][a]
            gen_inv.append(prev)
        inv = [0] * self.order
        for j in range(1, self.order):
            inv[j] = self.mult(gen_inv[words[j][-1]], inv[parent[j]])
        self.inverse_table = inv

    def mult(self, i: int, j: int) -> int:
        if self._mult_table is not None:
            return self._mult_table[i][j]
        rmul = self._rmul
        for a in self.words[j]:
            i = rmul[i][a]
        return i

    def inverse(self, i: int) -> int:
        return self.inverse_table[i]

    def power(self, i: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse(i), -k)
        acc, base = 0, i
        while k:
            if k & 1:
                acc = self.mult(acc, base)
            base = self.mult(base, base)
            k >>= 1
        return acc

    def word_product(self, word: tuple[int, ...]) -> int:
        acc = 0
        for a in word:
            acc = self._rmul[acc][a]
        return acc

    def _element_orders(self) -> None:
        orders = [1] * self.order
        for i in range(self.order):
            k, cur = 1, i
            while cur != 0:
                cur = self.mult(cur, i)
                k += 1
            orders[i] = k
        self.element_orders = orders

    def matrix(self, i: int) -> Matrix:
        return self.elements[i]

    def trace(self, i: int) -> CycNum:
        return linalg.trace(self.elements[i])

    def det(self, i: int) -> CycNum:
        try:
            dets = self._dets
        except AttributeError:
            dets = self._dets = {}
        if i not in dets:
            dets[i] = linalg.det(self.elements[i])
        return dets[i]

    def eigenvalue_multiplicities(self, i: int) -> list[tuple[int, int, int]]:
        """Eigenvalues of element i as (order o, power t, multiplicity).

        The eigenvalues of a finite-order unitary matrix are o-th roots of
        unity; multiplicities come from the exact discrete Fourier transform
        of the traces of powers.
        """
        o = self.element_orders[i]
        traces = []
        cur = 0
        for _ in range(o):
            traces.append(self.trace(cur))
            cur = self.mult(cur, i)
        out = []
        oinv = Fraction(1, o)
        for t in range(o):
            s_sum = CycNum.zero()
            for s in range(o):
                s_sum = s_sum + traces[s] * CycNum.zeta(o, (-t * s) % o)
            mult = s_sum * oinv
            if mult.is_zero():
                continue
            if not mult.is_integer():
                raise ExactError("non-integer eigenvalue multiplicity (bug)")
            out.append((o, t, int(mult.as_fraction())))
        total = sum(m for _, _, m in out)
        if total != self.dimension:
            raise ExactError("eigenvalue multiplicities do not sum to dim (bug)")
        return out

    def char_poly_one_minus_Tw(self, i: int) -> PolyT:
        """det_V(1 - T w_i) as an exact polynomial in T."""
        try:
            polys = self._char_polys
        except AttributeError:
            polys = self._char_polys = {}
        if i not in polys:
            p = PolyT([ONE])
            for o, t, mult in self.eigenvalue_multiplicities(i):
                factor = PolyT([ONE, -CycNum.zeta(o, t)])
                for _ in range(mult):
                    p = p * factor
            polys[i] = p
        return polys[i]

    # -- reflections and hyperplanes -----------------------------------------

    def _find_reflections(self) -> None:
        # Being a reflection is a class property: test the representatives.
        refl = []
        ident = linalg.identity(self.dimension)
        for cls in self.classes[1:]:
            if linalg.rank(linalg.mat_sub(self.elements[cls.rep], ident)) == 1:
                refl.extend(cls.members)
        self.reflections = tuple(sorted(refl))

    def _normalized_form(self, row: Vector) -> Vector:
        piv = next(x for x in row if not x.is_zero())
        inv = piv.inverse()
        return tuple(x * inv for x in row)

    def _reflection_form(self, i: int) -> Vector:
        diff = linalg.mat_sub(self.elements[i], linalg.identity(self.dimension))
        for row in diff:
            if any(not x.is_zero() for x in row):
                return self._normalized_form(row)
        raise ExactError("reflection without a moving row (bug)")

    def _find_hyperplanes(self) -> None:
        forms: dict[Vector, list[int]] = {}
        for i in self.reflections:
            forms.setdefault(self._reflection_form(i), []).append(i)
        hyperplanes = []
        self.hyperplane_index: dict[Vector, int] = {}
        for form, members in forms.items():
            alpha = MultiPoly.linear_form(form)
            basis = linalg.nullspace([list(form)])
            # The pointwise stabilizer of H is 1 plus the reflections with hyperplane H.
            stab = [0] + members
            e = len(stab)
            if e < 2:
                raise ExactError("hyperplane stabilizer not a reflection group (bug)")
            target = CycNum.zeta(e)
            gen = next((i for i in stab if self.det(i) == target), None)
            if gen is None:
                raise ExactError("no distinguished generator with det = zeta_e (bug)")
            if self.element_orders[gen] != e:
                raise ExactError("hyperplane stabilizer is not cyclic (bug)")
            self.hyperplane_index[form] = len(hyperplanes)
            hyperplanes.append(
                Hyperplane(
                    form=form,
                    alpha=alpha,
                    fixed_basis=tuple(basis),
                    order=e,
                    generator=gen,
                    stabilizer=tuple(stab),
                )
            )
        self.hyperplanes = tuple(hyperplanes)

    def _check_reflections_generate(self) -> None:
        seen = {0}
        frontier = [0]
        gens = list(self.reflections)
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = self.mult(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) != self.order:
            raise GroupBuildError(
                "generator file does not define a reflection group: "
                f"reflections generate only {len(seen)} of {self.order} elements"
            )

    def _form_image(self, h_idx: int, w: int) -> Vector:
        """alpha_H o w^{-1}, a nonzero multiple of the form of w(H)."""
        form = self.hyperplanes[h_idx].form
        m = self.elements[self.inverse(w)]
        return tuple(
            sum((form[i] * m[i][j] for i in range(self.dimension)), ZERO)
            for j in range(self.dimension)
        )

    def hyperplane_image(self, h_idx: int, w: int) -> int:
        """Index of w(H): the form transforms as alpha o w^{-1}."""
        return self.hyperplane_index[self._normalized_form(self._form_image(h_idx, w))]

    def orbit_character(self, c: int) -> tuple[CycNum, ...]:
        """Class values of chi_C, the linear character with pi_C o w^{-1} = chi_C(w) pi_C.

        alpha_H o w^{-1} is lambda_H times the normalized form of w(H), with
        lambda_H its first nonzero coefficient, and w permutes the orbit, so
        chi_C(w) is the product of the lambda_H over H in C.  Memoized per orbit.
        """
        try:
            chars = self._orbit_chars
        except AttributeError:
            chars = self._orbit_chars = {}
        if c not in chars:
            vals = []
            for cls in self.classes:
                acc = ONE
                for h in self.orbits[c].members:
                    acc = acc * next(x for x in self._form_image(h, cls.rep) if not x.is_zero())
                vals.append(acc)
            chars[c] = tuple(vals)
        return chars[c]

    def _find_orbits(self) -> None:
        unassigned = set(range(len(self.hyperplanes)))
        orbits = []
        self.orbit_of_hyperplane = [0] * len(self.hyperplanes)
        gen_elts = self.generator_elements
        while unassigned:
            start = min(unassigned)
            seen = {start}
            frontier = [start]
            while frontier:
                cur = frontier.pop()
                for g in gen_elts:
                    img = self.hyperplane_image(cur, g)
                    if img not in seen:
                        seen.add(img)
                        frontier.append(img)
            members = tuple(sorted(seen))
            orders = {self.hyperplanes[h].order for h in members}
            if len(orders) != 1:
                raise ExactError("orbit with mixed stabilizer orders (bug)")
            pi = MultiPoly.constant(self.dimension, 1)
            for h in members:
                pi = pi * self.hyperplanes[h].alpha
            for h in members:
                self.orbit_of_hyperplane[h] = len(orbits)
            orbits.append(HyperplaneOrbit(members=members, order=orders.pop(), pi=pi))
            unassigned -= seen
        self.orbits = tuple(orbits)

    # -- conjugacy classes ----------------------------------------------------

    def _find_classes(self) -> None:
        class_of = [-1] * self.order
        classes: list[ConjugacyClass] = []
        gen_elts = self.generator_elements
        for i in range(self.order):
            if class_of[i] >= 0:
                continue
            seen = {i}
            frontier = [i]
            while frontier:
                cur = frontier.pop()
                for g in gen_elts:
                    conj = self.mult(self.mult(self.inverse(g), cur), g)
                    if conj not in seen:
                        seen.add(conj)
                        frontier.append(conj)
            members = tuple(sorted(seen))
            rep = min(members, key=lambda j: (len(self.words[j]), self.words[j]))
            for j in members:
                class_of[j] = len(classes)
            classes.append(ConjugacyClass(rep=rep, members=members, size=len(members)))
        self.classes = tuple(classes)
        self.class_of = class_of
        self.inverse_class = [
            class_of[self.inverse(c.rep)] for c in classes
        ]
        if sum(c.size for c in classes) != self.order:
            raise ExactError("class sizes do not sum to |W| (bug)")

    # -- primitive degrees ----------------------------------------------------

    def _molien_degrees(self) -> None:
        n = self.dimension
        nrefl = len(self.reflections)
        order = nrefl + n
        # 1/det(1 - T c) per class representative c, shared with the fake degrees;
        # promoted to the conductor, where the character values live.
        inverses = [series_inverse(self.char_poly_one_minus_Tw(c.rep), order) for c in self.classes]
        self.class_inverse_series = tuple(
            SeriesT([x.promote(self.conductor) for x in inv.coeffs], order) for inv in inverses
        )
        total = SeriesT([], order)
        for cls, inv in zip(self.classes, self.class_inverse_series):
            total = total + inv.scale(cls.size)
        molien = total.scale(Fraction(1, self.order))
        numer = series_inverse(molien.to_poly(), order)
        poly = numer.to_poly()
        if poly.degree != order:
            raise ExactError("Molien numerator has unexpected degree (bug)")
        degrees = []
        for _ in range(n):
            d = next(
                (k for k in range(1, poly.degree + 1) if not poly[k].is_zero()),
                None,
            )
            if d is None:
                raise ExactError("degree peeling failed (bug)")
            poly = poly_divide_exact(poly, poly_one_minus_Tk(d))
            degrees.append(d)
        if poly != PolyT([ONE]):
            raise ExactError("degree peeling left a nontrivial factor (bug)")
        self.degrees = tuple(sorted(degrees))
        prod = 1
        for d in self.degrees:
            prod *= d
        if prod != self.order:
            raise ExactError("product of degrees != |W| (bug)")
        if sum(d - 1 for d in self.degrees) != nrefl:
            raise ExactError("sum of (d_i - 1) != number of reflections (bug)")

    # -- reporting -------------------------------------------------------------

    def info(self) -> dict:
        return {
            "descriptor": self.descriptor.canonical(),
            "order": self.order,
            "dimension": self.dimension,
            "conductor": self.conductor,
            "degrees": list(self.degrees),
            "reflections": len(self.reflections),
            "hyperplanes": len(self.hyperplanes),
            "orbits": [
                {
                    "size": len(c.members),
                    "order": c.order,
                    "pi_degree": c.pi.total_degree(),
                }
                for c in self.orbits
            ],
            "classes": [
                {"size": c.size, "rep_word": list(self.words[c.rep])}
                for c in self.classes
            ],
            "alpha_normalization": "first nonzero coordinate coefficient = 1",
        }


# ---------------------------------------------------------------------------
# module-level operation surface
# ---------------------------------------------------------------------------

def build_group(descriptor: str | Descriptor, max_order: int = DEFAULT_MAX_ORDER) -> ReflectionGroup:
    if isinstance(descriptor, str):
        descriptor = parse_descriptor(descriptor)
    return ReflectionGroup(descriptor, max_order=max_order)
