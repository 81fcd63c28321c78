"""Numerical monodromy of the KZ connection on one irreducible block.

The connection is d + omega with omega = sum_H A_H dalpha_H/alpha_H, where
A_H = sum_j e_H k_{C,j} P_j and P_j is the exact projector onto the det^{-j}
isotypic part of the hyperplane stabilizer (assembled over CycNum, embedded
numerically).  Flat sections are parallel-transported along the braid
generator path

    v(t) = proj_H(v0) + exp(2 pi i t / e_H) (v0 - proj_H(v0)),

which ends at s_H v0 (with det(s_H) = exp(2 pi i / e_H)).

Frozen monodromy convention
---------------------------
The braid generator matrix is  m(l_H) = tau(s_H)^{-1} @ P  with P the
transport matrix of Phi' = -omega(v'(t)) Phi across the path.  On the cyclic
group this reproduces the analytic eigenvalue exp(2 pi i (j - e k_j)/e) for
the det^{-j} component, i.e. the Hecke-relation root q_{H,j} zeta_H^j, which
is the oracle that pins the convention.  At k = 0 the matrix equals
tau(s_H)^{-1}; for order-2 reflections (every Coxeter-like generator) that is
tau(s_H) itself, which is the self-calibration check run whenever k = 0.
Word monodromy composes anti-homomorphically, so the induced permutation
representation uses reversed-word products; the resulting map on Irr(W) is
the paper-normalized tau |-> tau(k), i.e. gamma(-k) in the functor labeling.
"""
from __future__ import annotations

import cmath
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from .exact import CycNum
from . import linalg
from .groups import ReflectionGroup
from .chars import CharacterTable, local_data
from .fake import FakeDegreeSet
from .minmat import Realization, matrix_realization


class KZError(Exception):
    """Numerical monodromy failure (calibration, margins, step underflow)."""


@dataclass(frozen=True)
class KZSettings:
    rtol: float = 1e-11  # local relative error; the contract ceiling is 1e-10
    curvature_tol: float = 1e-8
    hecke_tol: float = 1e-6
    calibration_tol: float = 1e-8
    match_tol: float = 1e-6
    margin_factor: float = 0.1
    path_samples: int = 128
    seed: int = 0
    retry_budget: int = 12
    max_group_order: int = 48
    max_rep_degree: int = 4
    min_step: float = 1e-10


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabelVector:
    """k_{C,j} for each orbit C and residue j in [0, e_C)."""

    values: tuple[tuple[complex, ...], ...]

    @staticmethod
    def zero(g: ReflectionGroup) -> LabelVector:
        return LabelVector(tuple(tuple(0j for _ in range(o.order)) for o in g.orbits))

    @staticmethod
    def from_json(obj, g: ReflectionGroup) -> LabelVector:
        vals = []
        for c, orbit in enumerate(g.orbits):
            row = obj.get(str(c))
            if row is None or len(row) != orbit.order:
                raise KZError(
                    f"label vector needs key '{c}' with {orbit.order} entries"
                )
            vals.append(tuple(_parse_label(x) for x in row))
        return LabelVector(tuple(vals))

    def is_integral(self) -> bool:
        for row in self.values:
            for v in row:
                if abs(v.imag) > 1e-12 or abs(v.real - round(v.real)) > 1e-12:
                    return False
        return True

    def is_zero(self) -> bool:
        return all(abs(v) < 1e-15 for row in self.values for v in row)

    def negated(self) -> LabelVector:
        return LabelVector(tuple(tuple(-v for v in row) for row in self.values))

    def q(self, c: int, j: int) -> complex:
        return cmath.exp(-2j * cmath.pi * self.values[c][j])

    def to_json(self) -> dict:
        return {
            str(c): [[v.real, v.imag] for v in row]
            for c, row in enumerate(self.values)
        }


def _parse_label(x) -> complex:
    if isinstance(x, (int, float)):
        return complex(x)
    if isinstance(x, str):
        return complex(Fraction(x))
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return complex(float(x[0]), float(x[1]))
    raise KZError(f"cannot parse label component {x!r}")


def euler_scalar(fs: FakeDegreeSet, row: int, k: LabelVector) -> complex:
    """(1/deg) sum_C e_C |C| sum_j k_{C,j} n_{C,j}: the Euler-field scalar."""
    g = fs.group
    deg = fs.table.rows[row].degree_int()
    total = 0j
    for c, orbit in enumerate(g.orbits):
        e, size = orbit.order, len(orbit.members)
        for j in range(e):
            total += e * size * k.values[c][j] * fs.local[row].multiplicities[c][j]
    return total / deg


# ---------------------------------------------------------------------------
# connection blocks
# ---------------------------------------------------------------------------

@dataclass
class ConnectionBlock:
    """Residue data of one irreducible block at a batch of label vectors.

    `residues` has shape (batch, hyperplanes, l, l); the batch dimension lets
    a scan over many label vectors share one set of paths and RK sweeps.
    """

    fs: FakeDegreeSet
    row: int
    realization: Realization
    labels: list[LabelVector]
    residues: np.ndarray
    base_point: np.ndarray
    alpha_rows: np.ndarray  # (hyperplanes, n) complex linear forms
    paths: list["BraidPath"]
    settings: KZSettings
    seed_used: int

    @property
    def group(self) -> ReflectionGroup:
        return self.fs.group

    @property
    def dim(self) -> int:
        return self.realization.dim


def stabilizer_projectors(real: Realization, h_idx: int) -> list[linalg.Matrix]:
    """Exact isotypic projectors (1/e) sum_w det^j(w) tau(w), j = 0..e-1."""
    g = real.group
    hp = g.hyperplanes[h_idx]
    e = hp.order
    projs = []
    for j in range(e):
        acc = None
        for w in hp.stabilizer:
            m = linalg.mat_scale(real.element_matrix(w), g.det(w) ** j)
            acc = m if acc is None else linalg.mat_add(acc, m)
        acc = linalg.mat_scale(acc, CycNum.rational(Fraction(1, e)))
        projs.append(acc)
    total = projs[0]
    for pj in projs[1:]:
        total = linalg.mat_add(total, pj)
    if not linalg.is_identity(total):
        raise KZError("stabilizer projectors do not sum to the identity (bug)")
    for pj in projs:
        if linalg.mat_mul(pj, pj) != pj:
            raise KZError("stabilizer projector is not idempotent (bug)")
    return projs


def _choose_base_point(g: ReflectionGroup, settings: KZSettings, alpha: np.ndarray):
    """Deterministic pseudo-random base point admissible for every braid path.

    Admissibility of v0, with v0 = center_H + nu_H the orthogonal split along
    each hyperplane H: v0 itself keeps the absolute margin to every
    hyperplane, every center_H stays off the other hyperplanes, and the
    constructed braid paths (see _build_path) keep a sampled margin.
    Violations resample v0 deterministically (seed, attempt).
    """
    nh, n = alpha.shape
    for attempt in range(settings.retry_budget):
        rng = random.Random((settings.seed, attempt, g.descriptor.canonical(), "v0").__repr__())
        v0 = np.array(
            [
                complex(rng.randint(-19, 19) / 20 + rng.randint(-19, 19) / 20 * 1j)
                for _ in range(n)
            ]
        )
        scale = float(np.sqrt(np.mean(np.abs(v0) ** 2))) if n else 1.0
        if scale < 1e-3:
            continue
        delta = settings.margin_factor * scale
        if min(abs(alpha @ v0)) < delta:
            continue
        paths = []
        ok = True
        for h in range(nh):
            path = _build_path(g, h, v0, alpha, delta, settings)
            if path is None:
                ok = False
                break
            paths.append(path)
        if ok:
            return v0, delta, attempt, paths
    raise KZError("no admissible base point within the retry budget")


def _build_path(g, h_idx, v0, alpha, delta, settings):
    """Braid generator path for one hyperplane, or None if inadmissible.

    When the closed 2-disc swept by rotating the normal component of v0 is
    free of the other hyperplanes, the path is the plain arc

        v(t) = center + exp(2 pi i t/e) nu.

    Otherwise (for some arrangements, e.g. coordinate vs diagonal hyperplanes
    in rank 2, no single base point makes every disc free) the path contracts
    first: straight to center + eps*nu, a radius-eps arc, straight out to
    s_H v0.  That composite is homotopic to the plain arc whenever the disc
    is free and is the standard braid generator always: its winding disc of
    radius eps misses the other hyperplanes by construction, which is what
    the Hecke relation needs.
    """
    hp = g.hyperplanes[h_idx]
    e = hp.order
    center, nu = _split_point(v0, alpha[h_idx])
    a_center = np.abs(alpha @ center)
    a_nu = np.abs(alpha @ nu)
    others = [hh for hh in range(len(alpha)) if hh != h_idx]
    if others and min(a_center[hh] for hh in others) < 0.3 * delta:
        return None
    if not others:
        eps = 1.0
    else:
        ratio = min(
            a_center[hh] / a_nu[hh] if a_nu[hh] > 1e-14 else np.inf for hh in others
        )
        eps = 1.0 if ratio > 1.3 else min(0.8 * ratio, 0.5)
        if eps < 1e-4:
            return None
    segments = _path_segments(center, nu, e, eps)
    ts = np.linspace(0.0, 1.0, settings.path_samples)
    for seg_point, _seg_vel in segments:
        for t in ts:
            vt = seg_point(t)
            vals = np.abs(alpha @ vt)
            vals[h_idx] = np.inf  # margin to H itself is |alpha_H| >= eps*|alpha_H(nu)|
            if len(alpha) > 1 and vals.min() < 0.25 * delta:
                return None
    return BraidPath(hyperplane=h_idx, order=e, center=center, nu=nu, eps=eps)


def _path_segments(center, nu, e: int, eps: float):
    """(point(t), velocity(t)) closures for the legs of the generator path."""
    rot = np.exp(2j * np.pi / e)
    if eps >= 1.0:
        return [
            (
                lambda t: center + np.exp(2j * np.pi * t / e) * nu,
                lambda t: (2j * np.pi / e) * np.exp(2j * np.pi * t / e) * nu,
            )
        ]
    return [
        (
            lambda t: center + (1 + t * (eps - 1)) * nu,
            lambda t: (eps - 1) * nu,
        ),
        (
            lambda t: center + eps * np.exp(2j * np.pi * t / e) * nu,
            lambda t: eps * (2j * np.pi / e) * np.exp(2j * np.pi * t / e) * nu,
        ),
        (
            lambda t: center + (eps + t * (1 - eps)) * rot * nu,
            lambda t: (1 - eps) * rot * nu,
        ),
    ]


def _split_point(v0: np.ndarray, alpha_row: np.ndarray):
    """Orthogonal split v0 = proj_H(v0) + nu with nu normal to H."""
    normal = alpha_row.conj()
    coef = (alpha_row @ v0) / (alpha_row @ normal)
    nu = coef * normal
    return v0 - nu, nu


def assemble_connection(
    fs: FakeDegreeSet,
    row: int,
    labels: LabelVector | list[LabelVector],
    settings: KZSettings = KZSettings(),
) -> ConnectionBlock:
    g = fs.group
    if g.order > settings.max_group_order:
        raise KZError(f"group order {g.order} exceeds the kz cap {settings.max_group_order}")
    if fs.table.rows[row].degree_int() > settings.max_rep_degree:
        raise KZError("representation degree exceeds the kz cap")
    batch = [labels] if isinstance(labels, LabelVector) else list(labels)
    real = matrix_realization(g, fs.table, row)
    l = real.dim
    nh = len(g.hyperplanes)
    alpha = np.array(
        [[x.to_complex() for x in g.hyperplanes[h].form] for h in range(nh)]
    )
    projs = {h: [linalg.mat_to_complex(p) for p in stabilizer_projectors(real, h)] for h in range(nh)}
    residues = np.zeros((len(batch), nh, l, l), dtype=complex)
    for b, k in enumerate(batch):
        for h in range(nh):
            c = g.orbit_of_hyperplane[h]
            e = g.hyperplanes[h].order
            acc = np.zeros((l, l), dtype=complex)
            for j in range(e):
                acc += e * k.values[c][j] * projs[h][j]
            residues[b, h] = acc
    v0, delta, attempt, paths = _choose_base_point(g, settings, alpha)
    block = ConnectionBlock(
        fs=fs,
        row=row,
        realization=real,
        labels=batch,
        residues=residues,
        base_point=v0,
        alpha_rows=alpha,
        paths=paths,
        settings=settings,
        seed_used=attempt,
    )
    _check_residue_spectra(block)
    _check_central_scalar(block)
    _check_curvature(block)
    return block


def _check_residue_spectra(block: ConnectionBlock) -> None:
    g = block.group
    fs, row = block.fs, block.row
    for b, k in enumerate(block.labels):
        for h in range(len(g.hyperplanes)):
            c = g.orbit_of_hyperplane[h]
            e = g.hyperplanes[h].order
            target = []
            for j in range(e):
                target.extend([e * k.values[c][j]] * fs.local[row].multiplicities[c][j])
            got = sorted(np.linalg.eigvals(block.residues[b, h]), key=lambda z: (z.real, z.imag))
            target = sorted(target, key=lambda z: (z.real, z.imag))
            for x, y in zip(got, target):
                if abs(x - y) > 1e-8:
                    raise KZError("residue spectrum mismatches the local data")


def _check_central_scalar(block: ConnectionBlock) -> None:
    l = block.dim
    for b, k in enumerate(block.labels):
        s = euler_scalar(block.fs, block.row, k)
        total = block.residues[b].sum(axis=0)
        if np.max(np.abs(total - s * np.eye(l))) > 1e-10 * max(1.0, abs(s)):
            raise KZError("sum of residues is not the Euler scalar times identity")


def _check_curvature(block: ConnectionBlock) -> None:
    """Spot-check omega ^ omega = 0 at random points (flatness)."""
    g = block.group
    n = g.dimension
    if n == 1 or len(g.hyperplanes) == 1:
        return  # a single log form commutes with itself
    rng = random.Random((block.settings.seed, g.descriptor.canonical(), "curv").__repr__())
    alpha = block.alpha_rows
    for _ in range(3):
        v = np.array(
            [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        )
        if np.min(np.abs(alpha @ v)) < 1e-2:
            continue
        x = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)])
        y = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)])
        wx = (alpha @ x) / (alpha @ v)
        wy = (alpha @ y) / (alpha @ v)
        for b in range(len(block.labels)):
            a = block.residues[b]
            scale = max(1.0, float(np.max(np.abs(a))) ** 2)
            m1 = np.einsum("h,hij->ij", wx, a)
            m2 = np.einsum("h,hij->ij", wy, a)
            curv = m1 @ m2 - m2 @ m1
            if np.max(np.abs(curv)) > block.settings.curvature_tol * scale:
                raise KZError("curvature spot check failed (assembly bug)")


# ---------------------------------------------------------------------------
# paths and transport
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BraidPath:
    """Braid generator path for one hyperplane.

    eps >= 1 means the plain arc center + exp(2 pi i t/order) nu; smaller eps
    means the contracted three-leg path (radial in, radius-eps arc, radial
    out).  Either way the endpoint is s_H v0.
    """

    hyperplane: int
    order: int
    center: np.ndarray
    nu: np.ndarray
    eps: float

    def segments(self):
        return _path_segments(self.center, self.nu, self.order, self.eps)

    def endpoint(self) -> np.ndarray:
        return self.center + np.exp(2j * np.pi / self.order) * self.nu


def braid_path(block: ConnectionBlock, h_idx: int) -> BraidPath:
    path = block.paths[h_idx]
    hp = block.group.hyperplanes[h_idx]
    end = path.endpoint()
    s_mat = linalg.mat_to_complex(block.group.elements[hp.generator])
    if np.max(np.abs(s_mat @ block.base_point - end)) > 1e-12 * max(
        1.0, float(np.max(np.abs(end)))
    ):
        raise KZError("path endpoint is not s_H v0 (bug)")
    return path


def _transport(block: ConnectionBlock, path: BraidPath) -> np.ndarray:
    """Transport matrices of Phi' = -omega(v'(t)) Phi, batched over labels.

    Classical fourth-order stepping with step doubling; the local relative
    error of the half-step pair is kept below rtol.  Legs of a composite path
    are integrated in sequence.
    """
    a = block.residues  # (B, H, l, l)
    alpha = block.alpha_rows
    bsz, nh, l, _ = a.shape
    rtol = block.settings.rtol
    y = np.broadcast_to(np.eye(l, dtype=complex), (bsz, l, l)).copy()

    for seg_point, seg_vel in path.segments():

        def omega(t: float) -> np.ndarray:
            coef = (alpha @ seg_vel(t)) / (alpha @ seg_point(t))
            return -np.einsum("h,bhij->bij", coef, a)

        def rk4(t: float, h: float, yy: np.ndarray) -> np.ndarray:
            k1 = np.einsum("bij,bjk->bik", omega(t), yy)
            k2 = np.einsum("bij,bjk->bik", omega(t + h / 2), yy + h / 2 * k1)
            k3 = np.einsum("bij,bjk->bik", omega(t + h / 2), yy + h / 2 * k2)
            k4 = np.einsum("bij,bjk->bik", omega(t + h), yy + h * k3)
            return yy + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        t, h = 0.0, 0.05
        while t < 1.0 - 1e-15:
            h = min(h, 1.0 - t)
            full = rk4(t, h, y)
            half = rk4(t + h / 2, h / 2, rk4(t, h / 2, y))
            err = float(np.max(np.abs(full - half)))
            scale = max(1.0, float(np.max(np.abs(half))))
            if err <= rtol * scale:
                y = half + (half - full) / 15.0  # Richardson extrapolation
                t += h
                growth = 2.0 if err == 0 else min(2.0, max(0.3, 0.9 * (rtol * scale / err) ** 0.2))
                h *= growth
            else:
                h *= max(0.1, 0.9 * (rtol * scale / err) ** 0.2)
            if h < block.settings.min_step:
                raise KZError("step-size underflow near a hyperplane")
    return y


def monodromy(block: ConnectionBlock, h_idx: int) -> np.ndarray:
    """Braid generator matrices (batch, l, l) in the frozen convention
    tau(s_H)^{-1} @ transport; self-calibrates whenever a label is zero."""
    path = braid_path(block, h_idx)
    transports = _transport(block, path)
    hp = block.group.hyperplanes[h_idx]
    s_inv = linalg.mat_to_complex(
        block.realization.element_matrix(block.group.inverse(hp.generator))
    )
    out = np.einsum("ij,bjk->bik", s_inv, transports)
    for b, k in enumerate(block.labels):
        if k.is_zero():
            target = s_inv  # equals tau(s_H) whenever e_H = 2
            if np.max(np.abs(out[b] - target)) > block.settings.calibration_tol:
                raise KZError("k = 0 calibration failed: monodromy != deck matrix")
    return out


def hecke_residuals(block: ConnectionBlock, h_idx: int, mats: np.ndarray) -> list[float]:
    """|| prod_j (T - q_{H,j} zeta_H^j) || per batch entry."""
    g = block.group
    c = g.orbit_of_hyperplane[h_idx]
    e = g.hyperplanes[h_idx].order
    out = []
    for b, k in enumerate(block.labels):
        l = mats.shape[-1]
        prod = np.eye(l, dtype=complex)
        for j in range(e):
            root = k.q(c, j) * cmath.exp(2j * cmath.pi * j / e)
            prod = prod @ (mats[b] - root * np.eye(l))
        out.append(float(np.max(np.abs(prod))))
    return out


@dataclass
class MonodromyRep:
    """Braid generator matrices for one block, with achieved diagnostics."""

    row: int
    labels: list[LabelVector]
    hyperplanes: list[int]
    matrices: dict[int, np.ndarray]  # h_idx -> (batch, l, l)
    residuals: dict[int, list[float]]
    settings: KZSettings
    base_point: np.ndarray
    seed_used: int

    def matrix(self, h_idx: int, b: int = 0) -> np.ndarray:
        return self.matrices[h_idx][b]

    def to_json(self) -> dict:
        return {
            "row": self.row,
            "labels": [k.to_json() for k in self.labels],
            "hyperplanes": self.hyperplanes,
            "matrices": {
                str(h): [_mat_json(self.matrices[h][b]) for b in range(len(self.labels))]
                for h in self.hyperplanes
            },
            "hecke_residuals": {str(h): self.residuals[h] for h in self.hyperplanes},
            "base_point": [[z.real, z.imag] for z in self.base_point],
            "base_point_attempt": self.seed_used,
            "deck_convention": "tau(s_H)^{-1} compose transport",
            "rtol": self.settings.rtol,
        }


def _mat_json(m: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in rw] for rw in m]


def monodromy_rep(
    fs: FakeDegreeSet,
    row: int,
    labels: LabelVector | list[LabelVector],
    settings: KZSettings = KZSettings(),
    hyperplanes: list[int] | None = None,
) -> MonodromyRep:
    block = assemble_connection(fs, row, labels, settings)
    g = fs.group
    if hyperplanes is None:
        hyperplanes = _generator_hyperplanes(g)
    mats = {}
    residuals = {}
    for h in hyperplanes:
        m = monodromy(block, h)
        mats[h] = m
        residuals[h] = hecke_residuals(block, h, m)
    return MonodromyRep(
        row=row,
        labels=block.labels,
        hyperplanes=list(hyperplanes),
        matrices=mats,
        residuals=residuals,
        settings=settings,
        base_point=block.base_point,
        seed_used=block.seed_used,
    )


def _generator_hyperplanes(g: ReflectionGroup) -> list[int]:
    """Hyperplane index of each group generator; requires every generator to
    be the distinguished reflection of its hyperplane."""
    out = []
    for gelt in g.generator_elements:
        if gelt not in g.reflections:
            raise KZError("a group generator is not a reflection")
        form = g._reflection_form(gelt)
        h = g.hyperplane_index[form]
        if g.hyperplanes[h].generator != gelt:
            raise KZError("a group generator is not the distinguished s_H")
        out.append(h)
    return out


# ---------------------------------------------------------------------------
# gamma permutation
# ---------------------------------------------------------------------------

def gamma_scan(
    fs: FakeDegreeSet,
    ks: list[LabelVector],
    settings: KZSettings = KZSettings(),
) -> list[dict]:
    """The induced permutation of Irr(W) for each integral label vector.

    Monodromy composes anti-homomorphically along words, so the character of
    the induced genuine representation (the transposed anti-representation)
    is read off from reversed-word products.  The computed map sends a row to
    its monodromy deformation at +k, which is gamma(-k) in the functor
    normalization; the composition probe pairs each k with -k accordingly.
    """
    g = fs.group
    for k in ks:
        if not k.is_integral():
            raise KZError("gamma needs integral label vectors")
    gen_hyps = _generator_hyperplanes(g)
    nrows = len(fs.table.rows)
    embedded_rows = [
        np.array([v.to_complex() for v in r.values]) for r in fs.table.rows
    ]
    class_words = [g.words[c.rep] for c in g.classes]
    gen_of_hyp = {h: a for a, h in enumerate(gen_hyps)}

    results = [
        {
            "k": k.to_json(),
            "mapping": {},
            "pure_braid_residual": 0.0,
            "match_residual": 0.0,
            "convention": {
                "computed": "row -> monodromy deformation at +k",
                "functor_label": "gamma(-k)",
            },
        }
        for k in ks
    ]
    for row in range(nrows):
        settings_row = settings
        mats, residual = _gamma_matrices(fs, row, ks, gen_hyps, settings_row)
        for b in range(len(ks)):
            results[b]["pure_braid_residual"] = max(
                results[b]["pure_braid_residual"], residual[b]
            )
        # characters of the induced representation, per batch entry
        values = np.zeros((len(ks), len(class_words)), dtype=complex)
        for ci, word in enumerate(class_words):
            l = mats[gen_hyps[0]].shape[-1]
            acc = np.broadcast_to(np.eye(l, dtype=complex), (len(ks), l, l)).copy()
            for a in reversed(word):
                acc = np.einsum("bij,bjk->bik", mats[gen_hyps[a]], acc)
            values[:, ci] = np.trace(acc, axis1=1, axis2=2)
        for b in range(len(ks)):
            match, resid = _match_row(values[b], embedded_rows, settings.match_tol)
            results[b]["match_residual"] = max(results[b]["match_residual"], resid)
            results[b]["mapping"][row] = match
    for b, k in enumerate(ks):
        mapping = results[b]["mapping"]
        image = sorted(mapping.values())
        if image != list(range(nrows)):
            raise KZError(f"gamma output is not a permutation: {mapping}")
        for src, dst in mapping.items():
            if fs.table.rows[src].degree_int() != fs.table.rows[dst].degree_int():
                raise KZError("gamma does not preserve dimensions")
            if fs.local[src].multiplicities != fs.local[dst].multiplicities:
                raise KZError("gamma does not preserve local data")
        results[b]["pairs"] = sorted(mapping.items())
    return results


def _gamma_matrices(fs, row, ks, gen_hyps, settings):
    """Monodromy matrices for the generator braids plus the pure-braid check."""
    block = assemble_connection(fs, row, ks, settings)
    g = fs.group
    mats = {}
    residual = [0.0] * len(ks)
    for h in gen_hyps:
        m = monodromy(block, h)
        mats[h] = m
        e = g.hyperplanes[h].order
        l = m.shape[-1]
        power = np.broadcast_to(np.eye(l, dtype=complex), m.shape).copy()
        for _ in range(e):
            power = np.einsum("bij,bjk->bik", m, power)
        for b in range(len(ks)):
            r = float(np.max(np.abs(power[b] - np.eye(l))))
            residual[b] = max(residual[b], r)
            if r > settings.hecke_tol:
                raise KZError(
                    f"pure braid generator acts nontrivially at integral k (residual {r:.2e})"
                )
    return mats, residual


def _match_row(values: np.ndarray, embedded_rows, tol: float):
    dists = [float(np.max(np.abs(values - er))) for er in embedded_rows]
    order = sorted(range(len(dists)), key=lambda i: dists[i])
    best = order[0]
    if dists[best] > tol:
        raise KZError(f"no table row within {tol} of the monodromy character")
    if len(order) > 1 and dists[order[1]] <= tol:
        raise KZError("ambiguous character match; tighten the integrator")
    return best, dists[best]


def gamma_permutation(
    fs: FakeDegreeSet, k: LabelVector, settings: KZSettings = KZSettings()
) -> dict:
    return gamma_scan(fs, [k], settings)[0]
