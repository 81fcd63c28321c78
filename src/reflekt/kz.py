"""Numerical monodromy of the KZ connection on one irreducible block.

The connection is d + omega with omega = sum_H A_H dalpha_H/alpha_H, where
A_H = sum_j e_H k_{C,j} P_j and P_j is the exact projector onto the det^{-j}
isotypic part of the hyperplane stabilizer (assembled over CycNum, embedded
numerically).  Flat sections are parallel-transported along the braid
generator path

    v(t) = proj_H(v0) + exp(2 pi i t / e_H) (v0 - proj_H(v0)),

which ends at s_H v0 (with det(s_H) = exp(2 pi i / e_H)).  The base point
v0 and the braid paths depend only on the group and the seed: they are chosen
once per (group, seed) and kept, read-only, for as long as the group lives.
On a block of degree 1 each A_H is a scalar, omega is closed, and the
transport along a path is exactly exp(-sum_H A_H Lambda_H) with
Lambda_H = int dalpha_H/alpha_H, computed once per path (see _log_integrals).
Blocks of degree >= 2 are transported by power series in the coordinate u of
v = center + u nu, disc by disc (see _transport); more than TERM_BUDGET
series terms on one path raise KZError.

The label axis is a numpy axis: the Euler-scalar check builds each row's
target for all labels at once, the k = 0 calibration reads one zero-label
mask per block, the Hecke-residual and determinant checks run on the stacked
(labels, l, l) matrices, and gamma_scan matches a degree sweep's characters
in one distance array.  A row's matrix realization and stabilizer projectors
do not depend on the labels; they are built once per (fake-degree set, row)
and kept, read-only, while the set lives.  The residue spectra need no label
either: they follow from the exact idempotent checks on the P_j plus the
ranks tr P_j (see _check_residue_spectra).

Frozen monodromy convention
---------------------------
The braid generator matrix is  m(l_H) = tau(s_H)^{-1} @ P  with P the
transport matrix of Phi' = -omega(v'(t)) Phi across the path.  On the cyclic
group this reproduces the analytic eigenvalue exp(2 pi i (j - e k_j)/e) for
the det^{-j} component, i.e. the Hecke-relation root q_{H,j} zeta_H^j, which
is the oracle that pins the convention.  At k = 0 the matrix equals
tau(s_H)^{-1}; for order-2 reflections (every Coxeter-like generator) that is
tau(s_H) itself, which is the self-calibration check run whenever k = 0.
Word monodromy composes anti-homomorphically: the loop of w = s_{a1}...s_{am}
acts by rho(w) = m(l_{am})...m(l_{a1}), which is tau(w^{-1}) at k = 0.  At an
integral k the representation of W deforming tau is w |-> rho(w)^{-1}, whose
character is conj tr rho(w); gamma_scan therefore matches tr rho(w) against
the conjugated table rows, and gamma(0) is the identity on every group.  The
resulting map on Irr(W) is tau |-> tau(k), i.e. gamma(-k) in the functor
labeling.  The dual connection gives tau(k)* = (tau*)(k'), k'_{C,j} =
-k_{C,-j mod e_C}: with every e_C = 2 and real characters, gamma(k) = gamma(-k).
"""
from __future__ import annotations

import cmath
import random
import weakref
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

import numpy as np

from .exact import CycNum
from . import linalg
from .groups import ReflectionGroup
from .fake import FakeDegreeSet
from .minmat import Realization, matrix_realization


class KZError(Exception):
    """Numerical monodromy failure (calibration, margins, term budget, over- or underflow)."""


class KZSettings(NamedTuple):
    hecke_tol: float = 1e-6
    match_tol: float = 1e-6
    seed: int = 0


CURVATURE_TOL = 1e-8
CALIBRATION_TOL = 1e-8
MARGIN_FACTOR = 0.1  # base-point margin to the hyperplanes, relative to |v0|
PATH_SAMPLES = 128
RETRY_BUDGET = 12  # base-point draws per (group, seed)
MAX_GROUP_ORDER = 48
RHO = 0.5  # series step length over the distance to the nearest pole
GROWTH = 4.0  # bound on the step length times sum_H ||A_H||/|d_H|
TINY = 2.0 ** -52  # a series step ends on 3 consecutive terms this small
TERM_BUDGET = 100_000  # series terms per path (degree >= 2)


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

class LabelVector(NamedTuple):
    """k_{C,j} for each orbit C and residue j in [0, e_C)."""

    values: tuple[tuple[complex, ...], ...]

    @staticmethod
    def zero(g: ReflectionGroup) -> LabelVector:
        return LabelVector(tuple(tuple(0j for _ in range(o.order)) for o in g.orbits))

    @staticmethod
    def from_json(obj, g: ReflectionGroup) -> LabelVector:
        if not isinstance(obj, dict):
            raise KZError("label vector must be a JSON object")
        stray = sorted(set(obj) - {str(c) for c in range(len(g.orbits))})
        if stray:
            raise KZError(f"label vector key '{stray[0]}' names no orbit")
        vals = []
        for c, orbit in enumerate(g.orbits):
            row = obj.get(str(c))
            if not isinstance(row, list) or len(row) != orbit.order:
                raise KZError(
                    f"label vector needs key '{c}' with {orbit.order} entries"
                )
            vals.append(tuple(_parse_label(x) for x in row))
        return LabelVector(tuple(vals))

    def is_integral(self) -> bool:
        return not any(
            abs(v.imag) > 1e-12 or abs(v.real - round(v.real)) > 1e-12 for row in self.values for v in row
        )

    def negated(self) -> LabelVector:
        return LabelVector(tuple(tuple(-v for v in row) for row in self.values))

    def q(self, c: int, j: int) -> complex:
        try:
            return cmath.exp(-2j * cmath.pi * self.values[c][j])
        except OverflowError:
            raise KZError(f"q_{{{c},{j}}} = exp(-2 pi i k_{{{c},{j}}}) overflows") from None

    def to_json(self) -> dict:
        return {str(c): [[v.real, v.imag] for v in row] for c, row in enumerate(self.values)}


def _parse_label(x) -> complex:
    """A finite complex label from a number, a fraction string or a [re, im]
    pair; booleans are not numbers here."""
    z = None
    parts = x if isinstance(x, (list, tuple)) else [x]
    if not any(isinstance(p, bool) for p in parts):
        try:
            if isinstance(x, (int, float)):
                z = complex(x)
            elif isinstance(x, str):
                z = complex(Fraction(x))
            elif isinstance(x, (list, tuple)) and len(x) == 2:
                z = complex(float(x[0]), float(x[1]))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
    if z is None or not cmath.isfinite(z):
        raise KZError(f"cannot parse label component {x!r} as a finite number")
    return z


def _label_arrays(g: ReflectionGroup, labels: list[LabelVector]) -> list[np.ndarray]:
    """k_{C,j} of every label, one (labels, e_C) array per orbit C."""
    return [np.array([k.values[c] for k in labels], dtype=complex) for c in range(len(g.orbits))]


def euler_scalar(fs: FakeDegreeSet, row: int, k: LabelVector) -> complex:
    """(1/deg) sum_C e_C |C| sum_j k_{C,j} n_{C,j}: the Euler-field scalar."""
    return complex(_euler_scalars(fs, row, _label_arrays(fs.group, [k]))[0])


@np.errstate(over="ignore", invalid="ignore")
def _euler_scalars(fs: FakeDegreeSet, row: int, kc: list[np.ndarray]) -> np.ndarray:
    """The Euler scalar of the row at each label of the orbit arrays kc."""
    mults = fs.local[row].multiplicities
    total = sum(kc[c] @ np.array(mults[c]) * (o.order * len(o.members)) for c, o in enumerate(fs.group.orbits))
    return total / fs.table.rows[row].degree_int()


# ---------------------------------------------------------------------------
# connection blocks
# ---------------------------------------------------------------------------

class ConnectionBlock:
    """Residue data of irreducible blocks of one degree at a batch of labels.

    Batch entry b is row `rows[b]` at label vector `labels[b]`; `residues` has
    shape (batch, hyperplanes, l, l).  The base point and braid paths depend
    only on the group and the seed, so all entries share one transport sweep.
    """

    def __init__(self, fs: FakeDegreeSet, rows: list[int], labels: list[LabelVector],
                 realizations: dict[int, Realization], residues: np.ndarray, base_point: np.ndarray,
                 alpha_rows: np.ndarray, paths: tuple["BraidPath", ...], settings: KZSettings,
                 seed_used: int, zero_labels: np.ndarray, steps: dict[int, dict]):
        self.fs = fs
        self.rows = rows
        self.labels = labels
        self.realizations = realizations
        self.residues = residues
        self.base_point = base_point
        self.alpha_rows = alpha_rows  # (hyperplanes, n) complex linear forms
        self.paths = paths
        self.settings = settings
        self.seed_used = seed_used
        self.zero_labels = zero_labels  # (batch,) bool: the entries whose label vector is 0
        self.steps = steps  # hyperplane -> series statistics, filled by `monodromy`

    @property
    def group(self) -> ReflectionGroup:
        return self.fs.group


def stabilizer_projectors(real: Realization, h_idx: int) -> np.ndarray:
    """Isotypic projectors (1/e) sum_w det^j(w) tau(w), j = 0..e-1, built and
    checked exactly, as one read-only (e, l, l) array.  As idempotents that
    sum to I they give sum_j x_j P_j the eigenvalue x_j with multiplicity
    rank P_j = tr P_j, which fixes the residue spectra."""
    g = real.group
    hp = g.hyperplanes[h_idx]
    e = hp.order

    def projector(j: int) -> linalg.Matrix:
        terms = (linalg.mat_scale(real.element_matrix(w), g.det(w) ** j) for w in hp.stabilizer)
        return linalg.mat_scale(reduce(linalg.mat_add, terms), CycNum.rational(Fraction(1, e)))

    projs = [projector(j) for j in range(e)]
    if not linalg.is_identity(reduce(linalg.mat_add, projs)):
        raise KZError("stabilizer projectors do not sum to the identity (bug)")
    for pj in projs:
        if linalg.mat_mul(pj, pj) != pj:
            raise KZError("stabilizer projector is not idempotent (bug)")
    return _read_only(np.array([linalg.mat_to_complex(p) for p in projs]))


# group -> {seed: _choose_base_point(group, seed)}; nothing in an arrangement
# refers back to its group, so the memo does not keep groups alive.
_ARRANGEMENTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _arrangement(g: ReflectionGroup, seed: int):
    """(alpha rows, base point, attempt, braid paths) of g at seed, computed
    once per (group, seed); every array in it is read-only."""
    per_seed = _ARRANGEMENTS.setdefault(g, {})
    if seed not in per_seed:
        per_seed[seed] = _choose_base_point(g, seed)
    return per_seed[seed]


# fake-degree set -> {row: _row_data(fs, row)}; nothing in it is derived from
# fs.local or refers back to fs, so the memo does not keep sets alive.
_ROW_DATA: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _row_data(fs: FakeDegreeSet, row: int):
    """(realization, stabilizer projectors per hyperplane) of a row, built once per (fs, row)."""
    per_row = _ROW_DATA.setdefault(fs, {})
    if row not in per_row:
        real = matrix_realization(fs.group, fs.table, row)
        per_row[row] = real, tuple(stabilizer_projectors(real, h) for h in range(len(fs.group.hyperplanes)))
    return per_row[row]


def _choose_base_point(g: ReflectionGroup, seed: int):
    """Deterministic pseudo-random base point admissible for every braid path.

    Admissibility of v0, with v0 = center_H + nu_H the orthogonal split along
    each hyperplane H: v0 itself keeps the absolute margin to every
    hyperplane, every center_H stays off the other hyperplanes, and the
    constructed braid paths (see _build_path) keep a sampled margin.
    Violations resample v0 deterministically (seed, attempt).
    """
    alpha = _read_only(
        np.array([[x.to_complex() for x in hp.form] for hp in g.hyperplanes])
    )
    nh, n = alpha.shape
    for attempt in range(RETRY_BUDGET):
        rng = random.Random((seed, attempt, g.descriptor.canonical(), "v0").__repr__())
        v0 = np.array([complex(rng.randint(-19, 19) / 20 + rng.randint(-19, 19) / 20 * 1j) for _ in range(n)])
        scale = float(np.sqrt(np.mean(np.abs(v0) ** 2))) if n else 1.0
        if scale < 1e-3:
            continue
        delta = MARGIN_FACTOR * scale
        if min(abs(alpha @ v0)) < delta:
            continue
        paths = []
        for h in range(nh):
            path = _build_path(g, h, v0, alpha, delta)
            if path is None:
                break
            paths.append(path)
        else:
            return alpha, _read_only(v0), attempt, tuple(paths)
    raise KZError("no admissible base point within the retry budget")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _build_path(g, h_idx, v0, alpha, delta):
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
    the Hecke relation needs.  An admissible path is checked to end at s_H v0.
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
        ratio = min(a_center[hh] / a_nu[hh] if a_nu[hh] > 1e-14 else np.inf for hh in others)
        eps = 1.0 if ratio > 1.3 else min(0.8 * ratio, 0.5)
        if eps < 1e-4:
            return None
    segments = _path_segments(center, nu, e, eps)
    ts = np.linspace(0.0, 1.0, PATH_SAMPLES)[:, None]
    # one (samples, n) @ (n, others) product per leg; the margin to H itself
    # is |alpha_H| >= eps*|alpha_H(nu)|
    if others and any(np.abs(point(ts) @ alpha[others].T).min() < 0.25 * delta for point, _vel in segments):
        return None
    path = BraidPath(
        hyperplane=h_idx,
        order=e,
        center=_read_only(center),
        nu=_read_only(nu),
        eps=eps,
        log_integrals=_read_only(_log_integrals(segments, alpha, h_idx, e)),
    )
    end = path.endpoint()
    s_mat = linalg.mat_to_complex(g.matrix(hp.generator))
    if np.max(np.abs(s_mat @ v0 - end)) > 1e-12 * max(1.0, float(np.max(np.abs(end)))):
        raise KZError("path endpoint is not s_H v0 (bug)")
    return path


def _log_integrals(segments, alpha, h_idx: int, e: int) -> np.ndarray:
    """Lambda_{H'} = int dalpha_{H'}/alpha_{H'} along the path, per hyperplane.

    For H' != H it is the sum over the legs of the principal
    Log(alpha_{H'}(leg end) / alpha_{H'}(leg start)), which is exact when
    alpha_{H'} turns by less than pi along the leg:
      - a radial leg maps to a straight segment of C that misses 0;
      - on an arc leg alpha_{H'} stays in a disc around alpha_{H'}(center)
        that misses 0: its radius eps |alpha_{H'}(nu)| is at most
        0.8 |alpha_{H'}(center)| on the contracted arc (eps <= 0.8 ratio),
        and below |alpha_{H'}(center)| / 1.3 on the plain arc (ratio > 1.3).
    For H itself alpha_H(center) = 0, so the arc turns alpha_H by exactly
    2 pi/e and the radial legs cancel; Lambda_H = 2 pi i/e is set outright,
    since at e = 2 the endpoint ratio is -1, where the principal Log's branch
    is ambiguous.
    """
    lam = np.zeros(len(alpha), dtype=complex)
    for seg_point, _seg_vel in segments:
        lam += np.log((alpha @ seg_point(1.0)) / (alpha @ seg_point(0.0)))
    lam[h_idx] = 2j * np.pi / e
    return lam


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
    row: int | list[int],
    labels: LabelVector | list[LabelVector],
    settings: KZSettings = KZSettings(),
) -> ConnectionBlock:
    """The block of each row (all of one degree) at each label vector, rows
    outermost; every check runs on every (row, label) entry."""
    g = fs.group
    if g.order > MAX_GROUP_ORDER:
        raise KZError(f"group order {g.order} exceeds the kz cap {MAX_GROUP_ORDER}")
    rows = [row] if isinstance(row, int) else list(row)
    degrees = {fs.table.rows[r].degree_int() for r in rows}
    if len(degrees) != 1:
        raise KZError("the rows of one block must share their degree")
    batch = [labels] if isinstance(labels, LabelVector) else list(labels)
    data = {r: _row_data(fs, r) for r in rows}
    kc = _label_arrays(g, batch)
    l = degrees.pop()
    nh, nk = len(g.hyperplanes), len(batch)
    residues = np.zeros((len(rows) * nk, nh, l, l), dtype=complex)
    for i, r in enumerate(rows):
        for h in range(nh):
            e = g.hyperplanes[h].order
            kh = kc[g.orbit_of_hyperplane[h]]
            with np.errstate(over="ignore", invalid="ignore"):
                residues[i * nk : (i + 1) * nk, h] = np.einsum("bj,jxy->bxy", e * kh, data[r][1][h])
    if not np.all(np.isfinite(residues)):
        raise KZError("the label vector gives residues that are not finite")
    alpha, v0, attempt, paths = _arrangement(g, settings.seed)
    zero = np.all(np.abs(np.concatenate(kc, axis=1)) < 1e-15, axis=1)
    block = ConnectionBlock(
        fs=fs,
        rows=[r for r in rows for _ in batch],
        labels=batch * len(rows),
        realizations={r: data[r][0] for r in rows},
        residues=residues,
        base_point=v0,
        alpha_rows=alpha,
        paths=paths,
        settings=settings,
        seed_used=attempt,
        zero_labels=np.tile(zero, len(rows)),
        steps={},
    )
    _check_residue_spectra(fs, rows, data)
    _check_central_scalar(block, rows, kc)
    _check_curvature(block)
    return block


def _check_residue_spectra(fs: FakeDegreeSet, rows: list[int], data: dict) -> None:
    """A_H = sum_j e_H k_{C,j} P_j has the eigenvalue e_H k_{C,j} with
    multiplicity rank P_j = tr P_j at every label, so the spectra match the
    local data iff every rank is n_{C,j}.  The traces are exact integers
    embedded to about 1e-15, so rounding reads them off."""
    g = fs.group
    for r in rows:
        mults = fs.local[r].multiplicities
        for h, projs in enumerate(data[r][1]):
            ranks = np.rint(np.trace(projs, axis1=1, axis2=2).real)
            if not np.array_equal(ranks, mults[g.orbit_of_hyperplane[h]]):
                raise KZError("residue spectrum mismatches the local data")


def _check_central_scalar(block: ConnectionBlock, rows: list[int], kc: list[np.ndarray]) -> None:
    s = np.concatenate([_euler_scalars(block.fs, r, kc) for r in rows])
    total = block.residues.sum(axis=1)
    err = np.max(np.abs(total - s[:, None, None] * np.eye(total.shape[-1])), axis=(1, 2))
    if np.any(err > 1e-10 * np.maximum(1.0, np.abs(s))):
        raise KZError("sum of residues is not the Euler scalar times identity")


def _check_curvature(block: ConnectionBlock) -> None:
    """Spot-check omega ^ omega = 0 at random points (flatness)."""
    g = block.group
    n = g.dimension
    if n == 1 or len(g.hyperplanes) == 1:
        return  # a single log form commutes with itself
    rng = random.Random((block.settings.seed, g.descriptor.canonical(), "curv").__repr__())
    alpha = block.alpha_rows
    a = block.residues
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(1, 2, 3)) ** 2)
    for _ in range(3):
        v = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)])
        if np.min(np.abs(alpha @ v)) < 1e-2:
            continue
        x = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)])
        y = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)])
        wx = (alpha @ x) / (alpha @ v)
        wy = (alpha @ y) / (alpha @ v)
        m1 = np.einsum("h,bhij->bij", wx, a)
        m2 = np.einsum("h,bhij->bij", wy, a)
        curv = m1 @ m2 - m2 @ m1
        if np.any(np.max(np.abs(curv), axis=(1, 2)) > CURVATURE_TOL * scale):
            raise KZError("curvature spot check failed (assembly bug)")


# ---------------------------------------------------------------------------
# paths and transport
# ---------------------------------------------------------------------------

class BraidPath(NamedTuple):
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
    log_integrals: np.ndarray  # (hyperplanes,): Lambda_{H'} = int dalpha_{H'}/alpha_{H'}

    def segments(self):
        return _path_segments(self.center, self.nu, self.order, self.eps)

    def endpoint(self) -> np.ndarray:
        return self.center + np.exp(2j * np.pi / self.order) * self.nu


def _transport(block: ConnectionBlock, path: BraidPath) -> tuple[np.ndarray, dict]:
    """Transport matrices (batch, l, l) of Phi' = -omega(v'(t)) Phi along the
    legs of the path in turn, and the path's statistics: series steps (discs),
    series terms and eps.

    At degree l = 1 every A_H is a scalar and omega is closed, so the
    transport is exactly exp(-sum_H A_H Lambda_H), one product for the whole
    batch: no step is taken (steps = terms = 0), and a result that is not
    finite raises KZError.

    Otherwise by power series in the braid-path coordinate u.  Every leg lies
    on v = center + u nu: the plain arc is u = exp(i theta), theta from 0 to
    2 pi/e; the contracted path is u = 1 to eps, eps exp(i theta), then eps
    zeta_e to zeta_e.  With a_H = alpha_H(center), b_H = alpha_H(nu) and
    p_H = -a_H/b_H, dalpha_H/alpha_H = du/(u - p_H); p_H = 0 for the path's
    own H, and a term with b_H = 0 drops out.  So Y solves dY/du =
    -sum_H A_H/(u - p_H) Y.  A step from u0 to u0 + x sums the Taylor series
    at u0: with d_H = u0 - p_H the scaled coefficients (y_0 = Y(u0)) obey

        W_{H,n} = y_n - (x/d_H) W_{H,n-1},  W_{H,0} = y_0,
        y_{n+1} = -(x/(n+1)) sum_H (A_H/d_H) W_{H,n},

    one batched (H, l, l, batch) contraction per term, written into buffers
    that _series_step allocates once per step.  |x| <= min(RHO
    min_H |d_H|, GROWTH / sum_H ||A_H||/|d_H|), ||A_H|| the largest row-sum
    norm over the batch, so no step is ever rejected.  A step sums until, on
    3 consecutive terms, every batch entry's term is at most TINY = 2^-52 of
    its partial sum, both maxima read from one magnitude array of the
    stacked (term, partial sum): the kernel sums to double precision.  Arcs
    of radius r are stepped along chords: the own pole 0 is r away, so
    |x| <= r/2, the chord subtends less than pi, and the arc from u0 to
    u0 + x stays within |x| of u0.  The region between chord and arc thus
    lies in the disc |u - u0| <= |x| < min_H |d_H|, free of poles, so the
    continuation stays on the braid generator's branch.  More than
    TERM_BUDGET terms on one path, or a result that is not finite, raise
    KZError.
    """
    a = block.residues  # (B, H, l, l)
    bsz, _, l, _ = a.shape
    stats = {"steps": 0, "terms": 0, "eps": path.eps}
    if l == 1:
        with np.errstate(over="ignore", invalid="ignore"):
            phi = np.exp(-(a[:, :, 0, 0] @ path.log_integrals))
        if not np.all(np.isfinite(phi)):
            raise KZError("degree-1 transport is not finite")
        return phi.reshape(bsz, 1, 1), stats
    alpha = block.alpha_rows
    with np.errstate(divide="ignore", invalid="ignore"):
        poles = -(alpha @ path.center) / (alpha @ path.nu)
    poles[path.hyperplane] = 0.0
    live = np.isfinite(poles)  # b_H = 0: alpha_H is constant on the path
    poles, a = poles[live], a[:, live]
    res = a.transpose(2, 1, 3, 0).reshape(l, -1, 1, bsz)  # A as (l, H*l, 1, B)
    norms = np.abs(a).sum(axis=-1).max(axis=(0, 2))
    y = np.broadcast_to(np.eye(l, dtype=complex)[:, :, None], (l, l, bsz)).copy()
    eps, zeta = path.eps, np.exp(2j * np.pi / path.order)
    legs = [(1.0, zeta, 1.0)] if eps >= 1.0 else [(1.0, eps, 0), (eps, eps * zeta, eps), (eps * zeta, zeta, 0)]
    for u0, end, radius in legs:
        theta = 0.0
        while u0 != end:
            d = u0 - poles
            load = float(norms @ (1 / np.abs(d)))
            h = min(RHO * np.abs(d).min(), GROWTH / load if load else np.inf)
            if radius:  # the chord to radius exp(i theta)
                theta += 2 * np.arcsin(h / (2 * radius))
                u1 = end if theta >= 2 * np.pi / path.order else radius * np.exp(1j * theta)
            else:
                u1 = end if abs(end - u0) <= h else u0 + h * (end - u0) / abs(end - u0)
            y = _series_step(y, res, d, u1 - u0, stats)
            u0 = u1
    return np.moveaxis(y, 2, 0), stats


@np.errstate(over="ignore", invalid="ignore")
def _series_step(y, res, d, x, stats) -> np.ndarray:
    """Y(u0 + x) from y = Y(u0) of shape (l, l, B), by the recursion in
    _transport, in buffers allocated once per step: W (H, l, l, B), the
    product (l, H*l, l, B), and (last term, partial sum) stacked as (2, l, l, B).
    W starts at 0, so its first update gives W_0 = y_0 - ratio * 0; both
    maxima of the stopping test come from one magnitude array of the stack."""
    l, bsz = y.shape[0], y.shape[2]
    c = res * np.repeat(-x / d, l)[None, :, None, None]  # -x A_H/d_H
    ratio = (x / d)[:, None, None, None]
    w = np.zeros((len(d), l, l, bsz), dtype=complex)
    flat, prod = w.reshape(-1, l, bsz), np.empty(c.shape[:2] + (l, bsz), dtype=complex)
    stack = np.array([y, y])
    term, total = stack
    mags, top, big = np.empty(stack.shape), np.empty((2, bsz)), np.empty(bsz, dtype=bool)
    n, quiet = 0, 0
    while quiet < 3:
        if stats["terms"] >= TERM_BUDGET:
            raise KZError(f"transport exceeded {TERM_BUDGET} series terms on one path")
        np.subtract(term, np.multiply(ratio, w, out=w), out=w)
        n += 1
        np.divide(np.add.reduce(np.multiply(c, flat, out=prod), 1, out=term), n, out=term)
        total += term
        stats["terms"] += 1
        np.maximum.reduce(np.abs(stack, out=mags), (1, 2), out=top)
        np.greater(top[0], np.multiply(TINY, top[1], out=top[1]), out=big)
        quiet = 0 if big.any() else quiet + 1  # NaN counts as quiet, and raises below
    stats["steps"] += 1
    if not np.all(np.isfinite(total)):
        raise KZError("series transport is not finite")
    return total


def monodromy(block: ConnectionBlock, h_idx: int) -> np.ndarray:
    """Braid generator matrices (batch, l, l) in the frozen convention
    tau(s_H)^{-1} @ transport, each entry with its own row's tau;
    self-calibrates whenever a label is zero."""
    transports, block.steps[h_idx] = _transport(block, block.paths[h_idx])
    s_inv = block.group.inverse(block.group.hyperplanes[h_idx].generator)
    reals = block.realizations.items()
    decks = {r: linalg.mat_to_complex(x.element_matrix(s_inv)) for r, x in reals}
    deck = np.array([decks[r] for r in block.rows])
    out = deck @ transports
    # at k = 0 the target is tau(s_H)^{-1}, which is tau(s_H) whenever e_H = 2
    zero = block.zero_labels
    if zero.any() and np.max(np.abs(out[zero] - deck[zero])) > CALIBRATION_TOL:
        raise KZError("k = 0 calibration failed: monodromy != deck matrix")
    return out


def _hecke_roots(block: ConnectionBlock, h_idx: int) -> np.ndarray:
    """q_{H,j} zeta_H^j of every batch entry as a (batch, e_H) array, each by cmath."""
    c = block.group.orbit_of_hyperplane[h_idx]
    e = block.group.hyperplanes[h_idx].order
    return np.array([[k.q(c, j) * cmath.exp(2j * cmath.pi * j / e) for j in range(e)] for k in block.labels])


def hecke_residuals(block: ConnectionBlock, h_idx: int, mats: np.ndarray) -> list[float]:
    """|| prod_j (T - q_{H,j} zeta_H^j) || per batch entry, on the stacked matrices."""
    eye = np.eye(mats.shape[-1])
    prod = eye.astype(complex)
    for roots in _hecke_roots(block, h_idx).T:
        prod = prod @ (mats - roots[:, None, None] * eye)
    return np.max(np.abs(prod), axis=(1, 2)).tolist()


def _check_determinant(block: ConnectionBlock, h_idx: int, mats: np.ndarray) -> None:
    """det m = prod_j (q_{H,j} zeta_H^j)^{n_{C,j}} to hecke_tol relative: a transport
    that under- or overflowed can pass the absolute Hecke residual, not this.
    The first failing entry raises."""
    c = block.group.orbit_of_hyperplane[h_idx]
    mults = np.array([block.fs.local[row].multiplicities[c] for row in block.rows])
    got = np.linalg.det(mats)
    with np.errstate(over="ignore", invalid="ignore"):
        target = np.prod(np.power(_hecke_roots(block, h_idx), mults), axis=1)
        broken = (got == 0) | (target == 0) | ~np.isfinite(got) | ~np.isfinite(target)
        off = np.abs(got - target) > block.settings.hecke_tol * np.abs(target)
    bad = broken | off
    if bad.any():
        b = bad.argmax()
        if broken[b]:
            raise KZError("monodromy determinant or its Hecke target is 0 or not finite")
        raise KZError(f"monodromy determinant is off its Hecke target by {abs(got[b] / target[b] - 1):.2e}")


class MonodromyRep(NamedTuple):
    """Braid generator matrices for one block, with achieved diagnostics."""

    row: int
    labels: list[LabelVector]
    hyperplanes: list[int]
    matrices: dict[int, np.ndarray]  # h_idx -> (batch, l, l)
    residuals: dict[int, list[float]]
    base_point: np.ndarray
    seed_used: int
    transport: dict[int, dict]  # h_idx -> series statistics of its path

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
            "transport": {str(h): self.transport[h] for h in self.hyperplanes},
        }


def _mat_json(m: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in rw] for rw in m]


def monodromy_rep(
    fs: FakeDegreeSet,
    row: int,
    labels: LabelVector | list[LabelVector],
    settings: KZSettings = KZSettings(),
) -> MonodromyRep:
    block = assemble_connection(fs, row, labels, settings)
    hyperplanes = _generator_hyperplanes(fs.group)
    mats = {}
    residuals = {}
    for h in hyperplanes:
        mats[h] = m = monodromy(block, h)
        _check_determinant(block, h, m)
        residuals[h] = hecke_residuals(block, h, m)
    return MonodromyRep(
        row=row,
        labels=block.labels,
        hyperplanes=hyperplanes,
        matrices=mats,
        residuals=residuals,
        base_point=block.base_point,
        seed_used=block.seed_used,
        transport=block.steps,
    )


def _generator_hyperplanes(g: ReflectionGroup) -> list[int]:
    """Hyperplane index of each group generator; requires every generator to
    be the distinguished reflection of its hyperplane."""
    out = []
    for gelt in g.generator_elements:
        h = g.hyperplane_of.get(gelt)
        if h is None:
            raise KZError("a group generator is not a reflection")
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
    """The induced permutation of Irr(W) for each integral label vector, in
    the convention of the module docstring; the rows of one degree are
    transported in one sweep."""
    g = fs.group
    for k in ks:
        if not k.is_integral():
            raise KZError("gamma needs integral label vectors")
    gen_hyps = _generator_hyperplanes(g)
    conj_rows = np.array([[v.to_complex() for v in r.values] for r in fs.table.rows]).conj()
    class_words = [g.words[c.rep] for c in g.classes]
    degrees = [r.degree_int() for r in fs.table.rows]
    mults = [loc.multiplicities for loc in fs.local]

    results = [
        {
            "k": k.to_json(),
            "mapping": {},
            "pure_braid_residual": 0.0,
            "match_residual": 0.0,
            "transport": {},
            "convention": {"computed": "row -> monodromy deformation at +k", "functor_label": "gamma(-k)"},
        }
        for k in ks
    ]
    for rows in _rows_by_degree(fs):
        values, residual, steps = _sweep(fs, rows, ks, gen_hyps, class_words, settings)
        match, distance = _match_rows(values, conj_rows, settings.match_tol)
        shape = (len(rows), len(ks))  # entries are rows outermost
        residual, distance = (a.reshape(shape).max(axis=0).tolist() for a in (residual, distance))
        for b, (res, images) in enumerate(zip(results, match.reshape(shape).T.tolist())):
            res["transport"][str(degrees[rows[0]])] = steps
            res["pure_braid_residual"] = max(res["pure_braid_residual"], residual[b])
            res["match_residual"] = max(res["match_residual"], distance[b])
            res["mapping"].update(zip(rows, images))
    for res in results:
        mapping = res["mapping"]
        if sorted(mapping.values()) != list(range(len(degrees))):
            raise KZError(f"gamma output is not a permutation: {mapping}")
        for src, dst in mapping.items():
            if degrees[src] != degrees[dst]:
                raise KZError("gamma does not preserve dimensions")
            if mults[src] != mults[dst]:
                raise KZError("gamma does not preserve local data")
        res["pairs"] = sorted(mapping.items())
    return results


def _sweep(fs, rows, ks, gen_hyps, class_words, settings):
    """One transport sweep over rows of one degree at every k, rows outermost:
    per (row, k) entry, tr rho(w) at each class representative and the
    pure-braid residual; and the series statistics of each generator path."""
    block = assemble_connection(fs, rows, ks, settings)
    l = block.residues.shape[-1]
    mats, residual = {}, np.zeros(len(block.labels))
    for h in gen_hyps:
        mats[h] = m = monodromy(block, h)
        power = m
        for _ in range(fs.group.hyperplanes[h].order - 1):
            power = m @ power
        r = np.max(np.abs(power - np.eye(l)), axis=(1, 2))
        if np.any(r > settings.hecke_tol):
            worst = r[np.argmax(r > settings.hecke_tol)]
            raise KZError(
                f"pure braid generator acts nontrivially at integral k (residual {worst:.2e})"
            )
        residual = np.maximum(residual, r)
    values = np.zeros((len(block.labels), len(class_words)), dtype=complex)
    for ci, word in enumerate(class_words):
        acc = np.broadcast_to(np.eye(l, dtype=complex), (len(block.labels), l, l))
        for a in word:
            acc = mats[gen_hyps[a]] @ acc
        values[:, ci] = np.trace(acc, axis1=1, axis2=2)
    return values, residual, {str(h): block.steps[h] for h in gen_hyps}


def _rows_by_degree(fs: FakeDegreeSet) -> list[list[int]]:
    """The rows of each degree, degrees in order of first appearance."""
    degrees = [r.degree_int() for r in fs.table.rows]
    return [[i for i, d in enumerate(degrees) if d == deg] for deg in dict.fromkeys(degrees)]


def _match_rows(values: np.ndarray, conj_rows: np.ndarray, tol: float):
    """Nearest row of conj_rows to each entry of values (entries, classes) in the max
    norm, and its distance; the first entry with no row within tol, or two, raises."""
    dists = np.abs(values[:, None, :] - conj_rows[None]).max(axis=-1)  # (entries, rows)
    best = dists.argmin(axis=1)
    nearest = dists[np.arange(len(dists)), best]
    bad = (nearest > tol) | ((dists <= tol).sum(axis=1) > 1)
    if bad.any():
        if nearest[bad.argmax()] > tol:
            raise KZError(f"no table row within {tol} of the monodromy character")
        raise KZError("ambiguous character match; tighten the integrator")
    return best, nearest


def gamma_permutation(
    fs: FakeDegreeSet, k: LabelVector, settings: KZSettings = KZSettings()
) -> dict:
    return gamma_scan(fs, [k], settings)[0]
