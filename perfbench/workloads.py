"""The benchmark workloads: their operations, inputs and output checks.

An operation fails if it raises, if a verifier reports ``passed: false`` or if
its output check fails.  Exact outputs are checked by the SHA-256 digest of
their canonical JSON against ``expected.json``, recorded from a revision whose
outputs are known good.  KZ outputs are checked only against their own
tolerances, the involution gamma(k) o gamma(-k) = id and, for S3, the
recorded gamma pairs; float bytes are never compared.

The workload seed draws only the random KZ labels and the order of the
operations.  It never reaches ``KZSettings.seed``, ``REFLEKT_SEED`` or the
``seed=`` of ``build_minimal_matrix``: all of those keep the library defaults.

All calls go through module attributes (``groups.build_group``, not a name
imported from ``reflekt.groups``) so that the traced run catches them.  This
module does not import numpy itself, so a reflekt that stops loading numpy
shows in ``setup_s`` and ``peak_rss_mb``.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import sys

from reflekt import chars, fake, groups, kz, minmat

# The fifteen distinct groups of the verification corpus.
CORPUS = (
    ["S3", "S4", "G(2,1,2)", "G(3,1,2)", "G(3,3,3)", "G(4,4,2)"]
    + [f"G({m},1,1)" for m in range(2, 7)]
    + [f"G({m},{m},2)" for m in range(2, 7) if m != 4]
)
SCALE = ["G(3,1,3)", "G(4,2,3)", "G(6,6,3)"]
MINMAT_SCOPE = ["S3", "S4", "G(2,1,2)", "G(3,1,2)"] + [f"G({m},1,1)" for m in range(2, 5)]
# S4's degree-3 rep with column degrees (3,4,5) alone takes about 49 s; the
# test suite keeps covering it.
MINMAT_SKIP = {("S4", (3, 4, 5))}
KZ_MONODROMY = ["S3", "G(2,1,2)", "G(3,1,2)"]
KZ_LABELS = 5  # random complex label vectors per group
KZ_LABEL_BOUND = 0.3  # |Re k|, |Im k| <= bound
# Integral scans over [-2,2]^r.  G(2,1,2)'s is the acceptance criterion 10
# case; at [-1,1]^4 its conditioning defect does not show.
KZ_GAMMA = ["S3", "G(2,1,2)"]
KZ_GAMMA_BOUND = 2
GAMMA_RECORDED = {"S3"}

# Reduced inputs for the smoke test: a few seconds per workload.
SMOKE = {
    "corpus": {"groups": ["S3", "G(2,1,1)"]},
    "scale": {"groups": ["G(3,1,3)"]},
    "minmat": {"groups": ["S3"]},
    "kz": {"monodromy": ["S3"], "gamma": ["S3"]},
}

FLOAT_EPS = sys.float_info.epsilon


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


class Outcome:
    """Attempted and failed operations of one workload pass, plus the worst
    residual of every passing KZ operation."""

    def __init__(self, expected: dict, record: bool = False):
        self.expected = expected
        self.recorded = {"digests": {}, "gamma_pairs": {}} if record else None
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.incorrect: list[str] = []  # outputs that contradict their reference
        self.residuals: list[float] = []

    def attempt(self, op_id: str, fn):
        """Run one operation; returns (ok, result).  A raise is a failure."""
        self.attempted += 1
        try:
            return True, fn()
        except Exception as exc:  # every raise counts as a failed operation
            self.fail(op_id, f"raised {type(exc).__name__}: {exc}")
            return False, None

    def skip(self, op_id: str) -> None:
        """An operation whose input is missing because an earlier one failed."""
        self.attempted += 1
        self.fail(op_id, "an operation it depends on failed")

    def fail(self, op_id: str, reason: str, incorrect: bool = False) -> None:
        self.failures.setdefault(op_id, reason)
        if incorrect:
            self.incorrect.append(op_id)

    def check_digest(self, op_id: str, payload) -> None:
        got = digest(payload)
        if self.recorded is not None:
            self.recorded["digests"][op_id] = got
        elif self.expected["digests"].get(op_id) != got:
            self.fail(op_id, "output digest differs from the recorded one", incorrect=True)

    def exact(self, op_id: str, fn, payload=lambda result: result):
        """An exact operation: run it, digest its JSON, honour ``passed``."""
        ok, result = self.attempt(op_id, fn)
        if not ok:
            return None
        body = payload(result)
        self.check_digest(op_id, body)
        if isinstance(body, dict) and body.get("passed") is False:
            self.fail(op_id, "verifier reported passed: false")
        return result

    def margin_digits(self, tol: float) -> float:
        """log10(tol / worst residual), the residual floored at float64
        epsilon; a workload without KZ operations reads that ceiling."""
        worst = max(self.residuals, default=0.0)
        return math.log10(tol / max(worst, FLOAT_EPS))


def fake_payload(fs) -> list:
    return [
        {
            "rep_index": i,
            "degree": row.degree_int(),
            "fake_degree": fs.fds[i].to_json(),
            "local_data": fs.local[i].to_json(),
            "conjugate_row": fs.conj_perm[i],
        }
        for i, row in enumerate(fs.table.rows)
    ]


def prepare(out: Outcome, d: str):
    """Group, character table and fake degrees of ``d``, each checked."""
    g = out.exact(f"{d}:group", lambda: groups.build_group(d), lambda g: g.info())
    if g is None:
        out.skip(f"{d}:chars")
        out.skip(f"{d}:fake")
        return None
    table = out.exact(f"{d}:chars", lambda: chars.character_table(g), lambda t: t.to_json())
    if table is None:
        out.skip(f"{d}:fake")
        return None
    return out.exact(f"{d}:fake", lambda: fake.FakeDegreeSet(g, table), fake_payload)


VERIFIERS = {
    "pn": lambda fs: fake.verify_all_pn(fs),
    "poincare": lambda fs: fake.poincare_identity(fs),
    "symmetry": lambda fs: fake.verify_symmetry(fs),
    "palindrome": lambda fs: fake.palindrome_check(fs),
}


def _verified_pipeline(out: Outcome, d: str, verifiers: list[str]) -> None:
    fs = prepare(out, d)
    for name in verifiers:
        op_id = f"{d}:{name}"
        if fs is None:
            out.skip(op_id)
        else:
            out.exact(op_id, lambda: VERIFIERS[name](fs))


def run_corpus(out: Outcome, rng: random.Random, smoke: bool) -> None:
    names = list(SMOKE["corpus"]["groups"] if smoke else CORPUS)
    rng.shuffle(names)
    for d in names:
        _verified_pipeline(out, d, ["pn", "poincare", "symmetry", "palindrome"])


def run_scale(out: Outcome, rng: random.Random, smoke: bool) -> None:
    names = list(SMOKE["scale"]["groups"] if smoke else SCALE)
    rng.shuffle(names)
    for d in names:
        _verified_pipeline(out, d, ["pn", "poincare"])


def _minmat_payload(fs, mm) -> dict:
    det_rep = minmat.verify_det_factorization(fs, mm)
    quot_rep = minmat.verify_quotient_property(fs, mm)
    return {
        "rep_index": mm.row,
        "column_degrees": list(mm.column_degrees),
        "realization": mm.realization.method,
        "det_factorization": det_rep,
        "quotient_property": quot_rep,
        "passed": det_rep["passed"] and quot_rep["passed"],
    }


def run_minmat(out: Outcome, rng: random.Random, smoke: bool) -> None:
    names = list(SMOKE["minmat"]["groups"] if smoke else MINMAT_SCOPE)
    rng.shuffle(names)
    ops = []
    for d in names:
        fs = prepare(out, d)
        if fs is None:
            continue
        for i in range(len(fs.table.rows)):
            if (d, fs.fds[i].exponents) not in MINMAT_SKIP:
                ops.append((d, fs, i))
    rng.shuffle(ops)
    for d, fs, i in ops:
        out.exact(
            f"{d}:minmat:{i}",
            lambda: _minmat_payload(fs, minmat.build_minimal_matrix(fs, i)),
        )


def random_labels(g, rng: random.Random) -> list:
    b = KZ_LABEL_BOUND
    return [
        kz.LabelVector(
            tuple(
                tuple(complex(rng.uniform(-b, b), rng.uniform(-b, b)) for _ in range(o.order))
                for o in g.orbits
            )
        )
        for _ in range(KZ_LABELS)
    ]


def integral_grid(g) -> tuple[list[tuple[int, ...]], list]:
    width = sum(o.order for o in g.orbits)
    flats = list(itertools.product(range(-KZ_GAMMA_BOUND, KZ_GAMMA_BOUND + 1), repeat=width))
    labels = []
    for flat in flats:
        vals, pos = [], 0
        for o in g.orbits:
            vals.append(tuple(complex(x) for x in flat[pos : pos + o.order]))
            pos += o.order
        labels.append(kz.LabelVector(tuple(vals)))
    return flats, labels


def monodromy_op(out: Outcome, d: str, fs, row: int, labels: list) -> None:
    op_id = f"{d}:monodromy:{row}"
    ok, rep = out.attempt(op_id, lambda: kz.monodromy_rep(fs, row, labels))
    if not ok:
        return
    tol = kz.KZSettings().hecke_tol
    deg = fs.table.rows[row].degree_int()
    shape = (len(labels), deg, deg)
    if any(
        rep.matrices[h].shape != shape or not math.isfinite(abs(rep.matrices[h]).max())
        for h in rep.hyperplanes
    ):
        out.fail(op_id, "monodromy matrices have the wrong shape or are not finite", True)
        return
    worst = max(max(rep.residuals[h]) for h in rep.hyperplanes)
    if worst > tol:
        out.fail(op_id, f"Hecke residual {worst:.2e} exceeds {tol:.0e}")
        return
    out.residuals.append(worst)


def gamma_op(out: Outcome, d: str, fs) -> None:
    op_id = f"{d}:gamma"
    flats, labels = integral_grid(fs.group)
    ok, results = out.attempt(op_id, lambda: kz.gamma_scan(fs, labels))
    if not ok:
        return
    settings = kz.KZSettings()
    worst = max(r["pure_braid_residual"] for r in results)
    if worst > settings.hecke_tol or max(r["match_residual"] for r in results) > settings.match_tol:
        out.fail(op_id, f"gamma residuals exceed their tolerances (pure braid {worst:.2e})", True)
        return
    pairs = {flat: [list(p) for p in r["pairs"]] for flat, r in zip(flats, results)}
    rows = range(len(fs.table.rows))
    for flat, fwd in pairs.items():
        bwd = dict(map(tuple, pairs[tuple(-x for x in flat)]))
        if [bwd[dst] for _src, dst in fwd] != list(rows):
            out.fail(op_id, f"gamma(k) o gamma(-k) is not the identity at k = {flat}", True)
            return
    if d in GAMMA_RECORDED:
        keyed = {",".join(map(str, flat)): p for flat, p in pairs.items()}
        if out.recorded is not None:
            out.recorded["gamma_pairs"][d] = keyed
        elif out.expected["gamma_pairs"].get(d) != keyed:
            out.fail(op_id, "gamma pairs differ from the recorded ones", True)
            return
    out.residuals.append(worst)


def run_kz(out: Outcome, rng: random.Random, smoke: bool) -> None:
    mono = SMOKE["kz"]["monodromy"] if smoke else KZ_MONODROMY
    gamma = SMOKE["kz"]["gamma"] if smoke else KZ_GAMMA
    fsets = {}
    for d in sorted(set(mono) | set(gamma)):
        fs = prepare(out, d)
        if fs is not None:
            fsets[d] = fs
    ops = []
    for d in mono:
        if d not in fsets:
            continue
        fs = fsets[d]
        labels = random_labels(fs.group, rng)
        ops += [(monodromy_op, d, fs, row, labels) for row in range(len(fs.table.rows))]
    ops += [(gamma_op, d, fsets[d]) for d in gamma if d in fsets]
    rng.shuffle(ops)
    for op, *args in ops:
        op(out, *args)


WORKLOADS = {
    "corpus": run_corpus,
    "scale": run_scale,
    "minmat": run_minmat,
    "kz": run_kz,
}


def run(name: str, seed: int, expected: dict, smoke: bool = False, record: bool = False) -> Outcome:
    out = Outcome(expected, record=record)
    WORKLOADS[name](out, random.Random(seed), smoke)
    return out
