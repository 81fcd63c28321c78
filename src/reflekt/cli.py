"""Command-line front end: JSON emission and a content-addressed cache.

Every subcommand prints exactly one canonical-JSON document on stdout
(sorted keys, tight separators, trailing newline) and reserves stderr for
diagnostics.  Exit codes: 0 success / verifications passed, 1 verification
failure, 2 usage or input error.  The emitted document embeds the resolved
run configuration (minus cache settings, so cache on/off cannot change
output bytes) and the algorithm version string.

Cache entries live under REFLEKT_CACHE (or --cache), keyed by a hash of the
canonical descriptor, artifact kind and algorithm version; a file: descriptor
also carries a hash of its generator matrices, so editing the file misses.
Entries are revalidated on load and discarded with a warning when corrupt.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field

from . import ALGORITHM_VERSION
from .exact import CycNum
from .groups import GroupBuildError, build_group, parse_descriptor
from .chars import CharacterTable, ClassFunction, character_table
from .fake import (
    FakeDegreeSet,
    palindrome_check,
    poincare_identity,
    verify_all_pn,
    verify_symmetry,
)
from .minmat import build_minimal_matrix, verify_det_factorization, verify_quotient_property
from .kz import KZError, KZSettings, LabelVector, gamma_permutation, monodromy_rep


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    descriptor: str
    subcommand: str
    max_order: int = 50_000
    seed: int = 0
    kz_rtol: float = 1e-10
    kz_hecke_tol: float = 1e-6
    kz_match_tol: float = 1e-6
    output: str | None = None
    cache_dir: str | None = None

    def echo(self) -> dict:
        # cache settings deliberately omitted: they must not affect output bytes
        return {
            "descriptor": self.descriptor,
            "subcommand": self.subcommand,
            "max_order": self.max_order,
            "seed": self.seed,
            "kz_rtol": self.kz_rtol,
            "kz_hecke_tol": self.kz_hecke_tol,
            "kz_match_tol": self.kz_match_tol,
        }


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

class Cache:
    def __init__(self, directory: str | None):
        self.directory = directory

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    @staticmethod
    def key(descriptor: str, kind: str) -> str:
        blob = canonical_json(
            {"descriptor": descriptor, "kind": kind, "version": ALGORITHM_VERSION}
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def lookup(self, descriptor: str, kind: str):
        if not self.directory:
            return None
        path = self._path(self.key(descriptor, kind))
        try:
            with open(path) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: discarding corrupt cache entry {path}: {exc}", file=sys.stderr)
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def store(self, descriptor: str, kind: str, payload) -> None:
        if not self.directory:
            return
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(self.key(descriptor, kind))
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(canonical_json(payload))
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def _cache_name(g) -> str:
    """The descriptor a group's cache entries are keyed on.

    A file: path can hold different generators from one run to the next, so
    its name also carries a SHA-256 of the canonical generator matrices.
    """
    name = g.descriptor.canonical()
    if g.descriptor.kind == "file":
        gens = [[[x.to_json() for x in row] for row in m] for m in g.generator_matrices]
        name += "#" + hashlib.sha256(canonical_json(gens).encode()).hexdigest()
    return name


def _table_payload(table: CharacterTable) -> dict:
    return table.to_json()


def _table_from_payload(g, payload) -> CharacterTable:
    rows = [
        ClassFunction(g, tuple(CycNum.from_json(v) for v in row))
        for row in payload["rows"]
    ]
    # The constructor re-runs the exact orthogonality checks: a corrupt entry
    # cannot survive the revalidation.
    return CharacterTable(g, rows)


def cached_character_table(g, cache: Cache) -> CharacterTable:
    descriptor = _cache_name(g)
    payload = cache.lookup(descriptor, "chartable")
    if payload is not None:
        try:
            return _table_from_payload(g, payload)
        except Exception as exc:  # noqa: BLE001 - any corruption means recompute
            print(f"warning: cached table failed revalidation: {exc}", file=sys.stderr)
    table = character_table(g)
    cache.store(descriptor, "chartable", _table_payload(table))
    return table


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _build(cfg: RunConfig):
    return build_group(cfg.descriptor, max_order=cfg.max_order)


def cmd_group(cfg: RunConfig, cache: Cache) -> tuple[int, dict]:
    g = _build(cfg)
    return 0, g.info()


def cmd_chars(cfg: RunConfig, cache: Cache) -> tuple[int, dict]:
    g = _build(cfg)
    table = cached_character_table(g, cache)
    return 0, table.to_json()


def _fake_payload(fs: FakeDegreeSet) -> list:
    return [
        {
            "rep_index": i,
            "degree": fs.table.rows[i].degree_int(),
            "fake_degree": fs.fds[i].to_json(),
        }
        for i in range(len(fs.table.rows))
    ]


def cmd_fake(cfg: RunConfig, cache: Cache, csv_path: str | None) -> tuple[int, dict]:
    g = _build(cfg)
    table = cached_character_table(g, cache)
    name = _cache_name(g)
    payload = cache.lookup(name, "fake")
    if payload is not None:
        degrees = [row.degree_int() for row in table.rows]
        ok = [item["degree"] for item in payload] == degrees and all(
            item["rep_index"] == i and sum(item["fake_degree"]["coefficients"]) == item["degree"]
            for i, item in enumerate(payload)
        )
        if not ok:
            print("warning: cached fake degrees failed revalidation", file=sys.stderr)
            payload = None
    if payload is None:
        fs = FakeDegreeSet(g, table)
        payload = _fake_payload(fs)
        cache.store(name, "fake", payload)
    if csv_path:
        _write_fake_csv(csv_path, payload)
    return 0, {"reps": payload}


def _write_fake_csv(path: str, payload) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rep_index", "degree", "coefficients", "exponents"])
        for item in payload:
            writer.writerow(
                [
                    item["rep_index"],
                    item["degree"],
                    " ".join(str(c) for c in item["fake_degree"]["coefficients"]),
                    " ".join(str(e) for e in item["fake_degree"]["exponents"]),
                ]
            )


VERIFY_KINDS = ("pn", "symmetry", "palindrome", "poincare")


def cmd_verify(cfg: RunConfig, cache: Cache, kind: str) -> tuple[int, dict]:
    if kind not in VERIFY_KINDS:
        raise UsageError(f"unknown verification {kind!r}; pick from {VERIFY_KINDS}")
    g = _build(cfg)
    table = cached_character_table(g, cache)
    fs = FakeDegreeSet(g, table)
    if kind == "pn":
        report = verify_all_pn(fs)
    elif kind == "symmetry":
        report = verify_symmetry(fs)
    elif kind == "palindrome":
        report = palindrome_check(fs)
    else:
        report = poincare_identity(fs)
    return (0 if report["passed"] else 1), {"verification": kind, "report": report}


def cmd_minmat(cfg: RunConfig, cache: Cache, rep: int) -> tuple[int, dict]:
    g = _build(cfg)
    table = cached_character_table(g, cache)
    fs = FakeDegreeSet(g, table)
    if not 0 <= rep < len(fs.table.rows):
        raise UsageError(f"--rep must be in [0, {len(fs.table.rows)})")
    mm = build_minimal_matrix(fs, rep, seed=cfg.seed)
    det_rep = verify_det_factorization(fs, mm)
    quot_rep = verify_quotient_property(fs, mm, seed=cfg.seed)
    passed = det_rep["passed"] and quot_rep["passed"]
    payload = {
        "rep_index": rep,
        "column_degrees": list(mm.column_degrees),
        "realization": mm.realization.method,
        "det_factorization": det_rep,
        "quotient_property": quot_rep,
        "checks_passed": passed,
    }
    return (0 if passed else 1), payload


def _kz_settings(cfg: RunConfig) -> KZSettings:
    return KZSettings(
        rtol=cfg.kz_rtol,
        hecke_tol=cfg.kz_hecke_tol,
        match_tol=cfg.kz_match_tol,
        seed=cfg.seed,
    )


def cmd_kz_monodromy(cfg: RunConfig, cache: Cache, rep: int, k_json: str) -> tuple[int, dict]:
    g = _build(cfg)
    table = cached_character_table(g, cache)
    fs = FakeDegreeSet(g, table)
    if not 0 <= rep < len(fs.table.rows):
        raise UsageError(f"--rep must be in [0, {len(fs.table.rows)})")
    try:
        k = LabelVector.from_json(json.loads(k_json), g)
    except (json.JSONDecodeError, KZError) as exc:
        raise UsageError(f"bad label vector: {exc}")
    rep_data = monodromy_rep(fs, rep, k, _kz_settings(cfg))
    payload = rep_data.to_json()
    worst = max(max(v) for v in rep_data.residuals.values())
    payload["passed"] = worst <= cfg.kz_hecke_tol
    return (0 if payload["passed"] else 1), payload


def cmd_kz_gamma(cfg: RunConfig, cache: Cache, k_json: str) -> tuple[int, dict]:
    g = _build(cfg)
    table = cached_character_table(g, cache)
    fs = FakeDegreeSet(g, table)
    try:
        k = LabelVector.from_json(json.loads(k_json), g)
    except (json.JSONDecodeError, KZError) as exc:
        raise UsageError(f"bad label vector: {exc}")
    try:
        result = gamma_permutation(fs, k, _kz_settings(cfg))
    except KZError as exc:
        if "integral" in str(exc):
            raise UsageError(str(exc))
        raise
    return 0, result


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="reflekt",
        description="Exact invariant theory of finite complex reflection groups.",
    )
    p.add_argument("--max-order", type=int, default=None, help="element cap (REFLEKT_MAX_ORDER)")
    p.add_argument("--seed", type=int, default=None, help="determinism seed (REFLEKT_SEED)")
    p.add_argument("--cache", default=None, help="cache directory (REFLEKT_CACHE)")
    p.add_argument("--no-cache", action="store_true", help="disable the cache")
    p.add_argument("--output", default=None, help="write JSON here instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("group", help="construct a group and print its data")
    sp.add_argument("descriptor")
    sp.add_argument("what", nargs="?", default="info", choices=["info"])

    sp = sub.add_parser("chars", help="exact character table")
    sp.add_argument("descriptor")

    sp = sub.add_parser("fake", help="fake degrees of all irreducibles")
    sp.add_argument("descriptor")
    sp.add_argument("--csv", default=None, help="also write a CSV table here")

    sp = sub.add_parser("verify", help="machine verification suites")
    sp.add_argument("kind", choices=list(VERIFY_KINDS))
    sp.add_argument("descriptor")

    sp = sub.add_parser("minmat", help="build and check a minimal matrix")
    sp.add_argument("descriptor")
    sp.add_argument("--rep", type=int, required=True)

    sp = sub.add_parser("kz", help="numerical KZ monodromy")
    kzsub = sp.add_subparsers(dest="kz_command", required=True)
    spm = kzsub.add_parser("monodromy")
    spm.add_argument("descriptor")
    spm.add_argument("--rep", type=int, required=True)
    spm.add_argument("--k", required=True, help='label vector JSON, e.g. {"0":[0,1]}')
    spg = kzsub.add_parser("gamma")
    spg.add_argument("descriptor")
    spg.add_argument("--k", required=True)
    return p


def _env_int(name: str, default: int) -> int:
    val = os.environ.get(name)
    if val is None:
        return default
    try:
        return int(val)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {val!r}")


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        max_order = args.max_order if args.max_order is not None else _env_int("REFLEKT_MAX_ORDER", 50_000)
        seed = args.seed if args.seed is not None else _env_int("REFLEKT_SEED", 0)
        cache_dir = None if args.no_cache else (args.cache or os.environ.get("REFLEKT_CACHE"))
        cfg = RunConfig(
            descriptor=getattr(args, "descriptor", ""),
            subcommand=args.command,
            max_order=max_order,
            seed=seed,
            output=args.output,
            cache_dir=cache_dir,
        )
        cache = Cache(cfg.cache_dir)
        if args.command == "group":
            code, payload = cmd_group(cfg, cache)
        elif args.command == "chars":
            code, payload = cmd_chars(cfg, cache)
        elif args.command == "fake":
            code, payload = cmd_fake(cfg, cache, args.csv)
        elif args.command == "verify":
            cfg.subcommand = f"verify.{args.kind}"
            code, payload = cmd_verify(cfg, cache, args.kind)
        elif args.command == "minmat":
            code, payload = cmd_minmat(cfg, cache, args.rep)
        elif args.command == "kz" and args.kz_command == "monodromy":
            cfg.subcommand = "kz.monodromy"
            code, payload = cmd_kz_monodromy(cfg, cache, args.rep, args.k)
        elif args.command == "kz" and args.kz_command == "gamma":
            cfg.subcommand = "kz.gamma"
            code, payload = cmd_kz_gamma(cfg, cache, args.k)
        else:  # pragma: no cover
            raise UsageError(f"unknown command {args.command}")
    except (UsageError, GroupBuildError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KZError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    document = {
        "algorithm_version": ALGORITHM_VERSION,
        "config": cfg.echo(),
        "result": payload,
    }
    text = canonical_json(document)
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
