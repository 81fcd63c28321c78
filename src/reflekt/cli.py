"""Command-line front end: one canonical-JSON document per subcommand.

Every subcommand prints exactly one canonical-JSON document on stdout
(sorted keys, tight separators, trailing newline) and reserves stderr for
diagnostics.  Exit codes: 0 success / verifications passed, 1 verification
failure, 2 usage or input error.  The emitted document embeds the resolved
run configuration and the algorithm version string.

Each run computes from scratch: build the group, then its character table,
then the fake degrees.  Nothing is stored on or read back from disk.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import ALGORITHM_VERSION
from .groups import GroupBuildError, build_group
from .chars import character_table
from .fake import (
    FakeDegreeSet,
    palindrome_check,
    poincare_identity,
    verify_all_pn,
    verify_symmetry,
)
from .exact import ExactError
from .minmat import RealizationError, build_minimal_matrix, verify_det_factorization, verify_quotient_property


class UsageError(Exception):
    """Bad input, or a failed computation: 'error: ...' on stderr, exit 2."""


# KZ tolerances of every kz subcommand, echoed in each document's config.
KZ_HECKE_TOL = 1e-6
KZ_MATCH_TOL = 1e-6


class RunConfig:
    def __init__(self, descriptor: str, subcommand: str, max_order: int, seed: int, output: str | None):
        self.descriptor = descriptor
        self.subcommand = subcommand
        self.max_order = max_order
        self.seed = seed
        self.output = output

    def echo(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "subcommand": self.subcommand,
            "max_order": self.max_order,
            "seed": self.seed,
            "kz_hecke_tol": KZ_HECKE_TOL,
            "kz_match_tol": KZ_MATCH_TOL,
        }


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _build(cfg: RunConfig):
    return build_group(cfg.descriptor, max_order=cfg.max_order)


def _fake_set(cfg: RunConfig) -> FakeDegreeSet:
    g = _build(cfg)
    return FakeDegreeSet(g, character_table(g))


def cmd_group(cfg: RunConfig) -> tuple[int, dict]:
    return 0, _build(cfg).info()


def cmd_chars(cfg: RunConfig) -> tuple[int, dict]:
    return 0, character_table(_build(cfg)).to_json()


def _fake_payload(fs: FakeDegreeSet) -> list:
    return [
        {
            "rep_index": i,
            "degree": fs.table.rows[i].degree_int(),
            "fake_degree": fs.fds[i].to_json(),
        }
        for i in range(len(fs.table.rows))
    ]


def cmd_fake(cfg: RunConfig, csv_path: str | None) -> tuple[int, dict]:
    payload = _fake_payload(_fake_set(cfg))
    if csv_path:
        _write_fake_csv(csv_path, payload)
    return 0, {"reps": payload}


def _write_fake_csv(path: str, payload) -> None:
    import csv

    try:
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
    except OSError as exc:
        raise UsageError(_write_error(path, exc)) from None


def _write_error(path: str, exc: OSError) -> str:
    return f"cannot write {path}: {exc.strerror or exc}"


VERIFIERS = {
    "pn": verify_all_pn,
    "symmetry": verify_symmetry,
    "palindrome": palindrome_check,
    "poincare": poincare_identity,
}
VERIFY_KINDS = tuple(VERIFIERS)


def cmd_verify(cfg: RunConfig, kind: str) -> tuple[int, dict]:
    if kind not in VERIFY_KINDS:
        raise UsageError(f"unknown verification {kind!r}; pick from {VERIFY_KINDS}")
    report = VERIFIERS[kind](_fake_set(cfg))
    return (0 if report["passed"] else 1), {"verification": kind, "report": report}


def cmd_minmat(cfg: RunConfig, rep: int) -> tuple[int, dict]:
    fs = _fake_set(cfg)
    if not 0 <= rep < len(fs.table.rows):
        raise UsageError(f"--rep must be in [0, {len(fs.table.rows)})")
    try:
        mm = build_minimal_matrix(fs, rep, seed=cfg.seed)
        det_rep = verify_det_factorization(fs, mm)
        quot_rep = verify_quotient_property(fs, mm, seed=cfg.seed)
    except (ExactError, RealizationError) as exc:
        raise UsageError(str(exc)) from exc
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


def _kz_settings(cfg: RunConfig):
    from .kz import KZSettings  # kz, and numpy with it, loads only for kz commands

    return KZSettings(hecke_tol=KZ_HECKE_TOL, match_tol=KZ_MATCH_TOL, seed=cfg.seed)


def cmd_kz_monodromy(cfg: RunConfig, rep: int, k_json: str) -> tuple[int, dict]:
    from .kz import KZError, LabelVector, monodromy_rep

    fs = _fake_set(cfg)
    if not 0 <= rep < len(fs.table.rows):
        raise UsageError(f"--rep must be in [0, {len(fs.table.rows)})")
    try:
        k = LabelVector.from_json(json.loads(k_json), fs.group)
    except (json.JSONDecodeError, KZError) as exc:
        raise UsageError(f"bad label vector: {exc}")
    try:
        rep_data = monodromy_rep(fs, rep, k, _kz_settings(cfg))
    except KZError as exc:
        raise UsageError(str(exc)) from exc
    payload = rep_data.to_json()
    worst = max(max(v) for v in rep_data.residuals.values())
    payload["passed"] = worst <= KZ_HECKE_TOL
    return (0 if payload["passed"] else 1), payload


def cmd_kz_gamma(cfg: RunConfig, k_json: str) -> tuple[int, dict]:
    from .kz import KZError, LabelVector, gamma_permutation

    fs = _fake_set(cfg)
    try:
        k = LabelVector.from_json(json.loads(k_json), fs.group)
    except (json.JSONDecodeError, KZError) as exc:
        raise UsageError(f"bad label vector: {exc}")
    try:
        result = gamma_permutation(fs, k, _kz_settings(cfg))
    except KZError as exc:
        raise UsageError(str(exc)) from exc
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
        cfg = RunConfig(
            descriptor=getattr(args, "descriptor", ""),
            subcommand=args.command,
            max_order=max_order,
            seed=seed,
            output=args.output,
        )
        if args.command == "group":
            code, payload = cmd_group(cfg)
        elif args.command == "chars":
            code, payload = cmd_chars(cfg)
        elif args.command == "fake":
            code, payload = cmd_fake(cfg, args.csv)
        elif args.command == "verify":
            cfg.subcommand = f"verify.{args.kind}"
            code, payload = cmd_verify(cfg, args.kind)
        elif args.command == "minmat":
            code, payload = cmd_minmat(cfg, args.rep)
        elif args.command == "kz" and args.kz_command == "monodromy":
            cfg.subcommand = "kz.monodromy"
            code, payload = cmd_kz_monodromy(cfg, args.rep, args.k)
        elif args.command == "kz" and args.kz_command == "gamma":
            cfg.subcommand = "kz.gamma"
            code, payload = cmd_kz_gamma(cfg, args.k)
        else:  # pragma: no cover
            raise UsageError(f"unknown command {args.command}")
    except (UsageError, GroupBuildError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    document = {
        "algorithm_version": ALGORITHM_VERSION,
        "config": cfg.echo(),
        "result": payload,
    }
    text = canonical_json(document)
    if cfg.output:
        try:
            with open(cfg.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {_write_error(cfg.output, exc)}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
