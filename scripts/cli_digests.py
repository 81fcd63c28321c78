#!/usr/bin/env python3
"""Print one SHA-256 per CLI output over a fixed check set, to compare trees.

The check set is 192 commands:
  - the 15 corpus groups, G4 (`file:tests/data/g4.json`, a group that is
    not monomial) and S5 (dense Fourier-basis generators) x `group`, `chars`,
    `fake` and the four `verify` kinds;
  - G(6,3,2), G(4,2,2), G(6,2,2), G(12,4,2) and G(3,1,3), groups with
    several hyperplane orbits, x `group`, `verify symmetry` and
    `verify palindrome`;
  - G(3,1,3), G(4,2,3), G(6,6,3) and G(3,1,4) x `chars` and `fake`: the
    largest tables of the set (19 to 51 classes, |W| from 162 to 1,944),
    where the other `chars` and `fake` commands reach at most 10 classes;
  - `minmat --rep i` for every row of criterion 8's scope, for S5's rows 1
    and 3 (row 3 the rank-4 reflection representation, solved in root
    coordinates) and for G4's 7 rows (a `file:` group, and one whose
    root and defining coordinates are equally sparse);
  - `kz monodromy` for S3 rep 1, S4 rep 2, S4 rep 3 (degree 3, one
    contracted path), G(3,1,2) rep 2 and G(2,1,3) rep 6 (degree 3, rank 3,
    two hyperplane orbits, two contracted paths) at a fixed label;
  - `kz gamma` for S3, G(2,1,2), G(6,6,2), G(4,2,2) and G(2,1,3) at one
    integral label each; G(6,6,2)'s swaps rows 4 and 5, G(4,2,2)'s rows 8
    and 9.

Each command runs as a fresh `python -m reflekt.cli` process with every
`REFLEKT_*` variable unset and the repository root as working directory, so
G4's echoed descriptor is the same for every tree; a line is
`<sha256 of stdout> <exit code> <command>`.

    python3 scripts/cli_digests.py                  # this checkout's src/
    python3 scripts/cli_digests.py OTHER/src        # another tree's src/
    python3 scripts/cli_digests.py src OTHER/src    # compare; exit 1 on any difference
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CORPUS = (
    ["S3", "S4", "G(2,1,2)", "G(3,1,2)", "G(3,3,3)", "G(4,4,2)"]
    + [f"G({m},1,1)" for m in range(2, 7)]
    + [f"G({m},{m},2)" for m in range(2, 7) if m != 4]  # m = 4 is G(4,4,2) above
)
G4 = "file:tests/data/g4.json"
DENSE = ["S5"]
MULTI_ORBIT = ["G(6,3,2)", "G(4,2,2)", "G(6,2,2)", "G(12,4,2)", "G(3,1,3)"]
LARGE_TABLES = ["G(3,1,3)", "G(4,2,3)", "G(6,6,3)", "G(3,1,4)"]
MINMAT_SCOPE = ["S3", "S4", "G(2,1,2)", "G(3,1,2)"] + [f"G({m},1,1)" for m in range(2, 5)]
MINMAT_ROWS = {"S3": 3, "S4": 5, "G(2,1,2)": 5, "G(3,1,2)": 9, "G(2,1,1)": 2, "G(3,1,1)": 3, "G(4,1,1)": 4}
MINMAT_EXTRA = [("S5", 1), ("S5", 3)] + [(G4, i) for i in range(7)]
KZ_COMMANDS = [
    ["kz", "monodromy", "S3", "--rep", "1", "--k", '{"0":[0.1,-0.05]}'],
    ["kz", "monodromy", "S4", "--rep", "2", "--k", '{"0":[0.1,-0.05]}'],
    ["kz", "monodromy", "S4", "--rep", "3", "--k", '{"0":[0.1,-0.05]}'],
    ["kz", "monodromy", "G(3,1,2)", "--rep", "2", "--k", '{"0":[0.1,0,-0.05],"1":[0.05,0]}'],
    ["kz", "monodromy", "G(2,1,3)", "--rep", "6", "--k", '{"0":[0.1,-0.05],"1":[0.05,0]}'],
    ["kz", "gamma", "S3", "--k", '{"0":[1,0]}'],
    ["kz", "gamma", "G(2,1,2)", "--k", '{"0":[1,0],"1":[0,-1]}'],
    ["kz", "gamma", "G(6,6,2)", "--k", '{"0":[1,0],"1":[0,0]}'],
    ["kz", "gamma", "G(4,2,2)", "--k", '{"0":[1,0],"1":[0,0],"2":[0,0]}'],
    ["kz", "gamma", "G(2,1,3)", "--k", '{"0":[1,0],"1":[0,0]}'],
]


def commands() -> list[list[str]]:
    out = []
    for d in CORPUS + [G4] + DENSE:
        out += [["group", d], ["chars", d], ["fake", d]]
        out += [["verify", kind, d] for kind in ("pn", "symmetry", "palindrome", "poincare")]
    for d in MULTI_ORBIT:
        out += [["group", d], ["verify", "symmetry", d], ["verify", "palindrome", d]]
    for d in LARGE_TABLES:
        out += [["chars", d], ["fake", d]]
    for d in MINMAT_SCOPE:
        out += [["minmat", d, "--rep", str(i)] for i in range(MINMAT_ROWS[d])]
    out += [["minmat", d, "--rep", str(i)] for d, i in MINMAT_EXTRA]
    return out + KZ_COMMANDS


def digests(src: str) -> list[str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REFLEKT_")}
    env["PYTHONPATH"] = os.path.abspath(src)
    lines = []
    for cmd in commands():
        proc = subprocess.run(
            [sys.executable, "-m", "reflekt.cli", *cmd],
            env=env, capture_output=True, cwd=ROOT,
        )
        digest = hashlib.sha256(proc.stdout).hexdigest()
        lines.append(f"{digest} {proc.returncode} {' '.join(cmd)}")
    return lines


def main(argv: list[str]) -> int:
    srcs = argv or [os.path.join(ROOT, "src")]
    if len(srcs) == 1:
        print("\n".join(digests(srcs[0])))
        return 0
    base = digests(srcs[0])
    differ = 0
    for other in srcs[1:]:
        for a, b in zip(base, digests(other)):
            if a != b:
                differ += 1
                print(f"differs in {other}: {a.split(' ', 2)[2]}")
    print(f"{len(base)} outputs, {differ} differing")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
