"""The corpus of small reflection groups that the test modules share."""

from pathlib import Path

CORPUS = (
    ["S3", "S4", "G(2,1,2)", "G(3,1,2)", "G(3,3,3)", "G(4,4,2)"]
    + [f"G({m},1,1)" for m in range(2, 7)]
    + [f"G({m},{m},2)" for m in range(2, 7) if m != 4]  # m = 4 is G(4,4,2) above
)

# G4 written out as a generator file: s = diag(1, w) and
# t = 1 + (w - 1)/3 [[2, r2], [r2, 1]], with w = zeta_3 and r2 = zeta_8 + zeta_8^-1
G4 = "file:" + str(Path(__file__).resolve().parent / "data" / "g4.json")
