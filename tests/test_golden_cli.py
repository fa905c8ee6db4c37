"""Byte identity of the command-line output.

Each entry is one cheap ``main([...])`` call with the exit code and the
SHA-256 of the stdout it produced at commit 4004fcc, before the charpoly,
chiral-operator and unitarity-certificate code was shortened; the entries
marked below were recorded at commit def4508, before the propagator, its
certificate and the spin moments moved onto the two chains.  A refactor
that keeps the numbers must keep these bytes; a change that means to alter
output updates the digests here on purpose.
"""

import contextlib
import hashlib
import io

import pytest

from countertwist.cli import main

GOLDEN = [
    # The chi*t = 2 row ends in opt_angle = -3.00746248265442120363074e-57.
    (("evolve", "--j", "2", "--t-max", "3", "--steps", "4"), 0,
     "9e3690385afc24230a22dc2f978a0088724110b66b377b0e330645e07d91d3d9"),
    (("evolve", "--j", "3/2", "--chi", "2/3", "--t-max", "5/2", "--steps", "3"), 0,
     "18c4b0a452579d8e79cef446a59e8af222f6f50476dffb409e0efaba27e4c287"),
    (("verify", "--j", "2", "--chi", "4/3"), 0,
     "e550cec22aa50d492005a2886b80b7723f8a9f259e6b4fc0545db97a35df7a32"),
    (("verify", "--j", "2", "--inject-fault"), 1,
     "bf8365eef82f58eae80928b4a6eb12d7e1ca9b1b1dda4aaa9f9a2891659c947f"),
    (("verify", "--j", "7/2"), 0,
     "05c43e95f3cb3d5f529871b4fc9f0d5cbe92a6e02f20eea6555afe7a09ef7faa"),
    # Prints the unitarity certificate 2.41e-35.
    (("verify", "--j", "10", "--chi", "4/3"), 0,
     "81ebcd70029840d967eb32634423555f5c010fcfcd3d93d5c4b5ebcaa7aeba70"),
    (("charpoly", "--j", "6"), 0,
     "aa8303cc430fc86cc5839db91acf4956451121f6513fa52872a8f6d64b5806b8"),
    (("charpoly", "--j", "11/2", "--format", "json"), 0,
     "2fbe973532b17253d8d14ce77da2d45e86b0081c4585c81665809cb9bafe351c"),
    # Radical trees in JSON.
    (("spectrum", "--j", "7", "--format", "json"), 0,
     "8d3261bbacb4f5f48813ae8a2aa2c24f22e432e25013b00f1c5c7fa2f44153d7"),
    # NUMERIC_ONLY: Sturm-isolated numeric roots.
    (("spectrum", "--j", "12", "--format", "text"), 0,
     "ed6c875665d043698314d1e1230670c31ebe456c9ccfdaea49cb9363d3b5a98d"),
    (("classify", "--j", "5"), 0,
     "38710cce29930d1c8e56bad32ab7f670f4c0c2d1bc35b3eff62ce51eb83013de"),
    (("classify", "--j", "9/2", "--format", "json"), 0,
     "baf461238843ef42faf63a603950967fe6b773dab9f23d7190d3229e21b3a2c8"),
    # Exit 1: the J=2 reference row is a misprint in the paper.
    (("table1",), 1,
     "6cb77796bc21b4554fcab0ffa2bae61b56b10d72ac0cbc6765f40cfda6eee353"),
    # Recorded at def4508.  Both chains have one site and no coupling.
    (("evolve", "--j", "1/2", "--t-max", "2", "--steps", "3"), 0,
     "65ca305b9bb6adf7623bb4bd5bbf218b40dd496f9e6d438f626d2a0affbbbbb6"),
    # Chains of two sites and one site.
    (("evolve", "--j", "1", "--t-max", "2", "--steps", "3"), 0,
     "b00be17ffd48e6b9f1099866903d436432092d0b31ef501b4246e19041dbe544"),
    (("evolve", "--j", "5", "--chi=-2/3", "--t-max", "3", "--steps", "3",
      "--precision", "50"), 0,
     "2533d2eeb3cdfd071eacbceaf914ced2f37a6a52ce22568bad83a0acbe6dfcca"),
    (("verify", "--j", "1/2"), 0,
     "3bfdc99cabdf12c21f6bfa5b9764cb97fd490d1acd17d967b943f0fde21d5850"),
    (("verify", "--j", "1"), 0,
     "6fdd3cb23807a0533437bae91c2e25450b7de4041de5bf46fbdb1ac7a37ad3c6"),
    # Prints the certificate's defect 66.425 for the faulted Taylor propagator.
    (("verify", "--j", "9/2", "--inject-fault"), 1,
     "c31803a8b764e7b26abe1174573049afa11e00e0ba54f1b67cdc0934274c928f"),
]


@pytest.mark.parametrize(
    "argv, code, digest", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_stdout_bytes_unchanged(argv, code, digest):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        got = main(list(argv))
    assert got == code
    assert hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest() == digest
