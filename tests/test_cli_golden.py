"""Byte-for-byte CLI output against recorded golden files.

The files in ``tests/golden/`` were recorded before quotient caching and the
removal of the short-span direct scan. Both changes keep every witness,
enclosure and quotient, so stdout must match byte for byte. The one
recorded difference is ``stats.candidates`` of ``lemma``: the direct scan
checked every integer of a short range, the residue-class search checks
only surrogate candidates. That key is asserted on its own.
"""

import re
from pathlib import Path

import pytest

from dioph.cli import main

GOLDEN = Path(__file__).parent / "golden"
LEMMA = ("lemma", "--oracle", "const:sqrt2", "--c", "3/2", "--c-prime", "19/10",
         "--eps", "1/1000", "--Q")
CANDIDATES = re.compile(r'"candidates":(\d+)')


def _stdout(capsys, argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("name,argv", [
    ("cf_e_depth300.json", ("cf", "--oracle", "const:e", "--depth", "300")),
    ("build_sqrt2_n50_100.json",
     ("build", "--oracle", "const:sqrt2", "--mu", "21/10", "--alpha", "1/2",
      "--beta", "3", "--n", "50:100")),
])
def test_identical_output(capsys, name, argv):
    assert _stdout(capsys, argv) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name,digits,recorded,now", [
    ("lemma_sqrt2_q1e40.json", 40, 837, 1),
    ("lemma_sqrt2_q1e400.json", 400, 1028, 2),
])
def test_lemma_output_except_candidates(capsys, name, digits, recorded, now):
    out = _stdout(capsys, LEMMA + (str(10**digits),)).decode()
    golden = (GOLDEN / name).read_text()
    assert [int(n) for n in CANDIDATES.findall(golden)] == [recorded]
    assert [int(n) for n in CANDIDATES.findall(out)] == [now]
    assert CANDIDATES.sub("", out) == CANDIDATES.sub("", golden)
