import argparse
import hashlib
import importlib.util
import io
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import tightrel
from tightrel import (
    Design,
    RelativeCandidate,
    annotate_existence,
    complement,
    construct_paley_hadamard,
    construct_witt_23,
    design_text,
    load_design,
    rows_to_tsv,
    save_candidate,
    save_design,
    scan_relative3,
    scan_relative4,
)
from tightrel.cli import _parse_plain, entry, main
from tightrel.commands import _VERBS
from tightrel.commands._parser import _build_parser
from tightrel.commands._output import _blocks
from tightrel.commands.construct import _CONSTRUCTIONS, _TRANSFORMS
from tightrel.designs import mask_of

from conftest import relabel, six_point_pair


@pytest.fixture()
def fano_file(tmp_path, fano):
    p = tmp_path / "fano.blk"
    save_design(fano, p)
    return p


@pytest.fixture()
def fano_pair_file(tmp_path, fano_pair):
    p = tmp_path / "fano_pair.rel"
    save_candidate(fano_pair, 3, p)
    return p


def test_verify_true(capsys, fano_file):
    assert main(["verify", str(fano_file), "--t", "2"]) == 0
    assert capsys.readouterr().out == "t-design: true  lambda=[7,3,1]\n"


def test_verify_false(capsys, fano_file):
    assert main(["verify", str(fano_file), "--t", "3"]) == 1
    assert capsys.readouterr().out == "t-design: false\n"


def test_verify_missing_file(capsys, tmp_path):
    assert main(["verify", str(tmp_path / "nope.blk"), "--t", "2"]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_verify_malformed_file(capsys, tmp_path):
    p = tmp_path / "bad.blk"
    p.write_text("DESIGN v9\nn=7 b=0\n")
    assert main(["verify", str(p), "--t", "2"]) == 3


def _file_verbs(design_path, cand_path):
    return (
        ["verify", str(design_path), "--t", "2"],
        ["lambda-seq", str(design_path), "--t", "2"],
        ["check-relative", str(cand_path)],
    )


@pytest.mark.parametrize("n", [200, 0, -3])
def test_point_count_out_of_range_is_a_parse_error(capsys, tmp_path, n):
    d = tmp_path / "d.blk"
    d.write_text(f"DESIGN v1\nn={n} b=0\n")
    c = tmp_path / "c.rel"
    c.write_text(f"RELDESIGN v1\nn={n} t=3\nshell r=2 w=1\n0 1\nshell r=3 w=1\n0 1 2\n")
    for argv in _file_verbs(d, c):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err == f"error: {argv[1]}: point count must be in 1..128, got {n}\n"


def test_non_utf8_file_is_a_parse_error(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"DESIGN v1\nn=7 b=1\n0 1 \xff\n")
    for argv in _file_verbs(p, p):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: not UTF-8 text: ") and err.count("\n") == 1


@st.composite
def _mutated_file(draw, texts):
    """(bytes, breaks): a valid Fano file with one line dropped or
    duplicated, one integer of its two header lines rewritten, or a few
    bytes injected.  breaks marks mutations that leave the header or size
    line invalid, or the text undecodable."""
    kind = draw(st.sampled_from(sorted(texts)))
    lines = texts[kind].splitlines()
    op = draw(st.sampled_from(["drop", "dup", "int", "bytes"]))
    if op in ("drop", "dup"):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i : i + 1] = [] if op == "drop" else [lines[i]] * 2
        return ("\n".join(lines) + "\n").encode(), i < 2
    if op == "int":
        i = draw(st.integers(0, 1))
        found = list(re.finditer(r"\d+", lines[i]))
        m = draw(st.sampled_from(found))
        v = draw(st.integers(-3, 140) | st.sampled_from([10**20, -(10**20)]))
        lines[i] = lines[i][: m.start()] + str(v) + lines[i][m.end() :]
        if i == 0:
            breaks = v != 1
        elif m.start() == 2:  # the point count: Fano's blocks need 7
            breaks = not 7 <= v <= 128
        else:  # b must match the 7 block lines; t must be >= 1
            breaks = v != 7 if kind == "DESIGN" else v < 1
        return ("\n".join(lines) + "\n").encode(), breaks
    data = texts[kind].encode()
    at = draw(st.integers(0, len(data)))
    data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return data, True
    return data, False


@pytest.fixture(scope="module")
def fano_texts(tmp_path_factory, fano, fano_pair):
    p = tmp_path_factory.mktemp("texts") / "pair.rel"
    save_candidate(fano_pair, 3, p)
    return {"DESIGN": design_text(fano), "RELDESIGN": p.read_text()}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_files_fail_cleanly(fano_texts, data):
    blob, breaks = data.draw(_mutated_file(fano_texts))
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "f"
        p.write_bytes(blob)
        for argv in _file_verbs(p, p):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), argv
            err = err.getvalue()
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
            if breaks:
                assert code == 3, (argv, blob)


# int() would read each of these spellings, so each leaves the Fano files
# valid apart from the spelling of the one integer
_SPELLINGS = {
    "٣": lambda v: str(v).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    "1_0": lambda v: f"{v // 10}_{v % 10}",
    "+3": lambda v: f"+{v}",
}
# file, line and the index of the integer on that line
_INTEGER_POSITIONS = {
    "n": ("design", 1, 0),
    "b": ("design", 1, 1),
    "block": ("design", 2, 1),
    "pair-n": ("pair", 1, 0),
    "t": ("pair", 1, 1),
    "r": ("pair", 2, 0),
    "pair-block": ("pair", 3, 2),
}


@pytest.mark.parametrize("position", list(_INTEGER_POSITIONS))
@pytest.mark.parametrize("spelling", list(_SPELLINGS))
def test_file_integers_are_ascii_digits(capsys, fano_file, fano_pair_file, spelling, position):
    kind, i, k = _INTEGER_POSITIONS[position]
    path = fano_file if kind == "design" else fano_pair_file
    lines = path.read_text(encoding="utf-8").splitlines()
    m = list(re.finditer(r"[0-9]+", lines[i]))[k]
    lines[i] = lines[i][: m.start()] + _SPELLINGS[spelling](int(m.group())) + lines[i][m.end() :]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["verify", str(path), "--t", "2"] if kind == "design" else ["check-relative", str(path)]
    assert main(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {path}: ") and out.err.count("\n") == 1


def test_verify_bad_t(capsys, fano_file):
    assert main(["verify", str(fano_file), "--t", "9"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.fixture()
def empty_file(tmp_path):
    p = tmp_path / "empty.blk"
    p.write_text("DESIGN v1\nn=7 b=0\n")
    return p


def test_verify_design_without_blocks(capsys, empty_file):
    # every t-subset lies in no block, so each t up to the point count holds
    # with all lambdas 0; past it, t is refused as t > r is with blocks
    assert main(["verify", str(empty_file), "--t", "7"]) == 0
    assert capsys.readouterr().out == "t-design: true  lambda=[0,0,0,0,0,0,0,0]\n"
    assert main(["verify", str(empty_file), "--t", "8"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: t exceeds the point count\n"


def test_lambda_seq_design_without_blocks(capsys, empty_file):
    for t, line in (("1", "7*0"), ("3", "35*0"), ("7", "1*0")):
        assert main(["lambda-seq", str(empty_file), "--t", t]) == 0
        assert capsys.readouterr().out == line + "\n"
    for t in ("0", "8"):
        assert main(["lambda-seq", str(empty_file), "--t", t]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: need 1 <= t <= point count\n"


def test_check_relative_true(capsys, fano_pair_file):
    assert main(["check-relative", str(fano_pair_file)]) == 0
    assert capsys.readouterr().out == "relative-design: true\n"


def test_check_relative_witness(capsys, fano_pair_file):
    assert main(["check-relative", str(fano_pair_file), "--t", "4"]) == 1
    out = capsys.readouterr().out
    assert out == "relative-design: false  witness: s=4 S=(0,1,2,3)\n"


def test_check_relative_tight(capsys, fano_pair_file):
    assert main(["check-relative", str(fano_pair_file), "--tight"]) == 0
    assert capsys.readouterr().out == "relative-design: true\ntight: true\n"


def test_check_relative_tight_failure_sets_exit(capsys, fano_pair_file):
    assert main(["check-relative", str(fano_pair_file), "--t", "4", "--tight"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "tight: false"


def test_check_relative_tight_unknown_t(capsys, fano_pair_file):
    # every t has a bound: at t = 6 the pair is no relative design, and at
    # t = 2 it is one with 14 blocks where the bound is n + 1 = 8
    assert main(["check-relative", str(fano_pair_file), "--t", "6", "--tight"]) == 1
    out = capsys.readouterr()
    assert out.out == "relative-design: false  witness: s=4 S=(0,1,2,3)\ntight: false\n"
    assert out.err == ""
    assert main(["check-relative", str(fano_pair_file), "--t", "2", "--tight"]) == 1
    out = capsys.readouterr()
    assert out.out == "relative-design: true\ntight: false\n"
    assert out.err == ""


def test_check_relative_even_n_moment_identities_not_enough(capsys, tmp_path):
    # the identities hold at every strength, but the union is only 2-wise
    # balanced, and the witness is the first unbalanced triple
    p = tmp_path / "six.rel"
    save_candidate(six_point_pair(), 3, p)
    for t in ("3", "4"):
        assert main(["check-relative", str(p), "--t", t]) == 1
        assert capsys.readouterr().out == "relative-design: false  witness: s=3 S=(0,1,2)\n"
    assert main(["check-relative", str(p), "--t", "2"]) == 0
    assert capsys.readouterr().out == "relative-design: true\n"


def test_check_relative_even_n_past_the_coverage_limit(capsys, tmp_path):
    # complete shells form a relative design at every strength; on n = 2m <=
    # 2t the oracle checks the balance at sizes m..t within its own scan, so
    # a large union (1140 blocks of 17 points, C(17, 9) 9-subsets each, more
    # than 2^24 in all) gets its verdict
    shells = [Design(20, tuple(map(mask_of, itertools.combinations(range(20), r)))) for r in (2, 17)]
    assert math.comb(17, 9) * shells[1].num_blocks > 2**24
    p = tmp_path / "complete.rel"
    save_candidate(RelativeCandidate.from_designs(*shells, 1, 3), 10, p)
    assert main(["check-relative", str(p)]) == 0
    assert capsys.readouterr().out == "relative-design: true\n"


@pytest.mark.parametrize("weight", ["1e30000", "1.5", "1_000"])
def test_check_relative_weight_is_an_integer_or_ratio(capsys, tmp_path, fano_pair_file, weight):
    # Fraction() reads decimals, exponents and underscores; the file format
    # does not, and a weight like 1e30000 must not build a huge integer
    p = tmp_path / "weight.rel"
    p.write_text(fano_pair_file.read_text().replace("w=1/1", f"w={weight}", 1))
    assert main(["check-relative", str(p)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {p}: bad shell parameters in 'shell r=3 w={weight}'\n"


def test_check_relative_allow_trivial(capsys, tmp_path):
    near = Design(7, tuple(mask_of(b) for b in itertools.combinations(range(7), 1)))
    mid = Design(7, tuple(mask_of(b) for b in itertools.combinations(range(7), 3)))
    cand = RelativeCandidate.from_designs(near, mid, allow_trivial=True)
    p = tmp_path / "trivial.rel"
    save_candidate(cand, 2, p)
    assert main(["check-relative", str(p)]) == 3
    assert main(["check-relative", str(p), "--allow-trivial"]) in (0, 1)
    err = capsys.readouterr()
    assert err.out.splitlines()[-1].startswith("relative-design:")


def test_check_relative_allow_trivial_full_shell(capsys, tmp_path, fano):
    # a shell of one full block gets a verdict, not a usage error
    cand = RelativeCandidate.from_designs(fano, Design(7, (127,)), allow_trivial=True)
    p = tmp_path / "full.rel"
    save_candidate(cand, 3, p)
    assert main(["check-relative", str(p), "--allow-trivial"]) == 1
    out = capsys.readouterr()
    assert out.out == "relative-design: false  witness: s=3 S=(0,1,2)\n"
    assert out.err == ""


def test_lambda_seq(capsys, fano_file):
    assert main(["lambda-seq", str(fano_file), "--t", "3"]) == 0
    assert capsys.readouterr().out == "28*0 7*1\n"
    assert main(["lambda-seq", str(fano_file), "--t", "2"]) == 0
    assert capsys.readouterr().out == "21*1\n"


def _lambda_seq_traced(path, t):
    """Exit code, tracemalloc peak and seconds of lambda-seq on path at t."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["lambda-seq", str(path), "--t", str(t)])
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak, seconds


def test_lambda_seq_oversized_coverage(capsys, tmp_path):
    # one 30-block has C(30,15) = 155,117,520 15-subsets, each in it once:
    # the counts take two adjacent values, which one count of block pairs
    # decides without a walk
    p = tmp_path / "big.blk"
    p.write_text("DESIGN v1\nn=128 b=1\n" + " ".join(map(str, range(30))) + "\n")
    code, peak, seconds = _lambda_seq_traced(p, 15)
    assert code == 0
    assert peak < 2**20
    assert seconds < 1
    out = capsys.readouterr()
    assert out.out == f"{math.comb(128, 15) - math.comb(30, 15)}*0 {math.comb(30, 15)}*1\n"
    assert out.out == "13216710966395279280*0 155117520*1\n"
    assert out.err == ""

    # three overlapping 30-blocks give the 15-subsets counts 0, 1 and 2, so
    # the walk must count them: refused at its work budget, with nothing
    # allocated but the counts, as a usage error
    p.write_text("DESIGN v1\nn=128 b=3\n" + "".join(
        " ".join(map(str, range(k, k + 30))) + "\n" for k in (0, 10, 20)))
    code, peak, _ = _lambda_seq_traced(p, 15)
    assert code == 2
    assert peak < 2**20
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: the 15-subset walk passed its work budget of 1,000,000,000 units "
                       "after 2,493,767 steps of 401 units\n")
    assert "Traceback" not in out.err


def test_scan3_stdout(capsys):
    assert main(["scan-3", "--max-n", "31", "--cases", "1", "--threads", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16  # header + 15 rows
    assert lines[0].startswith("n\tr1\tr2")
    row7 = lines[1].split("\t")
    assert row7[:8] == ["7", "3", "4", "7", "7", "1", "2", "1/1"]
    assert row7[8:] == ["(0,1);(1,0)", "1", "*", "-"]


def test_scan3_annotate_golden(capsys):
    assert main(
        ["scan-3", "--max-n", "7", "--cases", "1", "--annotate", "--threads", "1"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == (
        "7\t3\t4\t7\t7\t1\t2\t1/1\t(0,1);(1,0)\t1\t*\t"
        "r3.BRCOdd=Passes;r4.BRCOdd=Passes"
    )


def test_scan3_out_and_thread_determinism(tmp_path):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    assert main(["scan-3", "--max-n", "45", "--threads", "1", "--out", str(a)]) == 0
    assert main(["scan-3", "--max-n", "45", "--threads", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan3_bad_cases(capsys):
    assert main(["scan-3", "--max-n", "31", "--cases", "9", "--threads", "1"]) == 2


def test_scan4_stdout(capsys):
    assert main(["scan-4", "--max-n", "11", "--threads", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    main_rows = [ln for ln in lines[1:] if ln.split("\t")[7] == "1/1"]
    assert main_rows == ["11\t5\t6\t33\t33\t2\t4\t1/1\t(0,2);(1,1);(2,0)\t-\t*\t-"]


@settings(max_examples=30, deadline=None)
@given(
    t=st.sampled_from([3, 4]),
    max_n3=st.integers(4, 120),
    max_n4=st.integers(5, 45),
    cases=st.lists(st.integers(1, 4), min_size=1, max_size=6),
    annotate=st.booleans(),
)
@example(t=3, max_n3=120, max_n4=5, cases=[4, 2, 4], annotate=True)
@example(t=3, max_n3=31, max_n4=5, cases=[1, 2, 3, 4], annotate=False)
@example(t=4, max_n3=4, max_n4=45, cases=[1], annotate=True)
@example(t=4, max_n3=4, max_n4=5, cases=[1], annotate=False)
def test_scan_stream_matches_library_rows(t, max_n3, max_n4, cases, annotate):
    # the verb streams its lines from the split enumerator; the library's rows,
    # verdicts and TSV must give the same bytes
    if t == 3:
        argv = ["scan-3", "--max-n", str(max_n3), "--cases", ",".join(map(str, cases))]
        rows = scan_relative3(max_n3, set(cases))
    else:
        argv = ["scan-4", "--max-n", str(max_n4)]
        rows = scan_relative4(max_n4)
    if annotate:
        argv.append("--annotate")
        rows = annotate_existence(rows)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue() == rows_to_tsv(rows)


def test_output_blocks_join_chunks_in_order():
    # a streamed table is written in blocks of at least 64 KiB, in order
    chunks = [f"{i:05d}\n" * 4000 for i in range(7)]  # 24,000 characters each
    blocks = list(_blocks(iter(chunks)))
    assert [len(b) for b in blocks] == [72000, 72000, 24000]
    assert "".join(blocks) == "".join(chunks)
    assert list(_blocks(["x" * 70000, "y"])) == ["x" * 70000, "y"]
    assert "".join(_blocks(iter([]))) == ""


@pytest.mark.parametrize("cases", ["1,,2", "", "x", "9", "1,5", "0"])
def test_scan3_bad_cases_message(capsys, cases):
    assert main(["scan-3", "--max-n", "10", "--cases", cases]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --cases must be a comma list from {{1,2,3,4}}; got {cases!r}\n"


@pytest.mark.parametrize(
    "argv",
    [["scan-3", "--max-n", "3"], ["scan-3", "--max-n", "40", "--cases", "1,,2"],
     ["scan-4", "--max-n", "4", "--annotate"]],
)
def test_scan_usage_error_leaves_out_file_alone(capsys, tmp_path, argv):
    # every argument is checked before --out is opened (and so truncated)
    out = tmp_path / "table.tsv"
    out.write_bytes(b"kept\n")
    assert main([*argv, "--out", str(out)]) == 2
    assert out.read_bytes() == b"kept\n"
    assert capsys.readouterr().err.startswith("error: ")


def test_scan_out_is_opened_before_the_scan(capsys, tmp_path):
    # scan-4 to n = 100000 would run for hours; the unwritable path fails first
    t0 = time.perf_counter()
    code = main(["scan-4", "--max-n", "100000", "--out", str(tmp_path / "no-dir" / "x.tsv")])
    assert code == 3
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


_SCAN_IMPORTS_PROBE = """
import contextlib, io, sys
import tightrel.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = tightrel.cli.main(sys.argv[1:])
print(code, "fractions" in sys.modules, "decimal" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv",
    [["scan-3", "--max-n", "120", "--annotate"],
     ["scan-4", "--max-n", "45", "--annotate", "--out", "t.tsv"]],
)
def test_scan_processes_load_neither_fractions_nor_decimal(tmp_path, argv):
    proc = subprocess.run(
        [sys.executable, "-c", _SCAN_IMPORTS_PROBE, *argv],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False False\n"


def test_nonexist_brc(capsys):
    assert main(["nonexist", "--params", "29,8,2"]) == 1
    assert capsys.readouterr().out == "x^2 = 6y^2 + 2z^2 : insolvable\n"
    assert main(["nonexist", "--params", "7,3,1"]) == 0
    assert capsys.readouterr().out.endswith(": solvable\n")


def test_nonexist_square(capsys):
    assert main(["nonexist", "--params", "22,7,2"]) == 1
    assert capsys.readouterr().out == "k-lam=5 is not a perfect square\n"
    assert main(["nonexist", "--params", "16,6,2"]) == 0


def test_nonexist_driessen(capsys):
    assert main(["nonexist", "--params", "11,5,2", "--t", "3"]) == 1
    out = capsys.readouterr().out
    assert out == "u=4 (direct): u mod 48 = 4 fails the congruence conditions\n"
    assert main(["nonexist", "--params", "7,3,1", "--t", "3"]) == 0


def test_nonexist_admissibility_first(capsys):
    # k - lam = 4 is a square, but k(k-1) != lam(v-1)
    assert main(["nonexist", "--params", "10,5,1"]) == 1
    assert capsys.readouterr().out == "k(k-1)=20 != lam(v-1)=9: no symmetric 2-(10,5,1) design\n"
    # no Driessen shape, but lam_2 = 7/2
    assert main(["nonexist", "--params", "9,4,1", "--t", "3"]) == 1
    assert capsys.readouterr().out == "lam_2=7/2 is not an integer: no 3-(9,4,1) design\n"


def test_nonexist_large_admissible_params(capsys):
    # k - lam = 1000000007 * 998244353: by trial division alone this did not
    # end within 15 s
    v, k = 996491802247273694975782512510752313, 998244359987710472
    assert k * (k - 1) == v - 1
    t0 = time.perf_counter()
    assert main(["nonexist", "--params", f"{v},{k},1"]) in (0, 1)
    assert time.perf_counter() - t0 < 2.0
    assert capsys.readouterr().out.startswith("x^2 = 998244359987710471y^2 ")


def test_nonexist_past_the_exact_primality_range(capsys):
    # k - 1 = 2^89 - 1 is prime, which Miller-Rabin cannot prove this far out
    k = 2**89
    assert main(["nonexist", "--params", f"{k * (k - 1) + 1},{k},1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: cannot prove 618970019642690137449562111 prime")
    assert out.err.count("\n") == 1


def test_nonexist_bad_params(capsys):
    assert main(["nonexist", "--params", "29,8"]) == 2
    assert main(["nonexist", "--params", "a,b,c"]) == 2
    assert main(["nonexist", "--params", "29,8,2", "--t", "4"]) == 2


def _test_named_by(detail):
    """The test=outcome that nonexist's one line of detail names."""
    if detail.startswith("k-lam="):
        return "SquareEven=" + ("RuledOut" if " is not " in detail else "Passes")
    if detail.startswith("x^2 = "):
        return "BRCOdd=" + ("RuledOut" if detail.endswith(" : insolvable") else "Passes")
    if detail.startswith("u="):
        return "Driessen=" + ("RuledOut" if detail.endswith(" fails the congruence conditions") else "Passes")
    assert detail.endswith(" has no matching shape"), detail
    return "Driessen=NotApplicable"


@pytest.mark.parametrize("verb, max_n, t", [("scan-3", "100", "2"), ("scan-4", "50", "3")])
def test_nonexist_agrees_with_the_scan_annotations(capsys, verb, max_n, t):
    # the verb and the scans' verdict column both come from
    # screens.nonexistence_test: on each distinct shell they name one verdict
    assert main([verb, "--max-n", max_n, "--annotate"]) == 0
    shells = {}
    for line in capsys.readouterr().out.splitlines()[1:]:
        col = line.split("\t")
        for r, lam, verdict in zip(col[1:3], col[5:7], col[11].split(";")):
            assert verdict.startswith(f"r{r}.")
            shells[col[0], r, lam] = verdict.split(".", 1)[1]
    assert len(shells) > 20
    for (n, r, lam), verdict in shells.items():
        code = main(["nonexist", "--params", f"{n},{r},{lam}", "--t", t])
        named = _test_named_by(capsys.readouterr().out.rstrip("\n"))
        assert (named, code) == (verdict, int(verdict.endswith("=RuledOut"))), (n, r, lam)


def test_construct_fano_stdout(capsys, fano):
    assert main(["construct", "fano"]) == 0
    assert capsys.readouterr().out == design_text(fano)


def test_construct_paley_out(tmp_path, paley11):
    p = tmp_path / "p11.blk"
    assert main(["construct", "paley", "11", "--out", str(p)]) == 0
    assert load_design(p) == paley11


def test_construct_paley_rejects_bad_q(capsys):
    assert main(["construct", "paley", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_construct_paley_checks_the_point_count_first(capsys, monkeypatch):
    # trial division and the q residue blocks took 19 s for q = 10007
    from tightrel import constructions

    def never(q):
        raise AssertionError("primality tested before the point-count limit")

    monkeypatch.setattr(constructions, "_is_prime", never)
    assert main(["construct", "paley", "100003"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: point count must be in 1..128, got 100003\n")


def test_construct_witt23(tmp_path, witt):
    p = tmp_path / "w.blk"
    assert main(["construct", "witt23", "--out", str(p)]) == 0
    assert load_design(p) == witt


def test_transform_complement(tmp_path, fano, fano_file):
    out = tmp_path / "c.blk"
    assert main(["transform", "complement", str(fano_file), "--out", str(out)]) == 0
    assert load_design(out) == complement(fano)


def test_transform_derived_residual_extend(tmp_path, witt, y6, y7):
    wfile = tmp_path / "w.blk"
    save_design(witt, wfile)
    d = tmp_path / "d.blk"
    r = tmp_path / "r.blk"
    assert main(["transform", "derived", str(wfile), "0", "--out", str(d)]) == 0
    assert main(["transform", "residual", str(wfile), "0", "--out", str(r)]) == 0
    assert load_design(d) == y6
    assert load_design(r) == y7
    ext = tmp_path / "e.blk"
    assert main(["transform", "extend", str(d), str(r), "--out", str(ext)]) == 0
    assert load_design(ext).num_blocks == 253


def test_construct_shares_transform_verbs(tmp_path, fano, fano_file):
    out = tmp_path / "c.blk"
    assert main(["construct", "complement", str(fano_file), "--out", str(out)]) == 0
    assert load_design(out) == complement(fano)


# sha256 of each sub-verb's stdout, taken before the transforms and the
# constructions moved from designs.py to constructions.py (commit dff38f6)
_CONSTRUCT_SHA256 = {
    "construct fano": "92d6c40c8cc4104133b2f4972d37b2d1ef8b09074b02238841fff98009696eaf",
    "construct paley 43": "a4c87f038203c2150b8f3a298f06541bd634e8d4eafeb489dcd9aafa9a6d6b47",
    "construct witt23": "5bb251ccaefafe737baf9315f40641376cba6cd24a0a9056cba3f77592f42e1e",
    "transform complement w.blk": "f767868788518a65946d1bbc9930588fe78eabdc8a243d0b352567c3301eaa09",
    "transform derived w.blk 0": "a7acaeaac6ff106a9a20246bef44d643abebc0811924df82c8b0dc28a1d88723",
    "transform residual w.blk 0": "8fc8bda93f5f6fe68734d656a4899a00dd5ec41266296782b8b688d66df02768",
    # the derived and residual designs at a point extend back to the design
    "transform extend d.blk r.blk": "5bb251ccaefafe737baf9315f40641376cba6cd24a0a9056cba3f77592f42e1e",
}


def test_construct_and_transform_outputs_are_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "witt23", "--out", "w.blk"]) == 0
    assert main(["transform", "derived", "w.blk", "0", "--out", "d.blk"]) == 0
    assert main(["transform", "residual", "w.blk", "0", "--out", "r.blk"]) == 0
    digests = {}
    for argv in _CONSTRUCT_SHA256:
        assert main(argv.split()) == 0
        digests[argv] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == _CONSTRUCT_SHA256


def test_conjecture2(capsys, tmp_path, fano, fano_swapped):
    save_design(fano, tmp_path / "a.blk")
    save_design(fano_swapped, tmp_path / "b.blk")
    assert main(["conjecture2", str(tmp_path), "--t", "3"]) == 0
    assert capsys.readouterr().out == "a.blk\tb.blk\n"


def test_conjecture2_compares_block_multisets(capsys, tmp_path):
    # one block set, {012, 345}, but different multiplicities; both
    # histograms at t = 2 are 9*0 3*1 3*2
    (tmp_path / "a.blk").write_text("DESIGN v1\nn=6 b=3\n0 1 2\n0 1 2\n3 4 5\n")
    (tmp_path / "b.blk").write_text("DESIGN v1\nn=6 b=3\n0 1 2\n3 4 5\n3 4 5\n")
    assert main(["lambda-seq", str(tmp_path / "a.blk"), "--t", "2"]) == 0
    assert main(["lambda-seq", str(tmp_path / "b.blk"), "--t", "2"]) == 0
    assert capsys.readouterr().out == "9*0 3*1 3*2\n" * 2
    assert main(["conjecture2", str(tmp_path), "--t", "2"]) == 0
    assert capsys.readouterr() == ("a.blk\tb.blk\n", "")


def test_conjecture2_designs_without_blocks(capsys, tmp_path):
    # two empty designs are one block set, so no pair, and an empty design
    # takes no part in the shared block size: its histogram is C(n,t)*0
    empty = "DESIGN v1\nn=7 b=0\n"
    (tmp_path / "a.blk").write_text(empty)
    (tmp_path / "b.blk").write_text(empty)
    assert main(["conjecture2", str(tmp_path), "--t", "3"]) == 0
    assert capsys.readouterr() == ("", "")
    paley = construct_paley_hadamard(19)
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "e.blk").write_text("DESIGN v1\nn=19 b=0\n")
    save_design(paley, mixed / "p.blk")
    save_design(relabel(paley, {0: 1, 1: 0}), mixed / "q.blk")
    assert main(["conjecture2", str(mixed), "--t", "3"]) == 0
    assert capsys.readouterr() == ("p.blk\tq.blk\n", "")


def test_conjecture2_empty_dir(capsys, tmp_path):
    assert main(["conjecture2", str(tmp_path), "--t", "3"]) == 3


def test_usage_errors_exit_2(capsys):
    assert main(["no-such-verb"]) == 2
    assert main([]) == 2
    assert main(["verify"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "verify" in capsys.readouterr().out


def _child_env():
    """The environment with this tightrel first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(tightrel.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_leaves_out_concurrent_futures(tmp_path):
    code = "import sys, tightrel.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


_FOOTPRINT_PROBE = """
import contextlib, io, sys
import tightrel
print(sorted(m for m in sys.modules if m.startswith("tightrel.")))
import tightrel.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = tightrel.cli.main(sys.argv[1:])
watched = ("__future__", "argparse", "dataclasses", "fractions", "gettext", "inspect", "locale")
print(code, sorted(m for m in sys.modules if m.startswith("tightrel.") or m in watched))
"""


_COMMON = ["tightrel._base", "tightrel.cli", "tightrel.commands"]
_SCAN = [*_COMMON, "tightrel.commands._output", "tightrel.commands.scan", "tightrel.feasibility",
         "tightrel.screens"]
# sub-verbs are parsed by argparse, which translates its messages through
# gettext and so loads locale
_CONSTRUCT = [*_COMMON, "argparse", "gettext", "locale", "tightrel._design",
              "tightrel.commands._output", "tightrel.commands._parser",
              "tightrel.commands.construct", "tightrel.constructions"]


@pytest.fixture()
def verb_files(tmp_path):
    """tmp_path with paley.blk (Paley(19)), pair.rel (it and its complement
    at t = 3), fano.rel (the same for Paley(7)), witt.blk (the Witt design),
    witt.rel (it and its complement at t = 5) and corpus/ (holding
    paley.blk)."""
    paley = construct_paley_hadamard(19)
    save_design(paley, tmp_path / "paley.blk")
    save_candidate(RelativeCandidate.from_designs(paley, complement(paley)), 3, tmp_path / "pair.rel")
    fano = construct_paley_hadamard(7)
    save_candidate(RelativeCandidate.from_designs(fano, complement(fano)), 3, tmp_path / "fano.rel")
    witt = construct_witt_23()
    save_design(witt, tmp_path / "witt.blk")
    save_candidate(RelativeCandidate.from_designs(witt, complement(witt)), 5, tmp_path / "witt.rel")
    (tmp_path / "corpus").mkdir()
    save_design(paley, tmp_path / "corpus" / "paley.blk")
    return tmp_path


@pytest.mark.parametrize(
    "argv,code,loaded",
    [
        # bench/tracing.py wraps analysis functions and finds the module in
        # sys.modules, so this verb keeps loading analysis for tight_size;
        # neither it nor the oracle needs the coverage kernel of designs.
        # Every routed row here spends its walk's allowance and counts its
        # block pairs (a spy on _design._pair_counts in process): the
        # oracle within hamming, the coverage verbs within designs
        (["check-relative", "pair.rel", "--tight"], 0,
         sorted([*_COMMON, "fractions", "tightrel._design", "tightrel.analysis",
                 "tightrel.commands.check_relative", "tightrel.hamming"])),
        (["check-relative", "pair.rel"], 0,
         sorted([*_COMMON, "fractions", "tightrel._design", "tightrel.commands.check_relative",
                 "tightrel.hamming"])),
        # verify and lambda-seq on Paley(19) at t = 2 and 3 count their block
        # pairs; lambda-seq at t = 3 finds three values and walks on.  No
        # route loads hamming or fractions
        (["verify", "paley.blk", "--t", "2"], 0,
         sorted([*_COMMON, "tightrel._design", "tightrel.commands.verify", "tightrel.designs"])),
        (["lambda-seq", "paley.blk", "--t", "3"], 0,
         sorted([*_COMMON, "tightrel._design", "tightrel.commands.lambda_seq", "tightrel.designs",
                 "tightrel.profiles"])),
        # the ternary-form test, after the counting conditions pass
        (["nonexist", "--params", "29,8,2"], 1,
         sorted([*_COMMON, "tightrel.commands.nonexist", "tightrel.screens"])),
        # lam_2 = 7/2: the counting conditions fail on a fraction
        (["nonexist", "--params", "9,4,1", "--t", "3"], 1,
         sorted([*_COMMON, "tightrel.commands.nonexist", "tightrel.screens"])),
        # the scans write their ratios as integer pairs, building no rows
        (["scan-3", "--max-n", "20", "--annotate"], 0, sorted(_SCAN)),
        (["scan-4", "--max-n", "20", "--annotate"], 0, sorted(_SCAN)),
        # the constructions read and write design files without the kernel
        (["construct", "fano"], 0, sorted(_CONSTRUCT)),
        (["transform", "complement", "paley.blk"], 0, sorted(_CONSTRUCT)),
        (["conjecture2", "corpus", "--t", "3"], 0,
         sorted([*_COMMON, "tightrel._design", "tightrel.commands._output",
                 "tightrel.commands.conjecture2", "tightrel.designs", "tightrel.profiles"])),
        # a small candidate counts its block pairs too: its count is cheap
        (["check-relative", "fano.rel"], 0,
         sorted([*_COMMON, "fractions", "tightrel._design", "tightrel.commands.check_relative",
                 "tightrel.hamming"])),
        # appended last, so the existing parameter ids keep their rows
        (["verify", "paley.blk", "--t", "3"], 1,
         sorted([*_COMMON, "tightrel._design", "tightrel.commands.verify", "tightrel.designs"])),
        (["lambda-seq", "paley.blk", "--t", "2"], 0,
         sorted([*_COMMON, "tightrel._design", "tightrel.commands.lambda_seq", "tightrel.designs",
                 "tightrel.profiles"])),
        # the Witt design and pair
        (["verify", "witt.blk", "--t", "4"], 0,
         sorted([*_COMMON, "tightrel._design", "tightrel.commands.verify", "tightrel.designs"])),
        (["lambda-seq", "witt.blk", "--t", "5"], 0,
         sorted([*_COMMON, "tightrel._design", "tightrel.commands.lambda_seq", "tightrel.designs",
                 "tightrel.profiles"])),
        (["check-relative", "witt.rel"], 0,
         sorted([*_COMMON, "fractions", "tightrel._design", "tightrel.commands.check_relative",
                 "tightrel.hamming"])),
    ],
)
def test_cli_process_loads_only_its_verbs_modules(verb_files, argv, code, loaded):
    # `import tightrel` loads no submodule; a verb loads its own command
    # module and the modules it runs, no verb here pays for __future__,
    # dataclasses and inspect, only the weighted candidates of check-relative
    # need fractions, and a valid command line of a verb without sub-verbs is
    # parsed without argparse, so without gettext and locale
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE, *argv],
        capture_output=True, text=True, cwd=verb_files, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", f"{code} {loaded}"]


@pytest.mark.parametrize(
    "argv,code",
    [(["verify", "paley.blk", "--t", "2"], 0), (["check-relative", "pair.rel", "--tight"], 0),
     (["lambda-seq", "paley.blk", "--t", "3"], 0), (["scan-3", "--max-n", "20"], 0),
     (["scan-4", "--max-n", "20"], 0), (["nonexist", "--params", "29,8,2"], 1),
     (["construct", "fano"], 0), (["transform", "complement", "paley.blk"], 0),
     (["conjecture2", "corpus", "--t", "3"], 0)],
)
def test_module_entry_imports_no_second_cli(verb_files, argv, code):
    # under `python -m tightrel.cli` the running cli.py is __main__, so a
    # command module that imported tightrel.cli would compile it a second time
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "tightrel.cli", *argv],
        capture_output=True, text=True, cwd=verb_files, env=_child_env(),
    )
    assert proc.returncode == code, proc.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "tightrel.commands" in imported
    assert "tightrel.cli" not in imported


def _parse_outcome(parser, argv):
    """stdout, stderr and exit code (None when parsing succeeds) of
    parser.parse_args(argv), with the namespace it returns."""
    out, err = io.StringIO(), io.StringIO()
    code = namespace = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code, namespace


_VALID_ARGV = {
    "verify": ["f.blk", "--t", "2"],
    "check-relative": ["f.rel", "--tight", "--t", "3"],
    "lambda-seq": ["f.blk", "--t", "3"],
    "scan-3": ["--max-n", "40", "--cases", "1,3", "--annotate", "--threads", "2", "--out", "x"],
    "scan-4": ["--max-n", "40"],
    "nonexist": ["--params", "7,3,1", "--t", "3"],
    "conjecture2": ["corpus", "--t", "3", "--out", "x"],
}
_VALID_SUB_ARGV = {
    "fano": [], "paley": ["7"], "witt23": ["--out", "x"], "complement": ["f.blk"],
    "derived": ["f.blk", "0"], "residual": ["f.blk", "1"], "extend": ["a.blk", "b.blk"],
}


def _parser_cases():
    """(argv, exit code) for every verb and sub-verb's --help (0), one of its
    usage errors (2) and one valid command line (None: no exit), plus the
    top-level help and errors."""
    cases = [([], 2), (["-h"], 0), (["-h", "verify"], 0), (["no-such-verb"], 2),
             (["no-such-verb", "-h"], 2), (["--no-such-flag", "verify"], 2), (["--", "verify"], 2)]
    # a second verb name after the first: only the first verb is registered
    cases += [(["check-relative", "f.rel", "verify"], 2), (["verify", "-h", "nonexist"], 0),
              (["scan-3", "--max-n", "9", "scan-4"], 2)]
    subs = {"construct": _CONSTRUCTIONS, "transform": _TRANSFORMS}
    for verb, _, _ in _VERBS:
        cases += [([verb, "--help"], 0), ([verb, "--no-such-flag"], 2)]
        if verb in subs:
            cases += [([verb], 2), ([verb, "no-such-sub-verb"], 2)]
            for sub, _, _ in subs[verb]:
                cases += [([verb, sub, "--help"], 0), ([verb, sub, "--no-such-flag"], 2),
                          ([verb, sub, *_VALID_SUB_ARGV[sub]], None)]
        else:
            cases.append(([verb, *_VALID_ARGV[verb]], None))
    return cases


def _case_id(case):
    argv, code = case
    return f"{' '.join(argv) or '(no arguments)'} -> {code}"


@pytest.mark.parametrize("argv,code", _parser_cases(), ids=map(_case_id, _parser_cases()))
def test_parser_for_the_named_verbs_matches_the_full_parser(argv, code, monkeypatch):
    # the parser main builds registers only the verb that argv[0] names;
    # it must print, fail and parse as the one with every verb
    monkeypatch.setenv("COLUMNS", "80")
    reference = _parse_outcome(_build_parser(), argv)
    assert reference[2] == code
    assert _parse_outcome(_build_parser(argv), argv) == reference


def test_parser_fills_in_only_the_named_verbs():
    # a sub-parser for argv[0] alone when it names a verb, every verb otherwise
    def registered(argv):
        parser = _build_parser(argv)
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return list(sub.choices), parser.format_usage()

    every = registered(None)
    assert every[0] == [name for name, _, _ in _VERBS]
    for argv in ([], ["-h", "verify"], ["no-such-verb", "verify"], ["--", "verify"]):
        assert registered(argv) == every
    # the usage line still names every verb
    assert registered(["nonexist", "verify"]) == (["nonexist"], every[1])
    # so a verb named after the first one is refused, not parsed with
    _, err, code, _ = _parse_outcome(_build_parser(["nonexist"]), ["verify", "-h"])
    assert code == 2 and "invalid choice: 'verify'" in err


@pytest.mark.parametrize("argv,code", _parser_cases(), ids=map(_case_id, _parser_cases()))
def test_plain_parse_matches_argparse_on_the_parser_cases(argv, code):
    # main parses a plain command line without argparse: it declines every
    # line argparse answers with help or a usage error, and every sub-verb,
    # and returns argparse's namespace for the valid lines of the other verbs
    plain = _parse_plain(argv)
    if code is not None or argv[0] in ("construct", "transform"):
        assert plain is None
    else:
        assert vars(plain) == _parse_outcome(_build_parser(argv), argv)[3]


_WORD = st.sampled_from(["f.blk", "corpus", "", "a b", "x=1", "verify", "7", "1,3"])
# int() takes spaces, underscores and non-ASCII digits, as argparse does through it
_INT = st.integers(0, 99).map(str) | st.sampled_from([" 7", "1_0", "٣"])
# verb: (positionals, {option: (values, required)}); values is None for a flag
_GRAMMAR = {
    "verify": (1, {"--t": (_INT, True)}),
    "check-relative": (1, {"--t": (_INT, False), "--tight": (None, False),
                           "--allow-trivial": (None, False)}),
    "lambda-seq": (1, {"--t": (_INT, True)}),
    "scan-3": (0, {"--max-n": (_INT, True), "--cases": (_WORD, False), "--annotate": (None, False),
                   "--threads": (_INT, False), "--out": (_WORD, False)}),
    "scan-4": (0, {"--max-n": (_INT, True), "--annotate": (None, False), "--threads": (_INT, False),
                   "--out": (_WORD, False)}),
    "nonexist": (0, {"--params": (_WORD, True), "--t": (st.sampled_from(["2", "3"]), False)}),
    "conjecture2": (1, {"--t": (_INT, True), "--out": (_WORD, False)}),
}


@st.composite
def _plain_lines(draw):
    """A valid command line of a verb without sub-verbs: the verb and its
    pieces (the positional, and each option with its value) in a drawn order."""
    verb = draw(st.sampled_from(sorted(_GRAMMAR)))
    positionals, options = _GRAMMAR[verb]
    pieces = [[draw(_WORD)] for _ in range(positionals)]
    for option, (values, required) in options.items():
        if required or draw(st.booleans()):
            pieces.append([option] if values is None else [option, draw(values)])
    return verb, draw(st.permutations(pieces))


@st.composite
def _mutated_lines(draw):
    """A valid line with one to three changes that argparse may still take
    or may refuse: an abbreviated option, --opt=value, a negative or missing
    value, a repeated piece, or a stray token such as -h or --."""
    verb, pieces = draw(_plain_lines())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(pieces) - 1)) if pieces else 0
        piece = pieces[i] if pieces else []
        kind = draw(st.sampled_from(["abbreviate", "equals", "negative", "drop", "repeat", "stray"]))
        if kind == "abbreviate" and piece and piece[0].startswith("--") and len(piece[0]) > 3:
            pieces[i] = [piece[0][:draw(st.integers(3, len(piece[0]) - 1))], *piece[1:]]
        elif kind == "equals" and len(piece) == 2:
            pieces[i] = ["=".join(piece)]
        elif kind == "negative" and len(piece) == 2:
            pieces[i] = [piece[0], "-" + piece[1]]
        elif kind == "drop" and piece:
            pieces[i] = piece[:-1]
        elif kind == "repeat" and piece:
            pieces.insert(draw(st.integers(0, len(pieces))), list(piece))
        else:
            stray = draw(st.sampled_from(["-h", "--help", "--", "-", "-1", "--no-such-flag",
                                          "extra", "--t", "--out", "--tight"]))
            pieces.insert(draw(st.integers(0, len(pieces))), [stray])
    return verb, pieces


def _line_argv(line):
    verb, pieces = line
    return [verb, *itertools.chain.from_iterable(pieces)]


@settings(max_examples=300, deadline=None)
@given(_plain_lines())
@example(("scan-3", [["--max-n", "40"]]))
@example(("check-relative", [["--tight"], ["f.rel"], ["--t", "3"]]))
def test_plain_parse_takes_valid_lines_as_argparse_does(line):
    argv = _line_argv(line)
    plain = _parse_plain(argv)
    assert plain is not None
    assert vars(plain) == _parse_outcome(_build_parser(argv), argv)[3]


@settings(max_examples=400, deadline=None)
@given(_mutated_lines())
def test_plain_parse_declines_what_argparse_refuses(line):
    # declining is always safe, since argparse then parses the line; taking
    # a line is safe only when argparse would take it with the same namespace
    argv = _line_argv(line)
    plain = _parse_plain(argv)
    _, _, code, namespace = _parse_outcome(_build_parser(argv), argv)
    if code is not None:
        assert plain is None
    if plain is not None:
        assert vars(plain) == namespace


@pytest.mark.parametrize(
    "argv",
    [["verify", "f.blk", "--t", "2", "--t", "3"], ["check-relative", "f.rel", "--tight", "--tight"],
     ["verify", "f.blk", "--t=2"], ["scan-4", "--max", "40"], ["scan-4", "--max-n", "-40"],
     ["scan-4", "--max-n", "40", "--"], ["nonexist", "--params"], ["verify", "f.blk", "--t", "x"],
     ["nonexist", "--params", "7,3,1", "--t", "4"], ["lambda-seq", "f.blk", "--t", "3", "-h"],
     ["construct", "paley", "7"], ["verify", "f.blk", "g.blk", "--t", "2"], ["--t", "2"]],
)
def test_plain_parse_declines(argv):
    # some of these argparse takes (a repeated option, --opt=value, an
    # abbreviation, a negative value): they are left to it all the same
    assert _parse_plain(argv) is None


def _bench_inputs():
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("workload", ["certify-witt", "scan-tables", "corpus-small"])
def test_benchmark_calls_take_the_plain_parse(tmp_path, workload, seed):
    # every call the benchmark makes is parsed without argparse, so its
    # processes load neither argparse nor gettext and locale; a workload
    # line that falls to argparse would add their import to its timings
    inputs = _bench_inputs()
    assert sorted(inputs.WORKLOADS) == ["certify-witt", "corpus-small", "scan-tables"]
    calls = inputs.build(workload, seed, tmp_path)
    assert calls
    for call in calls:
        plain = _parse_plain(call.argv)
        assert plain is not None, call.argv
        assert vars(plain) == _parse_outcome(_build_parser(call.argv), call.argv)[3]


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("workload", ["certify-witt", "scan-tables", "corpus-small"])
def test_benchmark_calls_replay_in_process(tmp_path, capsys, workload, seed):
    # every call the benchmark makes, run in-process, returns the exit code
    # its construction gives and passes its own check of stdout, so the
    # verdicts, witnesses and tables the benchmark times hold on every
    # Python the tests run on
    for call in _bench_inputs().build(workload, seed, tmp_path):
        code = main(call.argv)
        out = capsys.readouterr().out
        assert code == call.code, call.argv
        assert call.check(out) is None, call.argv


_ARGPARSE_EXITS = [case for case in _parser_cases() if case[1] is not None]


@pytest.mark.parametrize("argv,code", _ARGPARSE_EXITS, ids=map(_case_id, _ARGPARSE_EXITS))
def test_main_prints_argparse_help_and_usage_errors(capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    out, err, _, _ = _parse_outcome(_build_parser(argv), argv)
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


# A site hook for the exit tests: it records each run of the atexit callbacks
# in a file, and reports an exit through os._exit on stderr.
_EXIT_SITECUSTOMIZE = """
import atexit, os, sys

def _mark():
    with open(os.environ["TIGHTREL_ATEXIT_MARK"], "a") as fh:
        fh.write("atexit\\n")

def _exit(code, _exit=os._exit):
    sys.stderr.write(f"os._exit({code})\\n")
    sys.stderr.flush()
    _exit(code)

atexit.register(_mark)
os._exit = _exit
"""


def _hooked_run(tmp_path, prefix, argv, close_stdout=False):
    """Run `<prefix> <argv>` in tmp_path with _EXIT_SITECUSTOMIZE installed,
    and with file descriptor 1 closed if close_stdout; returns the process
    and what its atexit callback recorded."""
    (tmp_path / "site").mkdir()
    (tmp_path / "site" / "sitecustomize.py").write_text(_EXIT_SITECUSTOMIZE)
    env = _child_env()
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path / "site"), env["PYTHONPATH"]])
    env["COLUMNS"] = "80"
    env["TIGHTREL_ATEXIT_MARK"] = str(tmp_path / "mark")
    proc = subprocess.run(
        [*prefix, *argv], stdout=None if close_stdout else subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=tmp_path, env=env, preexec_fn=(lambda: os.close(1)) if close_stdout else None,
    )
    return proc, (tmp_path / "mark").read_text()


@pytest.mark.parametrize(
    "argv",
    [["nonexist", "--params", "29,8,2"], ["nonexist", "--params", "29,8"], ["--help"],
     ["verify", "f.blk", "--t", "x"]],
)
def test_module_entry_ends_without_teardown_after_the_atexit_callbacks(tmp_path, capsys,
                                                                      monkeypatch, argv):
    # a verdict, a verb's error, argparse's help and a usage error: the
    # process prints what main prints in-process, runs the atexit callback
    # once and ends through os._exit with main's exit code
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv)
    out, err = capsys.readouterr()
    proc, mark = _hooked_run(tmp_path, [sys.executable, "-m", "tightrel.cli"], argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err + f"os._exit({code})\n")
    assert mark == "atexit\n"


def test_module_entry_under_cprofile_exits_as_the_interpreter_does(tmp_path):
    # a profiler is watching, so the process takes the interpreter's own
    # exit: cProfile prints its table after main, and the atexit callback
    # runs once, at the interpreter's exit
    proc, mark = _hooked_run(tmp_path, [sys.executable, "-m", "cProfile", "-m", "tightrel.cli"],
                             ["nonexist", "--params", "29,8,2"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("x^2 = 6y^2 + 2z^2 : insolvable\n")
    assert re.search(r"\d+ function calls .*in [\d.]+ seconds", proc.stdout)
    assert mark == "atexit\n"


def test_module_entry_without_stdout_exits_as_the_interpreter_does(tmp_path):
    # with descriptor 1 closed, sys.stdout is None and its flush fails: the
    # process takes the interpreter's own exit, where the atexit callback,
    # run once already, does not run again
    proc, mark = _hooked_run(tmp_path, [sys.executable, "-m", "tightrel.cli"],
                             ["nonexist", "--params", "29,8,2"], close_stdout=True)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert mark == "atexit\n"


def test_module_entry_reports_a_closed_pipe(tmp_path):
    # the reader leaves after 100 bytes of an 11 MB table: the write fails,
    # main reports it and exits 3, and the exit adds nothing to stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "tightrel.cli", "scan-3", "--max-n", "1000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=_child_env(),
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (3, b"error: [Errno 32] Broken pipe\n")


def test_module_entry_pipes_the_whole_table(tmp_path):
    from tightrel.feasibility import scan_tsv

    proc = subprocess.run(
        [sys.executable, "-m", "tightrel.cli", "scan-3", "--max-n", "1000"],
        capture_output=True, cwd=tmp_path, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    want = hashlib.sha256("".join(scan_tsv(3, 1000)).encode()).hexdigest()
    assert hashlib.sha256(proc.stdout).hexdigest() == want


def test_package_names_resolve_lazily():
    for name in tightrel.__all__:
        value = getattr(tightrel, name)
        owner = sys.modules[value.__module__]
        assert owner.__name__.startswith("tightrel.")
        # the lazy lookup itself, whether or not the name is cached yet
        assert tightrel.__getattr__(name) is getattr(owner, name) is value
    namespace = {}
    exec("from tightrel import *", namespace)
    assert {name: namespace[name] for name in tightrel.__all__} == {
        name: getattr(tightrel, name) for name in tightrel.__all__
    }
    assert set(tightrel.__all__) <= set(dir(tightrel))
    assert tightrel.__version__ == "0.1.0"
    assert tightrel.__getattr__("designs") is sys.modules["tightrel.designs"]
    with pytest.raises(AttributeError, match="no_such_name"):
        tightrel.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from tightrel import no_such_name", {})


_NUMPY_PROBE = """
import contextlib, hashlib, io, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # every import of numpy now raises ImportError
import tightrel
import tightrel.cli
print(sys.modules.get('numpy') is not None)
for argv in sys.argv[2:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tightrel.cli.main(argv.split())
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
    print(argv, code, sys.modules.get('numpy') is not None, digest)
"""


def test_no_verb_loads_numpy(tmp_path, fano, fano_swapped, witt):
    save_design(fano, tmp_path / "fano.blk")
    save_design(witt, tmp_path / "witt.blk")
    save_candidate(RelativeCandidate.from_designs(fano, complement(fano)), 3, tmp_path / "pair.rel")
    save_candidate(
        RelativeCandidate.from_designs(fano, complement(fano), 1, 2), 3, tmp_path / "unbalanced.rel"
    )
    save_candidate(RelativeCandidate.from_designs(witt, complement(witt)), 5, tmp_path / "witt.rel")
    (tmp_path / "corpus").mkdir()
    save_design(fano, tmp_path / "corpus" / "a.blk")
    save_design(fano_swapped, tmp_path / "corpus" / "b.blk")
    (tmp_path / "witts").mkdir()
    save_design(witt, tmp_path / "witts" / "w.blk")
    runs = {
        "verify fano.blk --t 2": 0,
        "verify fano.blk --t 3": 1,
        "verify witt.blk --t 4": 0,
        "verify witt.blk --t 5": 1,
        "lambda-seq fano.blk --t 3": 0,
        "lambda-seq witt.blk --t 5": 0,
        "conjecture2 corpus --t 3": 0,
        "conjecture2 witts --t 4": 0,
        "check-relative pair.rel": 0,
        "check-relative unbalanced.rel --tight": 1,
        "check-relative witt.rel --tight": 0,
        "scan-3 --max-n 30 --annotate": 0,
        "scan-4 --max-n 20 --annotate": 0,
        "nonexist --params 29,8,2": 1,
        "construct fano": 0,
        "construct witt23": 0,
        "transform complement fano.blk": 0,
        "transform derived witt.blk 0": 0,
        "transform residual witt.blk 0": 0,
    }
    lines = {}
    for mode in ("loaded", "blocked"):
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_PROBE, mode, *runs],
            capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        lines[mode] = proc.stdout.splitlines()
    # with numpy importable, no verb imports it; with its import blocked,
    # every verb prints the same bytes and exits the same way
    expect = ["False"] + [f"{argv} {code} False" for argv, code in runs.items()]
    assert lines["loaded"][:1] + [line.rsplit(" ", 1)[0] for line in lines["loaded"][1:]] == expect
    assert lines["blocked"] == lines["loaded"]
    _run_fano_verify([sys.executable, "-m", "tightrel.cli"], tmp_path, fano)


def _run_fano_verify(prefix, tmp_path, fano):
    """Run `<prefix> verify fano.blk --t 2` in tmp_path against this tightrel."""
    save_design(fano, tmp_path / "fano.blk")
    proc = subprocess.run(
        [*prefix, "verify", "fano.blk", "--t", "2"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "t-design: true  lambda=[7,3,1]\n"


def test_console_script_and_module_entry(tmp_path, fano):
    _run_fano_verify([sys.executable, "-m", "tightrel.cli"], tmp_path, fano)

    # Reading pyproject.toml needs tomllib (3.11+); the check above runs everywhere.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["tightrel"]
    ep = EntryPoint(name="tightrel", value=target, group="console_scripts")
    assert ep.load() is entry
    # The launcher pip writes for a console script, run without installing it.
    launcher = (
        f"import sys; from {ep.module} import {ep.attr}; "
        f"sys.argv[0] = 'tightrel'; sys.exit({ep.attr}())"
    )
    _run_fano_verify([sys.executable, "-c", launcher], tmp_path, fano)


@pytest.mark.skipif(shutil.which("tightrel") is None, reason="tightrel console script not on PATH")
def test_installed_console_script(tmp_path, fano):
    _run_fano_verify(["tightrel"], tmp_path, fano)
