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
    design_text,
    load_design,
    rows_to_tsv,
    save_candidate,
    save_design,
    scan_relative3,
    scan_relative4,
)
from tightrel.cli import _CONSTRUCTIONS, _TRANSFORMS, _VERBS, _blocks, _build_parser, main
from tightrel.designs import MAX_RANKS, mask_of

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
    # a union the coverage kernel refuses (1140 blocks of 17 points, C(17, 9)
    # 9-subsets each, past MAX_RANKS) still gets its verdict
    shells = [Design(20, tuple(map(mask_of, itertools.combinations(range(20), r)))) for r in (2, 17)]
    assert math.comb(17, 9) * shells[1].num_blocks > MAX_RANKS
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


def test_lambda_seq_oversized_coverage(capsys, tmp_path):
    # one 30-block has C(30,15) = 155,117,520 15-subsets: refused before
    # anything is allocated, as a usage error
    p = tmp_path / "big.blk"
    p.write_text("DESIGN v1\nn=128 b=1\n" + " ".join(map(str, range(30))) + "\n")

    tracemalloc.start()
    try:
        code = main(["lambda-seq", str(p), "--t", "15"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2**20
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: counting 15-subsets of 1 block(s) of size 30 ")
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
    from tightrel import designs

    def never(q):
        raise AssertionError("primality tested before the point-count limit")

    monkeypatch.setattr(designs, "_is_prime", never)
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


def test_conjecture2(capsys, tmp_path, fano, fano_swapped):
    save_design(fano, tmp_path / "a.blk")
    save_design(fano_swapped, tmp_path / "b.blk")
    assert main(["conjecture2", str(tmp_path), "--t", "3"]) == 0
    assert capsys.readouterr().out == "a.blk\tb.blk\n"


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
watched = ("dataclasses", "fractions", "inspect")
print(code, sorted(m for m in sys.modules if m.startswith("tightrel.") or m in watched))
"""


@pytest.mark.parametrize(
    "argv,code,loaded",
    [
        # bench/tracing.py wraps analysis functions and finds the module in
        # sys.modules, so this verb keeps loading analysis for tight_size
        (["check-relative", "pair.rel", "--tight"], 0,
         ["fractions", "tightrel._base", "tightrel.analysis", "tightrel.cli", "tightrel.designs",
          "tightrel.hamming"]),
        (["check-relative", "pair.rel"], 0,
         ["fractions", "tightrel._base", "tightrel.cli", "tightrel.designs", "tightrel.hamming"]),
        (["verify", "paley.blk", "--t", "2"], 0,
         ["tightrel._base", "tightrel.cli", "tightrel.designs"]),
        (["lambda-seq", "paley.blk", "--t", "3"], 0,
         ["tightrel._base", "tightrel.cli", "tightrel.designs", "tightrel.profiles"]),
        # the ternary-form test, after the counting conditions pass
        (["nonexist", "--params", "29,8,2"], 1, ["tightrel._base", "tightrel.cli", "tightrel.screens"]),
        # lam_2 = 7/2: the counting conditions fail on a fraction
        (["nonexist", "--params", "9,4,1", "--t", "3"], 1,
         ["tightrel._base", "tightrel.cli", "tightrel.screens"]),
        # the scans write their ratios as integer pairs, building no rows
        (["scan-3", "--max-n", "20", "--annotate"], 0,
         ["tightrel._base", "tightrel.cli", "tightrel.feasibility", "tightrel.screens"]),
        (["scan-4", "--max-n", "20", "--annotate"], 0,
         ["tightrel._base", "tightrel.cli", "tightrel.feasibility", "tightrel.screens"]),
    ],
)
def test_cli_process_loads_only_its_verbs_modules(tmp_path, argv, code, loaded):
    # `import tightrel` loads no submodule; a verb loads the modules it runs,
    # no verb here pays for dataclasses and inspect, and only the weighted
    # candidates of check-relative need fractions
    paley = construct_paley_hadamard(19)
    save_design(paley, tmp_path / "paley.blk")
    save_candidate(RelativeCandidate.from_designs(paley, complement(paley)), 3, tmp_path / "pair.rel")
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE, *argv],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", f"{code} {loaded}"]


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
    # the parser main builds has arguments only for the verbs named in argv;
    # it must print, fail and parse as the one with every verb filled in
    monkeypatch.setenv("COLUMNS", "80")
    reference = _parse_outcome(_build_parser(), argv)
    assert reference[2] == code
    assert _parse_outcome(_build_parser(argv), argv) == reference


def test_parser_fills_in_only_the_named_verbs():
    out, _, code, _ = _parse_outcome(_build_parser(["nonexist"]), ["verify", "-h"])
    assert code == 0 and out.startswith("usage: tightrel verify [-h]\n")
    out, _, code, _ = _parse_outcome(_build_parser(["verify"]), ["verify", "-h"])
    assert code == 0 and out.startswith("usage: tightrel verify [-h] --t T file\n")


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
    assert ep.load() is main
    # The launcher pip writes for a console script, run without installing it.
    launcher = (
        f"import sys; from {ep.module} import {ep.attr}; "
        f"sys.argv[0] = 'tightrel'; sys.exit({ep.attr}())"
    )
    _run_fano_verify([sys.executable, "-c", launcher], tmp_path, fano)


@pytest.mark.skipif(shutil.which("tightrel") is None, reason="tightrel console script not on PATH")
def test_installed_console_script(tmp_path, fano):
    _run_fano_verify(["tightrel"], tmp_path, fano)
