"""Command-line behavior and exit codes."""

import contextlib
import errno
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from streamclose import StreamDriver, StreamSource, cli, oracle
from streamclose.formats import snapshot_lines
from conftest import TABLE1, TABLE2


@pytest.fixture
def d10(tmp_path):
    p = tmp_path / "d10.dat"
    p.write_text("\n".join(" ".join(row) for row in TABLE1) + "\n")
    return p


def golden_tsv():
    rows = sorted(TABLE2.items())
    return "".join(" ".join(items) + f"\t{supp}\n" for items, supp in rows)


def test_mine_writes_golden_snapshot(d10, tmp_path):
    out = tmp_path / "out.tsv"
    code = cli.main(["mine", "--input", str(d10), "--window", "10",
                     "--min-supp", "1", "--emit-snapshot", str(out)])
    assert code == 0
    assert out.read_text() == golden_tsv()


def test_mine_snapshot_to_stdout(d10, capsys):
    code = cli.main(["mine", "--input", str(d10), "--window", "10"])
    assert code == 0
    assert capsys.readouterr().out == golden_tsv()


def test_mine_landmark_mode(d10, capsys):
    code = cli.main(["mine", "--input", str(d10), "--mode", "landmark"])
    assert code == 0
    assert capsys.readouterr().out == golden_tsv()


def test_mine_min_supp_filter(d10, capsys):
    code = cli.main(["mine", "--input", str(d10), "--window", "10",
                     "--min-supp", "6"])
    assert code == 0
    assert capsys.readouterr().out == "c\t6\n"


def test_mine_stats_csv(d10, tmp_path):
    stats = tmp_path / "stats.csv"
    code = cli.main(["mine", "--input", str(d10), "--window", "9",
                     "--stats", str(stats)])
    assert code == 0
    lines = stats.read_text().splitlines()
    assert lines[0].startswith("shift,tid,op,")
    assert len(lines) == 11
    assert lines[1].startswith("1,0,add,")
    assert lines[10].startswith("10,9,shift,")


def test_mine_snapshot_every(d10, tmp_path):
    out = tmp_path / "snap.tsv"
    code = cli.main(["mine", "--input", str(d10), "--window", "10",
                     "--emit-snapshot", str(out), "--snapshot-every", "5"])
    assert code == 0
    assert (tmp_path / "snap.tsv.00000005").exists()
    assert (tmp_path / "snap.tsv.00000010").exists()
    assert out.read_text() == golden_tsv()


def test_mine_periodic_snapshots_match_the_driver(tmp_path):
    rng = random.Random(3)
    rows = [" ".join(rng.sample("abcdefgh", rng.randint(0, 5))) for _ in range(40)]
    data = tmp_path / "gen.dat"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "snap.tsv"
    assert cli.main(["mine", "--input", str(data), "--window", "12",
                     "--min-supp", "3", "--emit-snapshot", str(out),
                     "--snapshot-every", "7"]) == 0
    driver = StreamDriver(capacity=12, mode="sliding")
    source = StreamSource(str(data), driver.dictionary)
    for k, items in enumerate(source, start=1):
        driver.push_ids(items)
        periodic = tmp_path / f"snap.tsv.{k:08d}"
        assert periodic.exists() == (k % 7 == 0)
        if k % 7 == 0:
            assert periodic.read_text() == "".join(snapshot_lines(driver.snapshot(3)))
    assert out.read_text() == "".join(snapshot_lines(driver.snapshot(3)))


def test_mine_jsonl_format(d10, tmp_path):
    out = tmp_path / "out.jsonl"
    code = cli.main(["mine", "--input", str(d10), "--window", "10",
                     "--emit-snapshot", str(out), "--format", "jsonl"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 22
    assert lines[0] == '{"itemset": ["a", "b", "c"], "support": 3}'


def test_mine_missing_input_is_exit_2(tmp_path, capsys):
    code = cli.main(["mine", "--input", str(tmp_path / "missing.dat"),
                     "--window", "10"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("streamclose: input error: ") and "missing.dat" in err, err


def test_mine_parse_error_is_exit_2(tmp_path):
    p = tmp_path / "bad.dat"
    p.write_bytes(b"1 2\n\x00\n")
    assert cli.main(["mine", "--input", str(p), "--window", "4"]) == 2


@pytest.mark.parametrize("flag", ["--stats", "--emit-snapshot"])
def test_mine_unwritable_output_is_an_output_error_before_the_replay(tmp_path, flag, capsys):
    # the input's last line is malformed, so a replay run before the output
    # is opened would end in a parse error instead
    p = tmp_path / "bad.dat"
    p.write_bytes(b"a b\nb c\n\x00\n")
    target = tmp_path / "no-such-dir" / "out"
    assert cli.main(["mine", "--input", str(p), "--window", "4", flag, str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("streamclose: output error: ") and str(target) in err, err


def test_mine_unwritable_periodic_snapshot_is_an_output_error(d10, tmp_path, capsys):
    out = tmp_path / "out.tsv"
    (tmp_path / "out.tsv.00000004").mkdir()
    assert cli.main(["mine", "--input", str(d10), "--window", "10",
                     "--emit-snapshot", str(out), "--snapshot-every", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("streamclose: output error: ") and "out.tsv.00000004" in err, err
    assert (tmp_path / "out.tsv.00000002").read_text() != ""


FULL_DISK = "streamclose: output error: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("flag", ["--stats", "--emit-snapshot"])
def test_mine_full_disk_is_an_output_error(d10, flag, capsys):
    assert cli.main(["mine", "--input", str(d10), "--window", "10", flag, "/dev/full"]) == 2
    assert capsys.readouterr().err == FULL_DISK


class FullStdout(io.StringIO):
    """A stdout on a full disk: its writes fail, or, buffered, only its flush."""

    def __init__(self, fails):
        super().__init__()
        self.fails = fails

    def write(self, s):
        if self.fails == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(s)

    def flush(self):
        if self.fails == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fails", ["write", "flush"])
@pytest.mark.parametrize("command", [["mine", "--window", "10"], ["oracle"],
                                     ["verify", "--window", "9"]],
                         ids=["mine", "oracle", "verify"])
def test_a_full_stdout_is_an_output_error(d10, monkeypatch, capsys, command, fails):
    monkeypatch.setattr(sys, "stdout", FullStdout(fails))
    assert cli.main([command[0], "--input", str(d10), *command[1:]]) == 2
    assert capsys.readouterr().err == FULL_DISK


def test_usage_errors_are_exit_1(tmp_path, d10, capsys):
    assert cli.main(["mine"]) == 1                       # missing --input
    assert cli.main(["mine", "--input", str(d10)]) == 1  # sliding, no window
    assert cli.main(["mine", "--input", str(d10), "--window", "0"]) == 1
    assert cli.main(["bogus"]) == 1
    assert cli.main([]) == 1
    capsys.readouterr()
    assert cli.main(["mine", "--input", str(d10), "--window", "10",
                     "--min-supp", "0"]) == 1
    assert capsys.readouterr() == (
        "", "streamclose mine: error: min_supp must be at least 1\n")
    out = tmp_path / "out.tsv"
    assert cli.main(["mine", "--input", str(d10), "--window", "10",
                     "--snapshot-every", "-3", "--emit-snapshot", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "streamclose mine: error: --snapshot-every must be at least 0\n")
    assert not list(tmp_path.glob("out.tsv*"))
    assert cli.main(["mine", "--input", str(d10), "--window", "10",
                     "--snapshot-every", "2"]) == 1
    assert capsys.readouterr() == (
        "", "streamclose mine: error: --snapshot-every needs --emit-snapshot\n")
    assert cli.main(["verify", "--input", str(d10), "--window", "9",
                     "--max-cis", "-5"]) == 1
    assert capsys.readouterr() == (
        "", "streamclose verify: error: --max-cis must be at least 1\n")
    assert cli.main(["verify", "--input", str(d10), "--window", "0"]) == 1
    assert capsys.readouterr() == (
        "", "streamclose verify: error: sliding mode needs a capacity of at least 1\n")


@pytest.mark.parametrize("case", ["same-path", "symlink", "hard-link", "stats-is-snapshot"])
def test_mine_outputs_must_not_name_the_input_or_each_other(d10, tmp_path, capsys, case):
    # each is refused before any file is opened: the input keeps its bytes
    # and no output is written
    data = d10.read_bytes()
    if case == "same-path":
        argv, flags = ["--emit-snapshot", str(d10)], "--input and --emit-snapshot"
    elif case == "symlink":
        link = tmp_path / "link.dat"
        link.symlink_to(d10)
        argv, flags = ["--input", str(link), "--stats", str(d10)], "--input and --stats"
    elif case == "hard-link":
        link = tmp_path / "link.tsv"
        os.link(d10, link)
        argv, flags = ["--emit-snapshot", str(link)], "--input and --emit-snapshot"
    else:
        out = tmp_path / "out"
        argv, flags = ["--stats", str(out), "--emit-snapshot", str(out)], \
            "--stats and --emit-snapshot"
    before = sorted(tmp_path.iterdir())
    assert cli.main(["mine", "--input", str(d10), "--window", "2", *argv]) == 1
    assert capsys.readouterr() == (
        "", f"streamclose mine: error: {flags} name the same file\n")
    assert d10.read_bytes() == data
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv, code, err", [
    (["--emit-snapshot", ""], 2,
     "streamclose: output error: [Errno 2] No such file or directory: ''\n"),
    (["--stats", ""], 2,
     "streamclose: output error: [Errno 2] No such file or directory: ''\n"),
    (["--stats", "", "--emit-snapshot", ""], 1,
     "streamclose mine: error: --stats and --emit-snapshot name the same file\n"),
    (["--snapshot-every", "2", "--emit-snapshot", ""], 1,
     "streamclose mine: error: --snapshot-every needs --emit-snapshot\n"),
], ids=["emit-snapshot", "stats", "both", "snapshot-every"])
def test_mine_an_empty_output_path_is_not_dropped(tmp_path, capsys, argv, code, err):
    # an empty path (an unset shell variable, say) names no file: it must
    # not fall back to stdout or to no stats at all
    p = tmp_path / "in.dat"
    p.write_text("a b\nb c\n\na c\n")
    assert cli.main(["mine", "--input", str(p), "--window", "2", *argv]) == code
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("flag", ["--input", "--stats"])
def test_mine_periodic_snapshot_must_not_name_the_input_or_the_stats(tmp_path, capsys, flag):
    # a periodic path is known only at its shift, so the run stops there,
    # before that snapshot is opened: the input keeps its bytes, and the
    # stats CSV keeps the rows written so far
    data = b"a b\nb c\na c\nc d\na b c\nb d\n"
    periodic = tmp_path / "snap.00000002"
    src = periodic if flag == "--input" else tmp_path / "in.dat"
    src.write_bytes(data)
    argv = ["--stats", str(periodic)] if flag == "--stats" else []
    assert cli.main(["mine", "--input", str(src), "--window", "3", "--emit-snapshot",
                     str(tmp_path / "snap"), "--snapshot-every", "2", *argv]) == 1
    assert capsys.readouterr() == (
        "", f"streamclose mine: error: the periodic snapshot {periodic} and {flag} "
            "name the same file\n")
    assert src.read_bytes() == data
    if flag == "--stats":
        ref = tmp_path / "ref.csv"
        assert cli.main(["mine", "--input", str(src), "--window", "3",
                         "--stats", str(ref)]) == 0
        # wall_ns, the last column, is the only one that varies between runs
        rows = [[line.rsplit(",", 1)[0] for line in f.read_text().splitlines()]
                for f in (periodic, ref)]
        assert rows[0] == rows[1][:3]


@pytest.mark.skipif(not Path("/dev/null").exists(), reason="needs /dev/null")
def test_mine_may_send_both_outputs_to_a_device(d10, capsys):
    # writing a device truncates nothing, so sharing one is no clash
    assert cli.main(["mine", "--input", str(d10), "--window", "10",
                     "--stats", "/dev/null", "--emit-snapshot", "/dev/null"]) == 0
    assert capsys.readouterr() == ("", "")


def test_verify_clean_stream(d10, capsys):
    code = cli.main(["verify", "--input", str(d10), "--window", "9"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: 11 shifts verified")  # 10 adds + 1 eviction


def test_verify_divergence_is_exit_3(d10, monkeypatch, capsys):
    real = oracle.closed_itemsets

    def skewed(db, max_cis=oracle.DEFAULT_CI_CAP):
        fam = real(db, max_cis)
        return {c: s + 1 for c, s in fam.items()}

    monkeypatch.setattr(cli.oracle, "closed_itemsets", skewed)
    code = cli.main(["verify", "--input", str(d10), "--window", "9"])
    assert code == 3
    assert "divergence at shift 1" in capsys.readouterr().err


def test_verify_names_missing_and_extra_itemsets(d10, monkeypatch, capsys):
    real = oracle.closed_itemsets

    def swapped(db, max_cis=oracle.DEFAULT_CI_CAP):
        # the referee drops abcdefgh, the first transaction, and gains {a}
        fam = {c: s for c, s in real(db, max_cis).items() if len(c) < 8}
        fam[frozenset({0})] = 1
        return fam

    monkeypatch.setattr(cli.oracle, "closed_itemsets", swapped)
    assert cli.main(["verify", "--input", str(d10), "--window", "9"]) == 3
    assert capsys.readouterr() == ("", "divergence at shift 1 (add tid 0):\n"
                                       "  missing: a (support 1)\n"
                                       "  extra:   a b c d e f g h (support 1)\n")


def test_verify_checks_the_eviction_half(d10, monkeypatch, capsys):
    real = oracle.closed_itemsets

    def skewed_once_tid_0_is_gone(db, max_cis=oracle.DEFAULT_CI_CAP):
        fam = real(db, max_cis)
        if 0 in db:
            return fam
        return {c: s + 1 for c, s in fam.items()}

    monkeypatch.setattr(cli.oracle, "closed_itemsets", skewed_once_tid_0_is_gone)
    code = cli.main(["verify", "--input", str(d10), "--window", "9"])
    assert code == 3
    assert "divergence at shift 10 (remove tid 0)" in capsys.readouterr().err


def test_verify_cap_is_exit_4(d10):
    code = cli.main(["verify", "--input", str(d10), "--window", "9",
                     "--max-cis", "3"])
    assert code == 4


def test_oracle_subcommand_matches_mine(d10, capsys):
    code = cli.main(["oracle", "--input", str(d10)])
    assert code == 0
    assert capsys.readouterr().out == golden_tsv()


def test_byte_identical_reruns(d10, tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    sa, sb = tmp_path / "a.csv", tmp_path / "b.csv"
    for out, st in ((a, sa), (b, sb)):
        assert cli.main(["mine", "--input", str(d10), "--window", "9",
                         "--emit-snapshot", str(out), "--stats", str(st)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # stats contain wall times; compare the deterministic prefix columns
    strip = lambda p: ["," .join(line.split(",")[:10]) for line in p.read_text().splitlines()]
    assert strip(sa) == strip(sb)


# A FIMI line: tokens from a small vocabulary, repeats allowed, joined by
# runs of spaces or tabs; an empty token list is a blank line (an empty
# basket).
fimi_lines = st.lists(
    st.tuples(st.lists(st.sampled_from(["b", "a", "10", "2", "zz"]), max_size=6),
              st.sampled_from([" ", "  ", "\t"])),
    min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(lines=fimi_lines, window=st.integers(1, 6), landmark=st.booleans())
def test_mine_and_verify_on_generated_files(lines, window, landmark):
    # the TSV that mine writes is the referee's family of the final window,
    # in tokens, its rows ordered by first-seen ids; verify checks every
    # shift of the same file clean
    text = "".join(sep.join(tokens) + "\n" for tokens, sep in lines)
    first_seen = {}
    for tokens, _ in lines:
        for t in tokens:
            first_seen.setdefault(t, len(first_seen))
    kept = lines if landmark else lines[-window:]
    want = oracle.closed_itemsets(
        {tid: frozenset(tokens) for tid, (tokens, _) in enumerate(kept)})
    mode = ["--mode", "landmark"] if landmark else ["--window", str(window)]
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "gen.dat", Path(tmp) / "out.tsv"
        data.write_text(text)
        assert cli.main(["mine", "--input", str(data), *mode,
                         "--emit-snapshot", str(out)]) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        verify_window = str(len(lines)) if landmark else str(window)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--input", str(data),
                             "--window", verify_window]) == 0
    got = {frozenset(items.split(" ")): int(supp) for items, supp in rows}
    assert len(got) == len(rows)
    assert got == want
    ids = [[first_seen[t] for t in items.split(" ")] for items, _ in rows]
    assert all(row == sorted(row) for row in ids)
    assert ids == sorted(ids)
