"""Command-line behavior and exit codes."""

import pytest

from streamclose import cli, oracle
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


def test_mine_jsonl_format(d10, tmp_path):
    out = tmp_path / "out.jsonl"
    code = cli.main(["mine", "--input", str(d10), "--window", "10",
                     "--emit-snapshot", str(out), "--format", "jsonl"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 22
    assert lines[0] == '{"itemset": ["a", "b", "c"], "support": 3}'


def test_mine_missing_input_is_exit_2(tmp_path):
    code = cli.main(["mine", "--input", str(tmp_path / "missing.dat"),
                     "--window", "10"])
    assert code == 2


def test_mine_parse_error_is_exit_2(tmp_path):
    p = tmp_path / "bad.dat"
    p.write_bytes(b"1 2\n\x00\n")
    assert cli.main(["mine", "--input", str(p), "--window", "4"]) == 2


def test_usage_errors_are_exit_1(tmp_path, d10):
    assert cli.main(["mine"]) == 1                       # missing --input
    assert cli.main(["mine", "--input", str(d10)]) == 1  # sliding, no window
    assert cli.main(["mine", "--input", str(d10), "--window", "0"]) == 1
    assert cli.main(["bogus"]) == 1
    assert cli.main([]) == 1


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


def test_verify_rejected_half_leaves_driver_intact():
    driver = cli.StreamDriver(cli.WindowConfig(capacity=2, mode="sliding"))
    checked = []
    for items in [(0, 1), (1, 2)]:
        assert cli._verify_push(driver, items, checked.append) is None
    eng = driver.engine

    def state():
        return list(driver.buffer), driver.next_tid, set(eng.window_tids)

    # the engine refuses the eviction: the oldest entry stays buffered
    old_tid, old_items = driver.buffer[0]
    eng.shift_remove(old_tid, old_items)
    before = state()
    with pytest.raises(ValueError):
        cli._verify_push(driver, (2, 3), checked.append)
    assert state() == before
    eng.shift_add(old_tid, old_items)

    # the next tid is taken: nothing is evicted and the counter stays put
    eng.shift_add(driver.next_tid, (9,))
    before = state()
    with pytest.raises(ValueError):
        cli._verify_push(driver, (2, 3), checked.append)
    assert state() == before
    eng.shift_remove(driver.next_tid, (9,))

    assert len(checked) == 2
    assert cli._verify_push(driver, (2, 3), checked.append) is None
    assert [r.kind for r in checked[2:]] == ["remove", "add"]
    assert [tid for tid, _ in driver.buffer] == [1, 2]
    fam = {frozenset(x): s for x, s in eng.snapshot(1)}
    assert fam == oracle.closed_itemsets({t: frozenset(x) for t, x in driver.buffer})
