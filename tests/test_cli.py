import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chaosteg.cli import main
from chaosteg.media import extract_lscs, load_pgm, raw_cover
from chaosteg.strategies import cids_strategy

GOLDEN = Path(__file__).parent / "data" / "golden_report.json"


def write_pgm(path, width=8, height=4, seed=0):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=width * height, dtype=np.uint8).tobytes()
    path.write_bytes(f"P5\n{width} {height}\n255\n".encode() + pixels)
    return path


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# --- embed / detect -----------------------------------------------------------


def test_embed_detect_round_trip_pgm(tmp_path, capsys):
    cover = write_pgm(tmp_path / "cover.pgm")
    out = tmp_path / "marked.pgm"
    code, text, _ = run(["embed", "--in", str(cover), "--out", str(out),
                         "--mode", "ciis", "--key", "0.5", "--message", "0.25",
                         "--p", "0.3"], capsys)
    assert code == 0
    lines = dict(line.split("=", 1) for line in text.splitlines())
    assert lines["n_cells"] == "32"
    assert int(lines["lsc_changes"]) >= 0
    assert float(lines["psnr"]) > 48.1

    code, text, _ = run(["detect", "--original", str(cover), "--suspect", str(out),
                         "--mode", "ciis", "--key", "0.5", "--message", "0.25",
                         "--p", "0.3"], capsys)
    assert code == 0
    assert "verdict=match" in text
    assert "distance=0" in text


def test_detect_original_reports_change_count(tmp_path, capsys):
    cover = write_pgm(tmp_path / "cover.pgm")
    out = tmp_path / "marked.pgm"
    run(["embed", "--in", str(cover), "--out", str(out),
         "--mode", "ciis", "--key", "0.372819", "--p", "0.3"], capsys)
    code, text, _ = run(["detect", "--original", str(cover), "--suspect", str(cover),
                         "--mode", "ciis", "--key", "0.372819", "--p", "0.3"], capsys)
    assert code == 1
    lines = dict(line.split("=", 1) for line in text.splitlines())
    assert lines["verdict"] == "mismatch"
    changes = extract_lscs(load_pgm(cover.read_bytes())).value \
        ^ extract_lscs(load_pgm(out.read_bytes())).value
    assert int(lines["distance"]) == bin(changes).count("1")


def test_embed_cids_two_output_claim(tmp_path, capsys):
    cover = tmp_path / "cover.bin"
    cover.write_bytes(bytes([0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87]))
    out = tmp_path / "marked.bin"
    code, _, _ = run(["embed", "--in", str(cover), "--out", str(out),
                      "--mode", "cids", "--n-iter", "8"], capsys)
    assert code == 0
    plane = extract_lscs(raw_cover(out.read_bytes())).to_bitstring()
    assert plane in ("00000000", "10000000")


def test_embed_missing_key_is_usage_error(tmp_path, capsys):
    cover = write_pgm(tmp_path / "cover.pgm")
    code, out, err = run(["embed", "--in", str(cover), "--out",
                          str(tmp_path / "x.pgm"), "--mode", "ciis"], capsys)
    assert code == 2
    assert out == ""
    assert "--key" in err


def test_embed_corrupt_pgm_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\n\x00\x01")  # truncated pixels
    code, _, err = run(["embed", "--in", str(bad), "--out", str(tmp_path / "o.pgm"),
                        "--mode", "cids", "--format", "pgm"], capsys)
    assert code == 2
    assert "error:" in err


def test_embed_pixel_above_even_maxval_exit_2(tmp_path, capsys):
    cover = tmp_path / "cover.pgm"
    cover.write_bytes(b"P5 2 1 254\n" + bytes([254, 10]))
    out = tmp_path / "o.pgm"
    code, _, err = run(["embed", "--in", str(cover), "--out", str(out),
                        "--mode", "cids", "--n-iter", "1"], capsys)
    assert code == 2
    assert "maxval 254" in err
    assert not out.exists()


def test_embed_missing_input_exit_2(tmp_path, capsys):
    code, _, err = run(["embed", "--in", str(tmp_path / "absent.pgm"),
                        "--out", str(tmp_path / "o.pgm"), "--mode", "cids"], capsys)
    assert code == 2
    assert "error:" in err


def test_commented_pgm_header_detects_its_own_mark(tmp_path, capsys):
    rng = np.random.default_rng(5)
    cover = tmp_path / "cover.pgm"
    cover.write_bytes(b"P5\n# scanner v2\n64 64\n255\n"
                      + rng.integers(0, 256, size=64 * 64, dtype=np.uint8).tobytes())
    out = tmp_path / "marked.pgm"
    keyed = ["--mode", "ciis", "--key", "0.3"]
    code, _, _ = run(["embed", "--in", str(cover), "--out", str(out), *keyed], capsys)
    assert code == 0
    assert out.read_bytes().startswith(b"P5\n64 64\n255\n")  # canonical header
    code, text, _ = run(["detect", "--original", str(cover), "--suspect", str(out),
                         *keyed], capsys)
    assert (code, text) == (0, "verdict=match\ndistance=0\n")


def test_detect_mismatched_geometry_exit_2(tmp_path, capsys):
    original = tmp_path / "a.pgm"
    original.write_bytes(b"P5\n64 64\n255\n" + bytes(4096))
    suspect = tmp_path / "b.pgm"
    suspect.write_bytes(b"P5\n32 128\n255\n" + bytes(4096))  # same cell count
    code, out, err = run(["detect", "--original", str(original), "--suspect", str(suspect),
                          "--mode", "ciis", "--key", "0.3"], capsys)
    assert (code, out) == (2, "")
    assert "geometry" in err


@pytest.mark.parametrize("data", [
    b"P6\n16 16\n255\n" + bytes(range(256)) * 3,
    b"P2\n2 2\n255\n1 2 3 4\n",
], ids=["P6", "P2"])
def test_auto_format_refuses_other_netpbm_files(tmp_path, capsys, data):
    cover = tmp_path / "cover.pnm"
    cover.write_bytes(data)
    out = tmp_path / "marked.pnm"
    code, text, err = run(["embed", "--in", str(cover), "--out", str(out),
                           "--mode", "ciis", "--key", "0.3"], capsys)
    assert (code, text) == (2, "")
    assert "--format raw" in err
    assert not out.exists()
    assert run(["lscs", "--in", str(cover)], capsys)[0] == 2
    code, text, _ = run(["lscs", "--in", str(cover), "--format", "raw"], capsys)
    assert code == 0
    assert f"n_cells={len(data)}" in text


def test_key_accepts_hex_and_decimal(tmp_path, capsys):
    cover = tmp_path / "c.bin"
    cover.write_bytes(bytes(range(16)))
    out_hex = tmp_path / "h.bin"
    out_dec = tmp_path / "d.bin"
    # 0.5 as raw fixed point is 0x8000000000000000
    code1, _, _ = run(["embed", "--in", str(cover), "--out", str(out_hex),
                       "--mode", "ciis", "--key", "8000000000000000",
                       "--p", "0.3"], capsys)
    code2, _, _ = run(["embed", "--in", str(cover), "--out", str(out_dec),
                       "--mode", "ciis", "--key", "0.5", "--p", "0.3"], capsys)
    assert code1 == code2 == 0
    assert out_hex.read_bytes() == out_dec.read_bytes()

    code, _, err = run(["embed", "--in", str(cover), "--out", str(out_hex),
                        "--mode", "ciis", "--key", "not-a-key"], capsys)
    assert code == 2
    assert "hex" in err


def test_message_file_uses_first_eight_bytes(tmp_path, capsys):
    cover = tmp_path / "c.bin"
    cover.write_bytes(bytes(range(16)))
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"\x80")  # zero-padded to 0x8000000000000000 = 0.5
    out_a = tmp_path / "a.bin"
    out_b = tmp_path / "b.bin"
    run(["embed", "--in", str(cover), "--out", str(out_a), "--mode", "ciis",
         "--key", "0.25", "--message-file", str(msg), "--p", "0.3"], capsys)
    run(["embed", "--in", str(cover), "--out", str(out_b), "--mode", "ciis",
         "--key", "0.25", "--message", "0.5", "--p", "0.3"], capsys)
    assert out_a.read_bytes() == out_b.read_bytes()


# --- lscs -----------------------------------------------------------------------


def test_lscs_dumps_bitstring(tmp_path, capsys):
    f = tmp_path / "c.bin"
    f.write_bytes(bytes([0x00, 0x01, 0xFE, 0x03]))
    code, out, _ = run(["lscs", "--in", str(f)], capsys)
    assert code == 0
    assert out == "n_cells=4\nlscs=0101\n"


def test_lscs_sniffs_pgm(tmp_path, capsys):
    f = write_pgm(tmp_path / "c.pgm", width=4, height=1, seed=2)
    code, out, _ = run(["lscs", "--in", str(f)], capsys)
    assert code == 0
    assert "n_cells=4" in out


def test_lscs_and_cids_agree_with_numpy_plane_at_256x256(tmp_path, capsys):
    f = write_pgm(tmp_path / "c.pgm", width=256, height=256, seed=3)
    plane = np.frombuffer(f.read_bytes()[-256 * 256:], dtype=np.uint8) & 1
    code, out, _ = run(["lscs", "--in", str(f)], capsys)
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["lscs"] == "".join(map(str, plane))
    n = plane.size
    terms = cids_strategy(extract_lscs(load_pgm(f.read_bytes())), n).prefix(n)
    assert terms == tuple(np.where(plane == 1, np.arange(1, n + 1), 1).tolist())


# --- config files ----------------------------------------------------------------


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cover = tmp_path / "c.bin"
    cover.write_bytes(bytes(range(16)))
    cfg = tmp_path / "job.cfg"
    cfg.write_text("# embedding job\nmode=ciis\nkey=0.5\np=0.3\nn_iter=10\n")
    out_cfg = tmp_path / "o1.bin"
    out_flag = tmp_path / "o2.bin"
    code, _, _ = run(["embed", "--in", str(cover), "--out", str(out_cfg),
                      "--config", str(cfg)], capsys)
    assert code == 0
    # flag overrides the config's mode and key requirements
    code, _, _ = run(["embed", "--in", str(cover), "--out", str(out_flag),
                      "--config", str(cfg), "--mode", "cids"], capsys)
    assert code == 0
    assert out_cfg.read_bytes() != out_flag.read_bytes()


def test_config_file_bad_lines(tmp_path, capsys):
    cover = tmp_path / "c.bin"
    cover.write_bytes(bytes(8))
    cfg = tmp_path / "job.cfg"
    cfg.write_text("nonsense_key=1\n")
    code, _, err = run(["embed", "--in", str(cover), "--out", str(tmp_path / "o"),
                        "--config", str(cfg), "--mode", "cids"], capsys)
    assert code == 2
    assert "nonsense_key" in err

    cfg.write_text("just a prose line\n")
    code, _, err = run(["lscs", "--in", str(cover), "--config", str(cfg)], capsys)
    assert code == 2
    assert "key=value" in err


def test_config_file_type_errors(tmp_path, capsys):
    cover = tmp_path / "c.bin"
    cover.write_bytes(bytes(8))
    cfg = tmp_path / "job.cfg"
    cfg.write_text("mode=cids\nn_iter=four\n")
    code, _, err = run(["embed", "--in", str(cover), "--out", str(tmp_path / "o"),
                        "--config", str(cfg)], capsys)
    assert code == 2
    assert "n_iter" in err


# --- analyze ----------------------------------------------------------------------


def test_analyze_stdout_json(capsys):
    code, out, _ = run(["analyze", "--suite", "stego", "--n-cells", "3",
                        "--seed", "2", "--sample-count", "20000"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["overall_pass"] is True
    assert doc["config"]["suite"] == "stego"
    assert "threads" not in doc["config"]


def test_analyze_report_file_and_summary(tmp_path, capsys):
    report = tmp_path / "r.json"
    code, out, _ = run(["analyze", "--suite", "chaos", "--n-cells", "3",
                        "--seed", "0", "--report", str(report)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "overall=pass" in lines
    assert f"report={report}" in lines
    assert any(line.startswith("expansivity=") for line in lines)
    doc = json.loads(report.read_text())
    assert doc["overall_pass"] is True


def test_analyze_repeat_runs_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["analyze", "--suite", "stego", "--n-cells", "4", "--seed", "5",
            "--sample-count", "40000"]
    run(args + ["--report", str(a)], capsys)
    run(args + ["--report", str(b), "--threads", "4"], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_analyze_over_cap_usage_error(capsys):
    code, out, err = run(["analyze", "--suite", "stego", "--n-cells", "13"], capsys)
    assert code == 2
    assert out == ""
    assert "n_cells" in err


def test_analyze_non_positive_budget_usage_error(capsys):
    for flag in ("--sample-count", "--n-iter"):
        code, out, err = run(["analyze", "--suite", "chaos", "--n-cells", "2",
                              flag, "-5"], capsys)
        assert code == 2
        assert out == ""
        assert flag[2:].replace("-", "_") in err


def test_analyze_golden_report_regression(tmp_path, capsys):
    report = tmp_path / "golden.json"
    code, _, _ = run(["analyze", "--suite", "full", "--n-cells", "4", "--seed", "1",
                      "--threads", "1", "--report", str(report)], capsys)
    assert code == 0
    assert report.read_bytes() == GOLDEN.read_bytes()


def test_analyze_config_file(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("suite=stego\nn_cells=3\nseed=2\nsample_count=20000\n")
    code, out, _ = run(["analyze", "--config", str(cfg)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["n_cells"] == 3
    assert doc["config"]["sample_count"] == 20000


# --- process-level smoke ------------------------------------------------------------


def test_cli_import_loads_no_scipy():
    code = ("import sys, chaosteg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_console_entry_point(tmp_path):
    f = tmp_path / "c.bin"
    f.write_bytes(bytes([0x01, 0x02]))
    proc = subprocess.run([sys.executable, "-m", "chaosteg", "lscs", "--in", str(f)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "n_cells=2\nlscs=10\n"
