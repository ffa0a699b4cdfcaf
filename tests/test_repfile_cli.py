"""Rep file parsing and CLI behaviour (exit codes, determinism, config)."""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from su2moduli.cli import main
from su2moduli.orbit_lab import random_genus2_rep
from su2moduli.repfile import (
    RepFileError,
    format_repfile,
    parse_repfile_text,
)
from su2moduli.su2 import SurfacePresentation, quat_inv, quat_mul, random_su2

EXACT_T1 = """\
# one-holed torus, binary tetrahedral handle; boundary K = Y X Y^-1 X^-1
genus 1
boundary 1
generator 1/2 1/2 1/2 1/2
generator 0 1 0 0
generator 0 0 0 -1
"""


def haar_t1_text(seed=0):
    rng = np.random.default_rng(seed)
    X, Y = random_su2(rng), random_su2(rng)
    K = quat_mul(quat_mul(Y, X), quat_mul(quat_inv(Y), quat_inv(X)))
    return format_repfile(SurfacePresentation(1, 1), [X, Y, K])


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_round_trip_float():
    text = haar_t1_text()
    rf = parse_repfile_text(text)
    assert rf.presentation.genus == 1 and rf.presentation.boundary == 1
    assert not rf.is_exact
    again = parse_repfile_text(format_repfile(rf.presentation, rf.images))
    assert again.images == rf.images


def test_parse_exact_detection():
    rf = parse_repfile_text(EXACT_T1)
    assert rf.is_exact and len(rf.exact_images) == 3
    for q, f in zip(rf.exact_images, rf.images):
        assert q.to_float() == pytest.approx(f)


def test_parse_mixed_is_not_exact():
    text = EXACT_T1.replace("0 1 0 0", "0.0 1.0 0.0 0.0")
    assert not parse_repfile_text(text).is_exact


@pytest.mark.parametrize("bad", [
    "genus 1\n",                                         # missing boundary
    "genus 1\nboundary 1\ngenerator 1 0 0\n",            # 3 components
    "genus 1\nboundary 1\ngenerator 1 0 0 zebra\n",      # bad token
    "genus 0\nboundary 0\n",                             # out of scope
    "genus 1\nboundary 1\nwhatsit 3\n",                  # unknown key
    "genus 1\nboundary 1\ngenerator 1 0 0 0\n",          # wrong count
])
def test_parse_errors(bad):
    with pytest.raises(RepFileError):
        parse_repfile_text(bad)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture
def haar_file(tmp_path):
    p = tmp_path / "rep.txt"
    p.write_text(haar_t1_text(3))
    return str(p)


@pytest.fixture
def exact_file(tmp_path):
    p = tmp_path / "exact.txt"
    p.write_text(EXACT_T1)
    return str(p)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_classify_dense(haar_file, capsys):
    code, out = run_cli(["classify", haar_file], capsys)
    assert code == 0
    assert json.loads(out)["is_dense"] is True


def test_classify_exact_tetrahedral(exact_file, capsys):
    code, out = run_cli(["classify", exact_file], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["exact_path"] is True
    assert data["in_T"] is True and data["is_dense"] is False


def test_orbit_writes_csv(haar_file, tmp_path, capsys):
    out_csv = str(tmp_path / "o.csv")
    code, _ = run_cli(["orbit", haar_file, "--chart", "t1",
                       "--budget", "50", "--seed", "1", "--out", out_csv,
                       "--self-check"], capsys)
    assert code == 0
    lines = open(out_csv).read().splitlines()
    assert lines[0].startswith("x,y,z") and len(lines) == 51


def test_density_deterministic(haar_file, capsys):
    args = ["density", haar_file, "--chart", "t1", "--budget", "2000",
            "--seed", "7", "--eps", "0.4", "--region=-2,2"]
    code1, out1 = run_cli(args, capsys)
    code2, out2 = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert 0.0 < json.loads(out1)["coverage"] <= 1.0


def test_levelset(capsys):
    code, out = run_cli(["levelset", "--k", "0.5", "--x", "0.3"], capsys)
    assert code == 0
    json.loads(out)


def test_verify_appendix(capsys):
    code, out = run_cli(["verify-appendix"], capsys)
    assert code == 0
    assert "pass" in out and "FAIL" not in out
    assert out == (Path(__file__).parent / "data" / "verify_appendix.txt").read_text()


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("genus 1\n")
    assert run_cli(["classify", str(bad)], capsys)[0] == 2
    assert run_cli(["classify", str(tmp_path / "missing.txt")], capsys)[0] == 2


def test_exit_code_invariant(tmp_path, capsys):
    # valid file, but pants-check needs a closed genus-2 surface
    p = tmp_path / "rep.txt"
    p.write_text(haar_t1_text(3))
    assert run_cli(["pants-check", str(p)], capsys)[0] == 3


def test_exit_code_non_unit_generator(tmp_path, capsys):
    p = tmp_path / "rep.txt"
    p.write_text("genus 1\nboundary 1\ngenerator 2 0 0 0\n"
                 "generator 0 1 0 0\ngenerator 1/4 0 0 0\n")
    assert main(["classify", str(p)]) == 3
    err = capsys.readouterr().err
    assert "generator 1" in err and "norm 2" in err


DATA = Path(__file__).parent / "data"


MISMATCHES = [
    ("orbit", "s4.rep", "t1", "genus 0, boundary 4"),
    ("density", "s4.rep", "t1", "genus 0, boundary 4"),
    ("steer", "s4.rep", "t1", "genus 0, boundary 4"),
    ("orbit", "t2.rep", "s4", "genus 1, boundary 2"),
    ("orbit", "t1.rep", "s4", "genus 1, boundary 1"),
    ("orbit", "t1.rep", "t2", "genus 1, boundary 1"),
    ("steer", "t1.rep", "t2", "genus 1, boundary 1"),
]


@pytest.mark.parametrize("command, rep, chart, surface", MISMATCHES,
                         ids=[f"{c}-{r[:2]}-{ch}" for c, r, ch, _ in MISMATCHES])
def test_chart_rejects_wrong_surface(command, rep, chart, surface, capsys):
    args = [command, str(DATA / rep), "--chart", chart, "--budget", "5"]
    if command == "steer":
        args.append("--target=0.1,0.1")
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"chart {chart}" in err and f"the file has {surface}" in err


def test_chart_t1_rejects_closed_genus_2(tmp_path, capsys):
    # (A1, A2) is not a handle of the closed genus-2 surface
    rep = random_genus2_rep(np.random.default_rng(2))
    p = tmp_path / "g2.rep"
    p.write_text(format_repfile(rep.presentation, rep.images))
    assert main(["orbit", str(p), "--chart", "t1", "--budget", "5"]) == 2
    assert "the file has genus 2, boundary 0" in capsys.readouterr().err


def test_exit_code_budget(haar_file, capsys):
    code, _ = run_cli(["steer", haar_file, "--chart", "t1",
                       "--target", "1.9,1.9", "--budget", "3"], capsys)
    assert code == 4


def test_config_file_defaults(haar_file, tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[experiment]\nseed = 7\nbudget = 2000\neps = 0.4\n"
                   "chart = t1\nregion = -2,2\n")
    code, out = run_cli(["density", haar_file, "--config", str(cfg)], capsys)
    assert code == 0
    code2, out2 = run_cli(
        ["density", haar_file, "--chart", "t1", "--budget", "2000",
         "--seed", "7", "--eps", "0.4", "--region=-2,2"], capsys)
    assert out == out2


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "su2moduli.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "su2moduli" in proc.stdout
