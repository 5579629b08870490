import json
import subprocess
import sys

import pytest

from spreadlab.cli import SessionFile, main


CURVE_SESSION = """\
# the (t^3, t^4, t^5) space curve
ring p=32003 vars=x,y,z order=grevlex weights=3,4,5
ideal p = y^2 - x*z, x^3 - y*z, x^2*y - z^2
ideal zero = 0
ideal m = x, y, z
filtration S = symbolic:p
"""

FLAT_SESSION = """\
ring p=32003 vars=x,y,z order=grevlex weights=1,1,1
ideal p = x, y
ideal mixed = x^2, y^3, z^5
ideal bad = x + y^2
filtration T = trivial-m
filtration A = adic:p
"""


@pytest.fixture()
def curve_file(tmp_path):
    f = tmp_path / "curve.ring"
    f.write_text(CURVE_SESSION)
    return str(f)


@pytest.fixture()
def flat_file(tmp_path):
    f = tmp_path / "flat.ring"
    f.write_text(FLAT_SESSION)
    return str(f)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    payload = json.loads(out) if out.strip() else None
    return code, payload


# --- session parsing -----------------------------------------------------------

def test_session_round_trip():
    parsed = SessionFile.parse(CURVE_SESSION)
    canonical = parsed.canonical_text()
    reparsed = SessionFile.parse(canonical)
    assert reparsed.canonical_text() == canonical
    assert set(reparsed.ideals) == {"p", "zero", "m"}
    assert set(reparsed.filtrations) == {"S"}
    assert reparsed.ctx.weights == (3, 4, 5)


def test_session_errors():
    with pytest.raises(ValueError):
        SessionFile.parse("ideal q = x\n")
    with pytest.raises(ValueError):
        SessionFile.parse("ring p=32003 vars=x\nring p=32003 vars=y\n")
    with pytest.raises(ValueError):
        SessionFile.parse("ring p=32003 vars=x,y order=mystery\n")
    with pytest.raises(ValueError):
        SessionFile.parse("ring p=32003 vars=x,y\nfiltration F = symbolic:q\n")


# --- commands --------------------------------------------------------------------

def test_ell_regular_prime(flat_file, capsys):
    code, out = run_cli(["ell", "-f", flat_file, "-i", "p"], capsys)
    assert code == 0
    assert out["ell"] == 2 and out["ht"] == 2 and out["equimultiple"] is True
    assert out["bounds"] == {"ht_le_ell": True, "ell_le_dim": True}
    assert out["schema"] == "1" and out["op"] == "ell" and "digest" in out


def test_dim_zero_ideal(curve_file, capsys):
    code, out = run_cli(["dim", "-f", curve_file, "-i", "zero"], capsys)
    assert code == 0 and out["dim"] == 3


def test_gb_and_nf(curve_file, capsys):
    code, out = run_cli(["gb", "-f", curve_file, "-i", "p"], capsys)
    assert code == 0 and len(out["gb"]) == 3
    code, out = run_cli(
        ["nf", "-f", curve_file, "-i", "p", "-e", "y^2 - x*z"], capsys
    )
    assert code == 0 and out["nf"] == "0"


def test_saturate_reports_index(curve_file, capsys):
    # a prime is already saturated with respect to the maximal ideal
    code, out = run_cli(["saturate", "-f", curve_file, "-i", "p", "-j", "m"], capsys)
    assert code == 0 and out["saturation_index"] == 0


def test_symbolic_command(curve_file, capsys):
    code, out = run_cli(["symbolic", "-f", curve_file, "-i", "p", "-n", "2"], capsys)
    assert code == 0 and out["n"] == 2 and len(out["gens"]) >= 4


def test_equimult_command(flat_file, capsys):
    code, out = run_cli(["equimult", "-f", flat_file, "-i", "mixed"], capsys)
    assert code == 0 and out["equimultiple"] is True and out["ht"] == 3


def test_ell_trunc_command(flat_file, capsys):
    code, out = run_cli(["ell-trunc", "-f", flat_file, "-F", "T", "-a", "2"], capsys)
    assert code == 0 and out["ell"] == 3 and out["witness_e"] == 1


def test_sp0_command(flat_file, capsys):
    code, out = run_cli(
        ["sp0", "-f", flat_file, "-F", "T", "-n", "1", "-e", "x", "-M", "4"], capsys
    )
    assert code == 0 and out["witness"] == 2
    code, out = run_cli(
        ["sp0", "-f", flat_file, "-F", "A", "-n", "1", "-e", "x", "-M", "4"], capsys
    )
    assert code == 0 and out["witness"] is None


def test_fingen_probe_command(flat_file, capsys):
    code, out = run_cli(
        ["fingen-probe", "-f", flat_file, "-i", "p", "-A", "2", "-N", "3"], capsys
    )
    assert code == 0
    assert out["generated_in_degrees_at_most"] == 1
    assert out["truncation_spreads"] == {"1": 2, "2": 2}
    assert out["label"] == "evidence up to bound a = 2"


def test_fatpoints_h0(capsys):
    code, out = run_cli(
        ["fatpoints", "h0", "--r", "16", "--m", "1", "--d", "4", "--seed", "42"],
        capsys,
    )
    assert code == 0
    assert out["h0"] == 0 and out["seed"] == 42


def test_fatpoints_multmap(capsys):
    code, out = run_cli(
        ["fatpoints", "multmap", "--r", "16", "--m", "1", "--d", "8", "--seed", "42"],
        capsys,
    )
    assert code == 0 and out["surjective"] is True and out["seed"] == 42


def test_fatpoints_census_elliptic(capsys):
    code, out = run_cli(
        ["fatpoints", "census", "--elliptic", "--nmax", "1", "--dmax", "4",
         "--seed", "7"],
        capsys,
    )
    assert code == 0
    assert out["survivors"] == [[1, 3]]


# --- determinism and exit codes -----------------------------------------------------

def test_byte_identical_output(flat_file):
    cmd = [sys.executable, "-m", "spreadlab.cli", "ell", "-f", flat_file, "-i", "p"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_unknown_ideal_exit_2(curve_file, capsys):
    code, _ = run_cli(["ell", "-f", curve_file, "-i", "nosuch"], capsys)
    assert code == 2


def test_validation_error_exit_2(flat_file, capsys):
    code, _ = run_cli(["ell", "-f", flat_file, "-i", "bad"], capsys)
    assert code == 2


def test_large_prime_session(tmp_path, capsys):
    f = tmp_path / "big.ring"
    f.write_text("ring p=2305843009213693951 vars=x,y\nideal i = x^2 - y, y^2\n")
    code, out = run_cli(["gb", "-f", str(f), "-i", "i"], capsys)
    assert code == 0 and out["gb"]


def test_uncertified_prime_session_exit_2(tmp_path, capsys):
    f = tmp_path / "huge.ring"
    f.write_text(f"ring p={2**89 - 1} vars=x,y\nideal i = x\n")
    code, _ = run_cli(["gb", "-f", str(f), "-i", "i"], capsys)
    assert code == 2


def test_fatpoints_prime_beyond_int64_exit_2(capsys):
    code, out = run_cli(
        ["fatpoints", "h0", "--r", "4", "--m", "1", "--d", "2", "--seed", "1",
         "--p", "4294967311"],
        capsys,
    )
    assert code == 2 and out is None


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_missing_seed_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["fatpoints", "h0", "--m", "1", "--d", "4"])
    assert err.value.code == 2
