import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spreadlab
from spreadlab.cli import COMMANDS, SESSION_CACHE_SIZE, SessionFile, _session, main

# a child interpreter imports spreadlab from the same source tree as the tests
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(spreadlab.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


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
    assert set(parsed.ideals) == {"p", "zero", "m"}
    assert set(parsed.filtrations) == {"S"}
    assert parsed.filtration("S") is parsed.filtrations["S"]
    assert parsed.ctx.weights == (3, 4, 5)


def test_session_errors():
    with pytest.raises(ValueError):
        SessionFile.parse("ideal q = x\n")
    with pytest.raises(ValueError):
        SessionFile.parse("ring p=32003 vars=x\nring p=32003 vars=y\n")
    with pytest.raises(ValueError):
        SessionFile.parse("ring p=32003 vars=x,y order=mystery\n")
    with pytest.raises(ValueError):
        SessionFile.parse("ring p=32003 vars=x,y\nfiltration F = symbolic:q\n")
    # extra ":" fields are refused, not dropped
    for spec in ("symbolic:a:a:zzz", "adic:a:x", "trivial-m:x"):
        with pytest.raises(ValueError, match="line 3"):
            SessionFile.parse(f"ring p=32003 vars=x,y\nideal a = x\nfiltration F = {spec}\n")



@pytest.mark.parametrize(
    "ring_line, message",
    [
        ("ring p=32003 vars=x,y,z ordr=lex", "unknown ring key 'ordr'"),
        ("ring p=32003 vars=x,y,z wieghts=3,4,5", "unknown ring key 'wieghts'"),
        ("ring p=7 vars=x,y,z p=11", "duplicate ring key 'p'"),
        ("ring p=32003 vars=x,y,z order=lex order=grevlex", "duplicate ring key 'order'"),
        ("ring p=32003 vars=1,y,z", "'1' cannot name a variable"),
        ("ring p=32003 vars=x,y,z2^", "'z2^' cannot name a variable"),
        ("ring p=32003 vars=x,y,t@", "'t@' cannot name a variable"),
        ("ring p=abc vars=x,y,z", "p= wants an integer, got 'abc'"),
        ("ring p=32003 vars=x,y,z weights=a,1,1", "weights= wants an integer, got 'a'"),
        ("ring p=32003 vars=x,y,z weights=", "weights= wants an integer, got ''"),
        ("ring p=32003 vars=x,x,z", "duplicate variable names"),
        ("ring p=32001 vars=x,y,z", "characteristic 32001 is not prime"),
        ("ring p=32003 vars=x,y,z weights=1,2", "weight vector length mismatch"),
        ("ring p=32003 vars=x,y,z weights=1,0,1", "weights must be strictly positive"),
        ("ring p=32003 vars=x,y,z order=weighted-grevlex weights=1,-2,1", "weight"),
    ],
)
def test_bad_ring_declaration_exit_2(ring_line, message, tmp_path, capsys):
    f = tmp_path / "bad.ring"
    f.write_text(f"# header\n{ring_line}\nideal a = 1, y\n")
    code = main(["gb", "-f", str(f), "-i", "a"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: line 2: ") and message in captured.err


@pytest.mark.parametrize(
    "declaration, message",
    [
        # raised by the polynomial parser and by Filtration.symbolic
        ("ideal q = x, zz", "unknown variable 'zz'"),
        ("ideal q = x, 2^3", "expected + or -, found '^'"),
        ("filtration S = symbolic:a:zero", "saturating ideal must be proper and nonzero"),
        # raised by the session parser itself
        ("ideal a = y", "bad or duplicate ideal name 'a'"),
        ("filtration S = adic:q", "unknown ideal 'q'"),
        ("filtration S = symbolic", "expected symbolic:NAME or symbolic:NAME:J, got 'symbolic'"),
    ],
)
def test_bad_ideal_or_filtration_declaration_exit_2(declaration, message, tmp_path, capsys):
    f = tmp_path / "bad.ring"
    f.write_text(f"ring p=32003 vars=x,y,z\nideal a = x, y\nideal zero = 0\n{declaration}\n")
    code = main(["gb", "-f", str(f), "-i", "a"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: line 4: {message}\n"


def test_ring_accepts_every_key_once():
    parsed = SessionFile.parse("ring weights=1,2 order=lex vars=x_1,Y2 p=101\nideal a = x_1*Y2^2\n")
    assert parsed.ctx.variables == ("x_1", "Y2") and parsed.ctx.weights == (1, 2)
    assert parsed.ctx.order.kind == "lex" and parsed.ctx.p == 101


def test_session_parse_calls_parser_once_per_generator(monkeypatch, curve_file, capsys):
    """Generators reach the parser through the ``ring`` module global, which
    the benchmark tracer rebinds to count ``ring.parse_calls``; a second
    ``main`` on the same text reuses the parsed session."""
    import spreadlab.ring as ring

    seen = []
    real = ring.parse_polynomial

    def counting(ctx, text):
        seen.append(text)
        return real(ctx, text)

    monkeypatch.setattr(ring, "parse_polynomial", counting)
    SessionFile.parse(CURVE_SESSION)
    generators = [
        g.strip()
        for line in CURVE_SESSION.splitlines() if line.startswith("ideal ")
        for g in line.split("=", 1)[1].split(",")
    ]
    assert seen == generators and len(seen) == 7
    _session.cache_clear()
    for parsed in (7, 0):
        del seen[:]
        assert main(["gb", "-f", curve_file, "-i", "p"]) == 0
        assert len(seen) == parsed
    capsys.readouterr()


# --- commands --------------------------------------------------------------------

def test_ell_regular_prime(flat_file, capsys):
    code, out = run_cli(["ell", "-f", flat_file, "-i", "p"], capsys)
    assert code == 0
    assert out["ell"] == 2 and out["ht"] == 2 and out["equimultiple"] is True
    assert out["bounds"] == {"ht_le_ell": True, "ell_le_dim": True}
    assert out["schema"] == "1" and out["op"] == "ell" and "digest" in out


def test_ell_beside_a_variable_named_like_a_fiber_variable(tmp_path, capsys):
    # the Rees ring adjoins one fiber variable per generator, and a base
    # variable must not share its name
    f = tmp_path / "clash.ring"
    f.write_text("ring p=32003 vars=T1_1,x,y\nideal I = T1_1^2, x*y, y^2\n")
    code, out = run_cli(["ell", "-f", str(f), "-i", "I"], capsys)
    assert code == 0 and out["ell"] == 3 and out["ht"] == 2


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


# s = quadric * (x, y, z) and c are homogeneous, so saturating them by m
# takes the variable route; stdout recorded with the iterated colon
SATURATION_SESSION = """\
ring p=32003 vars=x,y,z order=grevlex
ideal s = x^3 + 3*x*y*z - 2*x*z^2, x^2*y + 3*y^2*z - 2*y*z^2, x^2*z + 3*y*z^2 - 2*z^3
ideal c = x^3, y^2, z^4
ideal m = x, y, z
"""


@pytest.mark.parametrize("name, stdout", [
    ("s", '{"digest":"4e931e592710","gens":["x^2 + 3*y*z - 2*z^2"],"op":"saturate",'
          '"saturation_index":1,"schema":"1"}\n'),
    ("c", '{"digest":"2d9e816ee3c8","gens":["1"],"op":"saturate",'
          '"saturation_index":7,"schema":"1"}\n'),
])
def test_saturate_index_pinned(name, stdout, tmp_path, capsys):
    f = tmp_path / "saturation.ring"
    f.write_text(SATURATION_SESSION)
    assert main(["saturate", "-f", str(f), "-i", name, "-j", "m"]) == 0
    assert capsys.readouterr().out == stdout


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


@pytest.mark.parametrize("level", ["0", "-1"])
def test_sp0_level_below_one_exit_2(level, flat_file, capsys):
    code = main(["sp0", "-f", flat_file, "-F", "T", "-n", level, "-e", "x", "-M", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: filtration level must be at least 1, got {level}\n"


def test_first_truncation_shares_the_spread_of_its_ideal(monkeypatch, curve_file, capsys):
    """``ell-trunc -a 1`` on the symbolic filtration of p answers through
    ``analytic_spread(p)``, so a later ``ell`` on p presents nothing."""
    import spreadlab.filtrations as filtrations

    presented = []
    real = filtrations.rees_presentation

    def counting(F, a=1):
        presented.append(a)
        return real(F, a)

    monkeypatch.setattr(filtrations, "rees_presentation", counting)
    _session.cache_clear()
    filtrations.analytic_spread.cache_clear()
    code, trunc = run_cli(["ell-trunc", "-f", curve_file, "-F", "S", "-a", "1"], capsys)
    assert code == 0 and (trunc["ell"], trunc["witness_e"], trunc["witness_bound"]) == (3, 1, 3)
    code, ell = run_cli(["ell", "-f", curve_file, "-i", "p"], capsys)
    assert code == 0 and ell["ell"] == 3
    assert presented == [1]


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
    first = subprocess.run(cmd, capture_output=True, env=CHILD_ENV)
    second = subprocess.run(cmd, capture_output=True, env=CHILD_ENV)
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


def test_exponent_beyond_engine_range_exit_2(tmp_path, capsys):
    # the session parses and is kept; its basis fails on every call
    f = tmp_path / "wide.ring"
    f.write_text("ring p=32003 vars=w,x,y,z\nideal h = w^2147483648 + x, y\n")
    for _ in range(2):
        code = main(["gb", "-f", str(f), "-i", "h"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:")


def test_fatpoints_prime_beyond_int64_exit_2(capsys):
    code, out = run_cli(
        ["fatpoints", "h0", "--r", "4", "--m", "1", "--d", "2", "--seed", "1",
         "--p", "4294967311"],
        capsys,
    )
    assert code == 2 and out is None


@pytest.mark.parametrize("s", ["0", "-1"])
@pytest.mark.parametrize("elliptic", [[], ["--elliptic"]])
def test_fatpoints_census_nonpositive_s_exit_2(s, elliptic, capsys):
    code = main(["fatpoints", "census", *elliptic, "--nmax", "1", "--dmax", "3",
                 "--s", s, "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: s must be positive, got {s}\n"


def test_fatpoints_elliptic_large_prime():
    """Sampling 12 points on a cubic over F_(2^31 - 1) does not scan the field."""
    cmd = [sys.executable, "-m", "spreadlab", "fatpoints", "h0", "--elliptic",
           "--p", "2147483647", "--d", "3", "--m", "1", "--seed", "3"]
    done = subprocess.run(cmd, capture_output=True, env=CHILD_ENV, timeout=30)
    assert done.returncode == 0
    assert b'"h0":1' in done.stdout


@pytest.mark.parametrize("extra", [["--p", "32001"], ["--m", "-1"]])
def test_fatpoints_invalid_scheme_exit_2(extra, capsys):
    argv = ["fatpoints", "h0", "--r", "2", "--m", "1", "--d", "1", "--seed", "1"]
    code, out = run_cli(argv + extra, capsys)
    assert code == 2 and out is None


def test_unreadable_session_exit_2(tmp_path, capsys):
    for path in (tmp_path / "missing.ring", tmp_path):
        code, out = run_cli(["dim", "-f", str(path), "-i", "g"], capsys)
        assert code == 2 and out is None


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_missing_seed_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["fatpoints", "h0", "--m", "1", "--d", "4"])
    assert err.value.code == 2


# --- session reuse within one process ------------------------------------------------

# every session subcommand, on one session file each
SESSION_COMMANDS = {
    "curve": [
        ("gb", "-i", "p"), ("nf", "-i", "p", "-e", "x^4 + y*z"), ("dim", "-i", "p"),
        ("ht", "-i", "p"), ("intersect", "-i", "p", "-j", "m"),
        ("quotient", "-i", "p", "-j", "m"), ("saturate", "-i", "p", "-j", "m"),
        ("closure-monomial", "-i", "m"), ("symbolic", "-i", "p", "-n", "2"),
        ("ell", "-i", "p"), ("ell-trunc", "-F", "S", "-a", "2"), ("equimult", "-i", "p"),
        ("sp0", "-F", "S", "-n", "1", "-e", "y^2 - x*z", "-M", "2"),
        ("fingen-probe", "-i", "p", "-A", "1", "-N", "2"),
    ],
    "flat": [
        ("gb", "-i", "mixed"), ("nf", "-i", "mixed", "-e", "x^3 + y*z^6"), ("dim", "-i", "p"),
        ("ht", "-i", "mixed"), ("intersect", "-i", "p", "-j", "mixed"),
        ("quotient", "-i", "mixed", "-j", "p"), ("saturate", "-i", "mixed", "-j", "p"),
        ("closure-monomial", "-i", "mixed"), ("symbolic", "-i", "p", "-n", "2"),
        ("ell", "-i", "mixed"), ("ell-trunc", "-F", "A", "-a", "2"),
        ("equimult", "-i", "mixed"), ("sp0", "-F", "T", "-n", "1", "-e", "x", "-M", "4"),
        ("fingen-probe", "-i", "p", "-A", "2", "-N", "3"),
    ],
}


def _call(argv, capsys):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("session", sorted(SESSION_COMMANDS))
def test_kept_session_prints_what_a_fresh_one_prints(session, curve_file, flat_file, capsys):
    path = {"curve": curve_file, "flat": flat_file}[session]
    argvs = [(c[0], "-f", path) + c[1:] for c in SESSION_COMMANDS[session]]
    assert sorted(a[0] for a in argvs) == sorted(c.name for c in COMMANDS if not c.fat)
    fresh = {}
    for argv in argvs:
        _session.cache_clear()
        fresh[argv] = _call(argv, capsys)
        assert fresh[argv][0] == 0 and fresh[argv][1]
    for order in (argvs, argvs[::-1]):
        _session.cache_clear()
        # the second pass runs each command after all the others
        for argv in order + order:
            assert _call(argv, capsys) == fresh[argv], argv
        assert _session.cache_info().currsize == 1


def test_rewritten_session_file_is_parsed_again(tmp_path, capsys):
    f = tmp_path / "edited.ring"
    f.write_text("ring p=32003 vars=x,y,z\nideal a = x, y\n")
    assert run_cli(["gb", "-f", str(f), "-i", "a"], capsys)[1]["gb"] == ["y", "x"]
    f.write_text("ring p=32003 vars=x,y,z\nideal a = x, z\n")
    assert run_cli(["gb", "-f", str(f), "-i", "a"], capsys)[1]["gb"] == ["z", "x"]


def test_session_parse_error_is_not_kept(tmp_path, capsys):
    f = tmp_path / "broken.ring"
    f.write_text("ring p=32003 vars=x,y\nideal a = x +\n")
    _session.cache_clear()
    for _ in range(2):
        code = main(["gb", "-f", str(f), "-i", "a"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.startswith("error: ")
    info = _session.cache_info()
    assert info.currsize == 0 and info.misses == 2


def test_kept_sessions_stay_within_the_bound(tmp_path, capsys):
    _session.cache_clear()
    for k in range(SESSION_CACHE_SIZE + 3):
        f = tmp_path / f"s{k}.ring"
        f.write_text(f"ring p=32003 vars=x,y\nideal a = x^{k + 2}, y\n")
        code, out = run_cli(["gb", "-f", str(f), "-i", "a"], capsys)
        assert code == 0 and out["gb"] == ["y", f"x^{k + 2}"]
        assert _session.cache_info().currsize == min(k + 1, SESSION_CACHE_SIZE)


# --- golden output --------------------------------------------------------------------

# SHA-256 of the exact stdout and the exit code of every subcommand; "{curve}"
# and "{flat}" stand for the two session files.  contain with --dmax 10 pins
# the key order of integer-keyed reports ("10" sorts before "2").
GOLDEN = [
    (("gb", "-f", "{curve}", "-i", "p"), 0,
     "690ec05287f7fb7e7e88537487d37a2542ff20a186843c353b66769a6945b035"),
    (("nf", "-f", "{curve}", "-i", "p", "-e", "x^4 + y*z"), 0,
     "a95491e4e53eba3fe13c932bdfd4c89673126c2e0dd050090839f47416d36781"),
    (("dim", "-f", "{curve}", "-i", "p"), 0,
     "b28521dd0bac167f0855c219abf037e1a498a0609cdc543f794d78af98d05e9f"),
    (("ht", "-f", "{curve}", "-i", "p"), 0,
     "64e75350a15d5ca67c6cb17a779d6acfc0f7bbc6a48d9c41fa7f367ee6bed539"),
    (("intersect", "-f", "{flat}", "-i", "p", "-j", "mixed"), 0,
     "3286f57464b998373adca0348c231f15c3e228582a82f283b77a183080e53304"),
    (("quotient", "-f", "{flat}", "-i", "mixed", "-j", "p"), 0,
     "120551edddf3830d3633da9219c01332562bd4914fabb67a09583eec2729ad76"),
    (("saturate", "-f", "{curve}", "-i", "p", "-j", "m"), 0,
     "1efacb2a8b47d72e649069ea3fca2657bb2697b1c3c9b037576c263b20a3c05e"),
    (("closure-monomial", "-f", "{flat}", "-i", "mixed"), 0,
     "42f4770bdfa05894dc0a3571d806c14920c362f230b03b7f2de88b37ec815226"),
    (("symbolic", "-f", "{curve}", "-i", "p", "-n", "2"), 0,
     "b7e624841dab2b3e476863ebfab351f5788760b436d08b9171cdf0d31752624b"),
    (("ell", "-f", "{curve}", "-i", "p"), 0,
     "0d138235172bcf3de705a9e9f15cf77c600933339e3da1784ed004387513a54c"),
    (("ell-trunc", "-f", "{curve}", "-F", "S", "-a", "2"), 0,
     "f6ad4e376d2fadfd3deb1636c5647c6a6f67f24c08db15f5b44c57c878e2a0fb"),
    (("equimult", "-f", "{flat}", "-i", "mixed"), 0,
     "b512a49c2bbe4598ef28e507faff60aaca04a75da422a06dde1a0e3942db9dd2"),
    (("sp0", "-f", "{flat}", "-F", "T", "-n", "1", "-e", "x", "-M", "4"), 0,
     "7cbc5a1adddd48d48a81dc25f17972ea8af949b1543fb5484335aa9f329d6178"),
    (("fingen-probe", "-f", "{flat}", "-i", "p", "-A", "2", "-N", "3"), 0,
     "614bd62f0ffe210a4a53a54627c5d3864308e445494129b2330b508f1b8d70d4"),
    (("fatpoints", "h0", "--r", "4", "--m", "1", "--d", "2", "--seed", "1"), 0,
     "c8d03622d91bfc46c2e9d3bf95517fc8490d5e8a43ec43cf46b4951abdb0b5b4"),
    (("fatpoints", "multmap", "--r", "4", "--m", "1", "--d", "3", "--seed", "1"), 0,
     "43160f5b12b1f97016e066bd0bb74c3aef66dc819fd0fe01105e2581a1f4d0b7"),
    (("fatpoints", "contain", "--r", "2", "--n", "1", "--s", "2", "--dmax", "10",
      "--seed", "1"), 0,
     "6d47db3c38961bbdab86a688904eac31f50295d6c32454ed99c9cfa4a2774d1c"),
    (("fatpoints", "census", "--elliptic", "--r", "3", "--nmax", "1", "--dmax", "3",
      "--seed", "1"), 0,
     "6520c016a5a263f180a209dd89a2847a2d129ee669d328235e95a923c7cb2abd"),
    (("ell", "-f", "{curve}", "-i", "nosuch"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("frobnicate",), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize(
    "argv, code, sha", GOLDEN, ids=[" ".join(g[0][:2]) for g in GOLDEN]
)
def test_golden_output(argv, code, sha, curve_file, flat_file, capsys):
    argv = [a.format(curve=curve_file, flat=flat_file) for a in argv]
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, sha)


# --- cold start: numpy loads only with the fat-point side ----------------------------

FAT_NAMES = ("FatPointScheme", "LinearSystem", "fiber_generator_census",
             "graded_power_containment", "h0", "linear_system", "mult_map_surjective",
             "sample_scheme")

# argv[1] is the session file, argv[2] the session commands as JSON; prints
# which of numpy and spreadlab.fatpoints are loaded after each step
COLD_START_CHILD = """
import contextlib, io, json, sys

def loaded():
    return [m for m in ("numpy", "spreadlab.fatpoints") if m in sys.modules]

seen = {}
import spreadlab
seen["import spreadlab"] = loaded()
from spreadlab import cli
seen["import spreadlab.cli"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
seen["--help"] = loaded()
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main([argv[0], "-f", sys.argv[1]] + argv[1:]))
seen["session commands"] = loaded()
fat_out = io.StringIO()
with contextlib.redirect_stdout(fat_out):
    codes.append(cli.main(["fatpoints", "h0", "--r", "4", "--m", "1", "--d", "2",
                           "--seed", "1"]))
seen["fatpoints h0"] = loaded()
print(json.dumps({"seen": seen, "codes": codes, "fat_out": fat_out.getvalue()}))
"""

# argv[1] is where to write a pickled FatPointScheme
LAZY_NAMES_CHILD = """
import json, pickle, sys
import spreadlab
names = %r
listed = [name in dir(spreadlab) for name in names]
unloaded = "numpy" not in sys.modules and "spreadlab.fatpoints" not in sys.modules
from spreadlab import sample_scheme
same = [getattr(spreadlab, name) is getattr(spreadlab.fatpoints, name) for name in names]
try:
    spreadlab.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
scheme = sample_scheme(4, 1, "none", seed=1)
with open(sys.argv[1], "wb") as fh:
    pickle.dump(scheme, fh)
print(json.dumps({"listed": listed, "unloaded": unloaded, "same": same,
                  "unknown": unknown, "round_trip": pickle.loads(pickle.dumps(scheme)) == scheme}))
""" % (FAT_NAMES,)


def _child(script, *args):
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          env=CHILD_ENV, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return json.loads(done.stdout)


def test_session_commands_never_load_numpy(curve_file):
    argvs = [list(c) for c in SESSION_COMMANDS["curve"]]
    out = _child(COLD_START_CHILD, curve_file, json.dumps(argvs))
    assert out["codes"] == [0] * (len(argvs) + 1)
    before_fat = {step: out["seen"].pop(step) for step in
                  ("import spreadlab", "import spreadlab.cli", "--help", "session commands")}
    assert before_fat == dict.fromkeys(before_fat, [])
    assert out["seen"] == {"fatpoints h0": ["numpy", "spreadlab.fatpoints"]}
    assert out["fat_out"] == (
        '{"constraint":"none","d":2,"digest":"c9b483643950","h0":2,"m":1,'
        '"op":"fatpoints-h0","p":32003,"r":4,"schema":"1","seed":1}\n'
    )


def test_fat_point_names_load_on_first_access(tmp_path):
    path = tmp_path / "scheme.pickle"
    out = _child(LAZY_NAMES_CHILD, str(path))
    assert out == {"listed": [True] * 8, "unloaded": True, "same": [True] * 8,
                   "unknown": "module 'spreadlab' has no attribute 'no_such_name'",
                   "round_trip": True}
    # a fresh interpreter unpickles it without importing spreadlab first
    script = ("import pickle, sys\n"
              "scheme = pickle.load(open(sys.argv[1], 'rb'))\n"
              "print([list(pt) for pt in scheme.points])")
    points = _child(script, str(path))
    assert points == [list(pt) for pt in spreadlab.sample_scheme(4, 1, "none", seed=1).points]
