import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eechain
from eechain import parse_table
from eechain.cli import main, parse_config

INF = math.inf


def test_parse_config_point():
    cfg = parse_config(["ee", "--n", "100", "--na", "10", "--z", "3", "--beta", "inf"])
    assert cfg.command == "ee"
    assert (cfg.n, cfg.na, cfg.z) == (100, 10, 3)
    assert cfg.beta == INF
    assert cfg.mass == 0.0 and cfg.epsilon == 1.0 and cfg.theta == 0.0


def test_parse_config_lists_and_temp():
    cfg = parse_config(
        ["sweep", "--n", "50", "--zs", "1,2,3", "--betas", "1,inf", "--nas", "2,4",
         "--jobs", "2"]
    )
    assert cfg.zs == (1, 2, 3)
    assert cfg.betas == (1.0, INF)
    assert cfg.nas == (2, 4)
    assert cfg.jobs == 2
    cfg = parse_config(["ee", "--n", "10", "--na", "2", "--z", "1", "--temp", "4"])
    assert cfg.beta == pytest.approx(0.25)


def test_noninteger_z_is_usage_error(capsys):
    assert main(["ee", "--n", "10", "--na", "2", "--z", "2.5"]) == 2
    assert "--z must be an integer" in capsys.readouterr().err


def test_nonpositive_beta_is_usage_error(capsys):
    assert main(["ee", "--n", "10", "--na", "2", "--z", "1", "--beta", "0"]) == 2
    assert main(["ee", "--n", "10", "--na", "2", "--z", "1", "--temp", "-1"]) == 2


def test_beta_temp_mutually_exclusive(capsys):
    rc = main(["ee", "--n", "10", "--na", "2", "--z", "1", "--beta", "2", "--temp", "1"])
    assert rc == 2


def test_missing_required_flag(capsys):
    assert main(["ee", "--na", "2", "--z", "1"]) == 2
    assert "requires --n" in capsys.readouterr().err


def test_unknown_flag_and_command(capsys):
    assert main(["ee", "--frobnicate", "1"]) == 2
    assert main(["dance"]) == 2
    capsys.readouterr()


def test_config_file_merging(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# lattice point\n"
        "n = 4\n"
        "na = 2\n"
        "z = 1\n"
        "beta = inf  # ground state\n"
    )
    cfg = parse_config(["ee", "--config", str(cfg_file)])
    assert (cfg.n, cfg.na, cfg.z, cfg.beta) == (4, 2, 1, INF)
    # command-line flags win over file values
    cfg = parse_config(["ee", "--config", str(cfg_file), "--na", "1"])
    assert cfg.na == 1


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("frobnicate = 1\n")
    assert main(["ee", "--config", str(cfg_file)]) == 2
    assert "unknown key" in capsys.readouterr().err
    # keys are per command: ee reads no --nas
    cfg_file.write_text("n = 10\nna = 2\nz = 1\nnas = 4\n")
    assert main(["ee", "--config", str(cfg_file)]) == 2
    assert "unknown key 'nas' for ee" in capsys.readouterr().err
    assert main(["sweep", "--config", str(cfg_file)]) == 0


def test_config_file_missing(capsys):
    assert main(["ee", "--config", "/nonexistent/file.cfg"]) == 2


def test_ee_plain_value(capsys):
    assert main(["ee", "--n", "4", "--na", "2", "--z", "1", "--beta", "inf"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(1.66598212279875, rel=1e-10)


def test_ee_csv_to_file(tmp_path):
    out = tmp_path / "point.csv"
    rc = main(
        ["ee", "--n", "4", "--na", "2", "--z", "1", "--beta", "inf",
         "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    table = parse_table(out.read_bytes())
    assert len(table.rows) == 1
    assert table.rows[0].beta == INF
    assert table.rows[0].entropy == pytest.approx(1.66598212279875, rel=1e-10)


def test_sweep_stdout_and_jobs(capsys):
    argv = ["sweep", "--n", "20", "--zs", "1,2", "--beta", "inf", "--nas", "2,5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert first.splitlines()[0] == "z,beta,n,na,epsilon,mass,entropy"
    assert len(first.splitlines()) == 5
    assert main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == first


def test_sweep_svg(tmp_path):
    out = tmp_path / "plot.svg"
    rc = main(
        ["sweep", "--n", "40", "--z", "1", "--beta", "inf",
         "--nas", "2,4,8,16", "--format", "svg", "--out", str(out)]
    )
    assert rc == 0
    assert out.read_bytes().startswith(b"<svg ")


def test_fit_text_report(capsys):
    rc = main(["fit", "--n", "400", "--na", "10", "--z", "1", "--regime", "low"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "regime: low" in out
    assert "coeff[x^2]" in out
    assert "residual rms" in out


def test_fit_json(capsys):
    rc = main(
        ["fit", "--n", "400", "--na", "10", "--z", "2", "--regime", "low",
         "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["basis"] == ["1", "x", "x^2"]
    assert len(payload["coefficients"]) == 3


def test_fit_unreachable_regime_is_runtime_error(capsys):
    rc = main(["fit", "--n", "200", "--na", "50", "--z", "1", "--regime", "high"])
    assert rc == 1
    assert "RegimeUnreachable" in capsys.readouterr().err


def test_cmera_profile_csv(capsys):
    rc = main(["cmera", "--z", "1", "--mass", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "u,phi,g,guu"
    assert len(lines) == 502
    u0 = [float(v) for v in lines[-1].split(",")]
    assert u0[0] == 0.0
    assert u0[2] == pytest.approx(-3 * math.pi / 8 + 0.25, rel=1e-10)


def test_oracle_check_ok(capsys):
    rc = main(
        ["oracle-check", "--n", "4", "--na", "2", "--z", "1",
         "--mass", "0.5", "--beta", "inf"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("OK") == 2


def test_oracle_check_rejects_large_chain(capsys):
    rc = main(["oracle-check", "--n", "12", "--na", "2", "--z", "1", "--mass", "1"])
    assert rc == 2
    assert "at most" in capsys.readouterr().err


MODEL = ("--n", "--na", "--z", "--mass", "--beta", "--temp", "--eps", "--theta")
COMMAND_FLAGS = {  # the flags each command reads, besides --config
    "ee": (*MODEL, "--format", "--out"),
    "sweep": (*MODEL, "--format", "--out", "--zs", "--betas", "--nas", "--jobs"),
    "fit": ("--n", "--na", "--z", "--mass", "--eps", "--theta", "--betas",
            "--regime", "--format", "--out", "--jobs"),
    "cmera": ("--z", "--mass", "--eps", "--format", "--out"),
    "oracle-check": MODEL,
}
FLAG_VALUES = {
    "--n": "4", "--na": "2", "--z": "1", "--mass": "0.5", "--beta": "2",
    "--temp": "1", "--eps": "1", "--theta": "0", "--zs": "1,2", "--betas": "1,2",
    "--nas": "1,2", "--regime": "low", "--format": "csv", "--out": "x.csv",
    "--jobs": "1",
}


def test_each_command_accepts_only_the_flags_it_reads(capsys):
    # 53 (command, flag) pairs, --config on each command included
    assert sum(len(flags) + 1 for flags in COMMAND_FLAGS.values()) == 53
    for command, flags in COMMAND_FLAGS.items():
        for flag, value in FLAG_VALUES.items():
            if flag in flags:
                parse_config([command, flag, value])
                continue
            with pytest.raises(SystemExit):
                parse_config([command, flag, value])
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


UNREAD_FLAGS = {
    "cmera-beta": "cmera --z 1 --beta 2",
    "ee-nas": "ee --n 10 --na 2 --z 1 --nas 4",
    "oracle-check-format": "oracle-check --n 4 --na 2 --z 1 --mass 0.5 --format json",
    # no abbreviations: fit's --betas does not take --beta
    "fit-beta": "fit --n 400 --na 10 --z 1 --beta 2",
}


@pytest.mark.parametrize("argv", UNREAD_FLAGS.values(), ids=UNREAD_FLAGS.keys())
def test_flag_the_command_does_not_read_exits_2(argv, capsys):
    assert main(argv.split()) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


POINT = "ee --n 10 --na 2 --z 1"
INVALID_PARAMETERS = {
    "ee-n1": f"{POINT} --n 1",
    "ee-z0": f"{POINT} --z 0",
    "ee-theta2": f"{POINT} --theta 2",
    "ee-na0": f"{POINT} --na 0",
    "ee-mass-inf": f"{POINT} --mass inf",
    "ee-eps0": f"{POINT} --eps 0",
    "ee-mass-nan": f"{POINT} --mass nan",
    "ee-eps-inf": f"{POINT} --eps inf",
    "ee-beta-nan": f"{POINT} --beta nan",
    "ee-temp0": f"{POINT} --temp 0",
    "sweep-jobs0": "sweep --n 10 --z 1 --nas 2 --jobs 0",
    "cmera-eps0": "cmera --z 1 --eps 0",
    "cmera-eps-negative": "cmera --z 1 --eps -1",
    "oracle-na-past-n": "oracle-check --n 3 --na 4 --z 1 --mass 1",
    "ee-mass-overflows": "ee --n 4 --na 2 --z 1 --mass 1e308",
    "oracle-eps-overflows": "oracle-check --n 4 --na 2 --z 3 --eps 1e-300 --theta 0.5",
    "ee-na-past-n": "ee --n 10 --na 20 --z 1",
    "sweep-na-past-n": "sweep --n 10 --nas 20 --z 1",
    "fit-na-past-n": "fit --n 10 --na 20 --z 1",
    "cmera-mass-nan": "cmera --z 1 --mass nan",
    "cmera-mass-negative": "cmera --z 1 --mass -1",
    "cmera-z0": "cmera --z 0",
    "cmera-z-negative": "cmera --z -2",
}


@pytest.mark.parametrize(
    "argv", INVALID_PARAMETERS.values(), ids=INVALID_PARAMETERS.keys()
)
def test_invalid_model_parameter_exits_2(argv, capsys):
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("eechain: error: ")


def test_config_file_values_are_checked(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("n = 4\nna = 2\nz = 1\nformat = xml\n")
    assert main(["ee", "--config", str(cfg_file)]) == 2
    assert "xml" in capsys.readouterr().err


def test_config_values_do_not_leak_into_the_next_call(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("mass = 0.5\nformat = csv\n")
    argv = ["ee", "--n", "8", "--na", "2", "--z", "1", "--beta", "2"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--config", str(cfg_file)]) == 0
    assert capsys.readouterr().out != default
    assert main(argv) == 0
    assert capsys.readouterr().out == default


def test_parser_is_built_once_at_import(tmp_path, monkeypatch, capsys):
    def rebuild():
        raise AssertionError("parser rebuilt per call")

    monkeypatch.setattr("eechain.cli._build_parser", rebuild)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("z = 1\n")
    assert main(["ee", "--n", "4", "--na", "2", "--config", str(cfg_file)]) == 0


def _cli_at_blas_threads(argv, threads):
    """stdout of ``python -m eechain.cli argv`` with OPENBLAS_NUM_THREADS set."""
    src = str(Path(eechain.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    path = filter(None, (src, env.get("PYTHONPATH")))
    env["PYTHONPATH"] = os.pathsep.join(path)
    done = subprocess.run(
        [sys.executable, "-m", "eechain.cli", *argv.split()],
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_oracle_check_bytes_do_not_depend_on_blas_threads():
    argv = "oracle-check --n 5 --na 2 --z 3 --mass 0.7 --beta 1.5 --theta 0.3"
    assert _cli_at_blas_threads(argv, "1") == _cli_at_blas_threads(argv, "2")


@pytest.mark.parametrize(
    "argv",
    [
        # a 600-row eigensolve, threaded when BLAS may use two threads
        "ee --n 2000 --na 300 --z 1 --beta 100",
        # the partial-DFT path: its GEMMs and the eigensolve
        "ee --n 100003 --na 64 --z 1 --mass 0.3 --beta 50",
        # a 300 x 300 complex singular-value solve: massive, twisted
        "ee --n 2000 --na 300 --z 3 --mass 0.3 --beta 50 --theta 0.25",
        # one block pair, its leading blocks solved for every N_A
        "sweep --n 2000 --zs 1,2 --betas 20,inf --nas 100,200,300 --mass 0.4",
    ],
)
def test_ee_bytes_do_not_depend_on_blas_threads(argv):
    assert _cli_at_blas_threads(argv, "1") == _cli_at_blas_threads(argv, "2")


def test_huge_beta_saturates_without_overflow(capsys):
    # beta*omega overflows a float here, but tanh(beta*omega/2) is 1: the
    # point is the ground state, with no overflow warning on the way
    argv = ["ee", "--n", "64", "--na", "4", "--z", "1", "--mass", "10", "--beta"]
    assert main(argv + ["1e308"]) == 0
    huge = capsys.readouterr().out
    assert main(argv + ["inf"]) == 0
    assert huge == capsys.readouterr().out


def test_sweep_svg_over_infinite_beta(tmp_path, capsys):
    # the beta axis is logarithmic: the ground state becomes a labelled line
    out = tmp_path / "plot.svg"
    argv = ["sweep", "--n", "20", "--zs", "1,2", "--nas", "4", "--format", "svg"]
    assert main(argv + ["--betas", "1,10,inf", "--out", str(out)]) == 0
    svg = out.read_text()
    assert "z=1 b=inf" in svg and "z=2 b=inf" in svg
    assert main(argv + ["--betas", "10,inf"]) == 2
    assert "two finite betas" in capsys.readouterr().err
    # a repeated ground state is one beta value: the plot is over z
    assert main(argv + ["--betas", "inf,inf"]) == 0
    assert "S vs z" in capsys.readouterr().out


def test_sweep_svg_picks_its_plot_from_distinct_values(capsys):
    # a repeated N_A is one N_A value: the plot is over beta
    argv = "sweep --n 40 --z 1 --nas 4,4 --betas 1,10 --format svg"
    assert main(argv.split()) == 0
    assert "S vs beta" in capsys.readouterr().out
    # a repeated beta is one finite beta
    argv = "sweep --n 40 --z 1 --nas 4 --betas 10,10,inf --format svg"
    assert main(argv.split()) == 2
    assert "two finite betas" in capsys.readouterr().err


_JUNK = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "-1", "1e-300", "1e308", "2.5", "x", ""]),
)


def _numbers(lo, hi, *specials):
    return st.sampled_from(specials) | st.floats(lo, hi).map(repr)


def _lists(item):
    return st.lists(item, min_size=1, max_size=3).map(",".join)


@st.composite
def _argvs(draw):
    """argv for one of the five commands at N <= 64 (N <= 5 for
    oracle-check), drawn from the flags that command reads.  Each flag is
    absent one time in four; half the argvs keep every value in range, the
    other half may take any value."""
    command = draw(st.sampled_from(["ee", "sweep", "fit", "cmera", "oracle-check"]))
    n = draw(st.integers(2, 5 if command == "oracle-check" else 64))
    in_range = {
        "--n": st.just(str(n)),
        "--na": st.integers(1, n).map(str),
        "--z": st.integers(1, 9).map(str),
        "--mass": _numbers(0, 3, "0", "0.5"),
        "--beta": _numbers(0.1, 100, "inf"),
        "--temp": _numbers(0.01, 10, "1"),
        "--eps": _numbers(0.25, 2, "1"),
        "--theta": _numbers(0, 0.99, "0"),
        "--zs": _lists(st.integers(1, 9).map(str)),
        "--betas": _lists(_numbers(0.1, 100, "inf")),
        "--nas": _lists(st.integers(1, n).map(str)),
        "--regime": st.sampled_from(["low", "high"]),
        "--format": st.sampled_from(["csv", "json", "svg"]),
    }
    clean = draw(st.booleans())
    if clean:  # --beta and --temp exclude each other
        del in_range[draw(st.sampled_from(["--beta", "--temp"]))]
    argv = [command]
    for flag, valid in in_range.items():
        if flag in COMMAND_FLAGS[command] and draw(st.integers(0, 3)):
            argv += [flag, draw(valid if clean else valid | _JUNK)]
    return argv


@settings(max_examples=100, deadline=None)
@given(_argvs())
@example(["sweep", "--n", "20", "--zs", "1", "--betas", "10,inf", "--nas", "4", "--format", "svg"])
@example(["sweep", "--n", "2", "--z", "1", "--na", "1", "--betas", "inf,inf", "--format", "svg"])
@example(["sweep", "--n", "40", "--z", "1", "--betas", "0.5,2", "--na", "4", "--format", "svg"])
def test_any_argv_exits_cleanly(argv):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
