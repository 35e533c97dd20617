import json
import math

import pytest

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
