import json
import math
import os
import subprocess
import sys

import pytest

import dilaton_gme
from dilaton_gme import (
    BlackHoleParams,
    ScenarioSpec,
    VerificationCheck,
    VerificationReport,
    bogoliubov,
    cli,
    e_general,
    extract_xstate,
    gme_xstate,
    scenario_density,
)
from dilaton_gme.cli import main
from dilaton_gme.verify import dilaton_grid


def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "sweep" in capsys.readouterr().out


def test_sweep_stdout_format(capsys):
    code = main(
        ["sweep", "--n-horizon", "2", "--accessible", "--theta", "0.5", "--steps", "4"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "D,alpha,beta,E_analytic"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(0.9999999999939192)
    # final grid point lands exactly on d-max = mass
    assert lines[-1].split(",")[0] == "1"


def test_sweep_oracle_column_consistent(capsys):
    code = main(
        [
            "sweep", "--n-horizon", "2", "--p", "1", "--theta", "0.7",
            "--steps", "5", "--oracle", "--n-parties", "4",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "D,alpha,beta,E_analytic,E_oracle"
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[4]) == pytest.approx(float(fields[3]), abs=1e-10)


def test_sweep_reruns_are_byte_identical(tmp_path):
    args = [
        "sweep", "--n-horizon", "3", "--q", "1", "--theta", "0.9",
        "--d-min", "0.2", "--d-max", "0.8", "--steps", "11",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def _reference_csv(header, ds, columns):
    """Point-by-point CSV through the scalar API, for byte comparison."""
    lines = [header]
    for i, d in enumerate(ds):
        lines.append(",".join(format(v, ".17g") for v in [d] + [c[i] for c in columns]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "mass,omega,theta,p,q,d_min,d_max,n_parties",
    [
        (1.0, 1.0, 0.7, 5, 0, 0.0, 1.0, None),
        (1.3, 0.7, 1.2, 0, 80, 0.1, 1.2, None),
        (0.9, 1.6, 1.1, 8, 4, 0.2, 0.9, None),
        (1.7, 0.6, 0.3, 700, 500, 0.0, 1.7, None),
        (1.2, 1.4, 0.5, 2000, 0, 0.3, 1.1, None),
        (1.0, 1.0, math.pi / 4, 0, 64, 0.0, 1.0, None),
        (1.0, 80.0, 0.4, 2, 2, 0.0, 1.0, None),
        (1.0, 1.0, 0.9, 2, 1, 0.0, 1.0, 5),
    ],
)
def test_sweep_bytes_equal_a_scalar_reference(
    mass, omega, theta, p, q, d_min, d_max, n_parties, tmp_path
):
    steps = 61 if n_parties else 401
    ds = dilaton_grid(d_min, d_max, steps)
    pairs = [bogoliubov(BlackHoleParams(mass, d, omega)) for d in ds]
    columns = [
        [pair.alpha for pair in pairs],
        [pair.beta for pair in pairs],
        [e_general(theta, pair, p, q) for pair in pairs],
    ]
    header = "D,alpha,beta,E_analytic"
    argv = [
        "sweep", "--mass", repr(mass), "--omega", repr(omega), "--theta", repr(theta),
        "--n-horizon", str(p + q), "--p", str(p), "--q", str(q),
        "--d-min", repr(d_min), "--d-max", repr(d_max), "--steps", str(steps),
    ]
    if n_parties:
        spec = ScenarioSpec(n_parties, p + q, p, q, theta)
        columns.append([gme_xstate(extract_xstate(scenario_density(spec, pr))) for pr in pairs])
        header += ",E_oracle"
        argv += ["--oracle", "--n-parties", str(n_parties)]
    out = tmp_path / "sweep.csv"
    assert main(argv + ["--output", str(out)]) == 0
    assert out.read_bytes() == _reference_csv(header, ds, columns).encode()


def test_figures_bytes_equal_a_scalar_reference(tmp_path, capsys):
    assert main(["figures", "--output-dir", str(tmp_path), "--svg"]) == 0
    capsys.readouterr()
    ds = dilaton_grid(0.0, 1.0, 201)
    pairs = [bogoliubov(BlackHoleParams(1.0, d, 1.0)) for d in ds]
    for stem, spec in cli._FIGURES.items():
        series = [
            (name, [e_general(theta, pair, p, q) for pair in pairs])
            for name, p, q, theta in spec
        ]
        header = "D," + ",".join(name for name, _ in series)
        csv = _reference_csv(header, ds, [values for _, values in series])
        assert (tmp_path / f"{stem}.csv").read_bytes() == csv.encode()
        svg = cli._render_svg(stem, ds, series)
        assert (tmp_path / f"{stem}.svg").read_bytes() == svg.encode()


def test_sweep_bad_theta_exits_2(capsys):
    assert main(["sweep", "--n-horizon", "2", "--p", "1", "--theta", "2"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: theta must lie in [0, pi/2], got 2.0\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--n-horizon", "2"],                                  # no split chosen
        ["sweep", "--n-horizon", "2", "--accessible", "--p", "1"],      # conflicting split
        ["sweep", "--n-horizon", "2", "--p", "1", "--q", "2"],          # p + q != n
        ["sweep", "--n-horizon", "2", "--p", "1", "--steps", "1"],
        ["sweep", "--n-horizon", "2", "--p", "1", "--d-min", "0.9", "--d-max", "0.1"],
        ["sweep", "--n-horizon", "2", "--p", "1", "--oracle"],          # missing n-parties
        ["state", "--n-parties", "3", "--n-horizon", "4", "--accessible"],
        ["figures", "--steps", "1"],
        ["figures", "--steps", "0"],
        ["sweep", "--n-horizon", str(10**400), "--accessible"],         # exponent past float range
        # step counts past MAX_GRID_STEPS, some past the float range too
        ["sweep", "--n-horizon", "2", "--p", "1", "--steps", str(10**400)],
        ["sweep", "--n-horizon", "2", "--p", "1", "--steps", "1000001"],
        ["figures", "--steps", str(2**1024)],
        ["verify", "--grid", "small", "--steps", str(10**400)],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


def test_domain_errors_exit_2(capsys):
    # dilaton beyond the mass is a parameter error, not a crash
    code = main(
        ["state", "--n-parties", "3", "--n-horizon", "1", "--accessible", "--dilaton", "2.0"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_budget_edge_runs_and_past_it_exits_2(capsys):
    # (13312, 1) is the largest party count the n_parties * 2**n_horizon budget admits.
    assert main(["state", "--n-parties", "13312", "--n-horizon", "1", "--accessible"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith(",O1") and out[0].count(",") == 13311
    assert len(out) == 2 + 4  # headers, 2**1 + 1 populations and one coherence
    argv = ["sweep", "--n-horizon", "1", "--p", "1", "--oracle", "--n-parties", "13312",
            "--steps", "3"]
    assert main(argv) == 0
    for row in capsys.readouterr().out.splitlines()[1:]:
        e_analytic, e_oracle = map(float, row.split(",")[3:])
        assert abs(e_analytic - e_oracle) <= 1e-10
    assert main(["state", "--n-parties", "13313", "--n-horizon", "1", "--accessible"]) == 2
    assert capsys.readouterr().err == (
        "error: n_parties * 2**n_horizon = 13313 * 2**1 exceeds the exact pipeline's "
        "budget of 26624\n"
    )
    assert main(["sweep", "--n-horizon", "11", "--p", "5", "--oracle", "--n-parties", "14"]) == 2
    assert "budget of 26624" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["figures", "--output-dir", "{blocker}/x"],
        ["sweep", "--n-horizon", "2", "--p", "1", "--output", "{blocker}/x"],
    ],
)
def test_io_errors_exit_2(argv, tmp_path, capsys):
    # a path below a regular file can be neither a directory nor a file
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([arg.format(blocker=blocker) for arg in argv]) == 2
    assert "error:" in capsys.readouterr().err


def test_import_loads_no_numpy():
    src = os.path.dirname(os.path.dirname(dilaton_gme.__file__))
    code = "import sys, dilaton_gme, dilaton_gme.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_state_dump(capsys):
    code = main(
        [
            "state", "--n-parties", "2", "--n-horizon", "1", "--accessible",
            "--theta", str(math.pi / 4), "--dilaton", "1.0",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# modes: F1,O1"
    assert lines[1] == "row,col,value"
    rows = {tuple(l.split(",")[:2]): float(l.split(",")[2]) for l in lines[2:]}
    assert rows[("0", "0")] == pytest.approx(0.25)
    assert rows[("0", "3")] == pytest.approx(0.125**0.5)
    assert rows[("3", "3")] == pytest.approx(0.5)


def test_state_dump_diagonal_at_theta_zero(capsys):
    code = main(
        ["state", "--n-parties", "3", "--n-horizon", "2", "--p", "1",
         "--theta", "0", "--dilaton", "0.6"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    data = [l.split(",") for l in lines[2:]]
    assert len(data) == 4  # 2**n diagonal populations
    assert all(r == c for r, c, _ in data)


def test_figures_written_and_deterministic(tmp_path, capsys):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    for target in (dir_a, dir_b):
        assert main(["figures", "--output-dir", str(target), "--steps", "9"]) == 0
        capsys.readouterr()
    for stem in ("fig1", "fig2", "fig3"):
        csv_a = (dir_a / f"{stem}.csv").read_bytes()
        csv_b = (dir_b / f"{stem}.csv").read_bytes()
        assert csv_a == csv_b
    header = (dir_a / "fig1.csv").read_text().splitlines()[0]
    assert header == "D,E_n5_pi6,E_n20_pi6,E_n80_pi6,E_n5_pi4,E_n20_pi4,E_n80_pi4"
    header2 = (dir_a / "fig2.csv").read_text().splitlines()[0]
    assert header2 == "D,E_n8_pi6,E_n10_pi6,E_n12_pi6,E_n8_pi4,E_n10_pi4,E_n12_pi4"
    header3 = (dir_a / "fig3.csv").read_text().splitlines()[0]
    assert header3.startswith("D,E_p8_q4_pi12,E_p8_q4_pi6,E_p8_q4_pi4,E_p32_q2_pi12")


def test_figures_svg(tmp_path, capsys):
    assert main(["figures", "--output-dir", str(tmp_path), "--steps", "5", "--svg"]) == 0
    out = capsys.readouterr().out
    for stem in ("fig1", "fig2", "fig3"):
        path = tmp_path / f"{stem}.svg"
        assert str(path) in out
        assert path.read_text().startswith("<svg")


def test_verify_small_grid(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--grid", "small", "--steps", "101", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    names = [item["name"] for item in payload]
    assert "oracle-vs-analytic" in names
    assert "dual-construction" in names
    assert "monotonicity-p8-q4" in names
    assert all(item["status"] == "pass" for item in payload)
    for item in payload:
        assert list(item) == [
            "name", "grid-size", "max-abs-error", "tolerance", "status",
            "worst-case-inputs",
        ]


def test_verify_failure_sets_exit_code(monkeypatch, capsys):
    failing = VerificationReport(
        (VerificationCheck("forced", 1, 1.0, 0.0, "fail", None),)
    )
    monkeypatch.setattr(cli, "oracle_compare", lambda grid: failing)
    monkeypatch.setattr(cli, "relationship_suite", lambda grid: VerificationReport(()))
    monkeypatch.setattr(
        cli, "monotonicity_scan", lambda p, q, steps: VerificationReport(())
    )
    assert main(["verify", "--grid", "small"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["status"] == "fail"
