import hashlib
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
    verify,
)
from dilaton_gme.cli import build_parser, main
from dilaton_gme.hawking import dilaton_grid


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
    "split,flag,got",
    [
        (["--p", "5"], "--p", "5"),
        (["--q", "5"], "--q", "5"),
        (["--p", "-1"], "--p", "-1"),
        (["--q", "-2"], "--q", "-2"),
        (["--p", "-1", "--q", "4"], "--p", "-1"),
        (["--p", "3", "--q", "-1"], "--q", "-1"),
    ],
)
@pytest.mark.parametrize("command", [["sweep"], ["state", "--n-parties", "5"]])
def test_a_split_count_outside_the_horizon_names_its_flag(capsys, command, split, flag, got):
    # The user typed --p/--q, so the refusal names them, not the library's n_out/n_in.
    assert main([*command, "--n-horizon", "3", *split]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f" error: {flag} must lie in [0, --n-horizon] = [0, 3], got {got}\n")
    assert "n_out" not in captured.err and "n_in" not in captured.err


@pytest.mark.parametrize("n_horizon", ["-1", "0"])
@pytest.mark.parametrize("split", [["--accessible"], ["--p", "0"]])
@pytest.mark.parametrize("command", [["sweep"], ["state", "--n-parties", "3"]])
def test_a_horizon_count_below_one_names_its_flag(capsys, command, split, n_horizon):
    # Refused before --p/--q are read against it, so neither they nor n_out are blamed.
    assert main([*command, "--n-horizon", n_horizon, *split]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f" error: --n-horizon must be at least 1, got {n_horizon}\n")
    assert "--p" not in captured.err.splitlines()[-1] and "n_out" not in captured.err


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


@pytest.mark.parametrize(
    "steps,message",
    [
        ("2", "need at least 3 steps for a shape scan, got 2"),
        ("1000001", "a dilaton grid takes at most 1000000 steps, got 1000001"),
    ],
    ids=["too-few", "too-many"],
)
@pytest.mark.parametrize("grid", ["full", "small"])
def test_verify_checks_steps_before_the_oracle_grid(monkeypatch, capsys, grid, steps, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("the oracle grid ran before --steps was checked")

    monkeypatch.setattr(verify, "oracle_compare", unreachable)
    monkeypatch.setattr(verify, "relationship_suite", unreachable)
    assert main(["verify", "--grid", grid, "--steps", steps]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


@pytest.mark.parametrize("argv", [["--steps", "1"], ["--mass", "-1"], ["--omega", "0"]])
def test_a_refused_figures_request_makes_no_output_directory(argv, tmp_path, capsys):
    target = tmp_path / "new" / "sub"
    assert main(["figures", "--output-dir", str(target), *argv]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_import_builds_no_parser():
    src = os.path.dirname(os.path.dirname(dilaton_gme.__file__))
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "import dilaton_gme.cli\n"
        "print(len(built), dilaton_gme.cli._parser)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "0 None"


_SMALL_SWEEP = ["sweep", "--n-horizon", "3", "--p", "2", "--steps", "7"]


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    assert main(_SMALL_SWEEP) == 0
    assert main(["sweep", "--n-horizon", "2", "--accessible", "--steps", "3"]) == 0
    capsys.readouterr()
    assert len(built) == 1


def test_a_usage_error_leaves_the_shared_parser_as_it_was(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_parser", None)
    assert main(["sweep", "--bogus"]) == 2
    assert "dilaton-gme sweep: error:" in capsys.readouterr().err
    assert main(_SMALL_SWEEP) == 0
    reused = capsys.readouterr()
    monkeypatch.setattr(cli, "_parser", None)  # the next call builds a fresh parser
    assert main(_SMALL_SWEEP) == 0
    assert capsys.readouterr() == reused


def test_import_loads_no_numpy():
    src = os.path.dirname(os.path.dirname(dilaton_gme.__file__))
    code = "import sys, dilaton_gme, dilaton_gme.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


# The commands that import layers of their own; in-process runs find every module
# already loaded, so only a fresh interpreter shows a missing import.
_FRESH_RUNS = {
    "sweep-oracle": ["sweep", "--n-horizon", "2", "--p", "1", "--oracle", "--n-parties", "4", "--steps", "5"],
    "state": ["state", "--n-parties", "4", "--n-horizon", "2", "--p", "1"],
    "verify": ["verify", "--grid", "small", "--steps", "3"],
}


@pytest.mark.parametrize("name", list(_FRESH_RUNS))
def test_each_command_runs_in_a_fresh_interpreter(capsys, name):
    argv = _FRESH_RUNS[name]
    code = main(argv)
    expected = capsys.readouterr()
    src = os.path.dirname(os.path.dirname(dilaton_gme.__file__))
    script = "import sys\nfrom dilaton_gme.cli import main\nsys.exit(main(sys.argv[1:]))"
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], env=dict(os.environ, PYTHONPATH=src), capture_output=True
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        code, expected.out.encode(), expected.err.encode()
    )


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


# sha256 of stdout, pinned before scenario points were traced through cached plans.
_PINNED_STDOUT = {
    "state-8-3": (
        ["state", "--n-parties", "8", "--n-horizon", "3", "--p", "2", "--dilaton", "0.6"],
        "f1344cb32d3a796fb406a3157ecd496938cf25bb8a8700403b1998025b230391",
    ),
    "state-18-4": (
        ["state", "--n-parties", "18", "--n-horizon", "4", "--p", "1", "--dilaton", "0.6"],
        "5a5408093f1dd8a314dc142cf0b91deabca7bbb053f9f008e229d5fd82589885",
    ),
    "state-13312-1": (
        ["state", "--n-parties", "13312", "--n-horizon", "1", "--accessible"],
        "018a80f5c23e8bc1ff164db660fcee887ed32737b705186586bb70d138085ffa",
    ),
    "verify-small": (
        ["verify", "--grid", "small"],
        "f4ee8ea808380abecad8b1da45aa11e7b1d35a450c565324abb0e667c2072331",
    ),
    "verify-full": (
        ["verify", "--grid", "full"],
        "56d636e140159170e1248a354edb09898e2ea55fb510927811c24c895bb2f510",
    ),
    "sweep-oracle-18-4": (
        ["sweep", "--n-horizon", "4", "--p", "2", "--oracle", "--n-parties", "18", "--steps", "41"],
        "3bd03f5302d03388181eea165fbcbe26a020377896e88c5f8099d33386782cb2",
    ),
    # The closed-form sweeps, pinned before the grid built its coefficients in one pass.
    "sweep-accessible-2000": (
        ["sweep", "--n-horizon", "2000", "--accessible", "--steps", "2001"],
        "8cb5a36ae1c6c35d74dc56407199e9153c3fa157e5695b13ee3f6821ef089a82",
    ),
    "sweep-8-4": (
        ["sweep", "--n-horizon", "12", "--p", "8", "--q", "4", "--mass", "1.3", "--omega", "0.7",
         "--steps", "1001"],
        "3af543114fabd85f53ea8519d81c9b040bf471ba2d9569829360417ede8e1498",
    ),
    # A grid whose E crosses exp(-700): 53 points above it, 1,948 below, 1,944 of them 0.0.
    "sweep-1200-700-mixed": (
        ["sweep", "--n-horizon", "1200", "--p", "700", "--mass", "2", "--omega", "2",
         "--steps", "2001"],
        "6d6247cefbaad943c8061d0d7d2f0ce39362e1078d0c85a8a7c290d4462cc4ec",
    ),
}


@pytest.mark.parametrize("name", list(_PINNED_STDOUT))
def test_stdout_bytes_are_pinned(capsys, name):
    argv, digest = _PINNED_STDOUT[name]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of the default figures, pinned before the three figures shared one grid.
_PINNED_FIGURES = {
    "fig1.csv": "a4b4979d39df3067922fbe16edd7dd3ce7b5ae54216d83ac580e33476583cd90",
    "fig2.csv": "30680253879c2a6f8d0c189be694ad68a3fe231ebcbc215e6c855b8aad855af1",
    "fig3.csv": "a26b8fbe88c2090eb31d87caa74c89ec2d00dfdc9110a542896fc06ab0d25c1e",
}


def test_figures_bytes_are_pinned(tmp_path, capsys):
    assert main(["figures", "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in _PINNED_FIGURES}
    assert digests == _PINNED_FIGURES


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
    monkeypatch.setattr(verify, "oracle_compare", lambda grid: failing)
    monkeypatch.setattr(verify, "relationship_suite", lambda grid: VerificationReport(()))
    monkeypatch.setattr(
        verify, "_shape_scans", lambda splits, steps: VerificationReport(())
    )
    assert main(["verify", "--grid", "small"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["status"] == "fail"


def test_verify_writes_a_nan_error_as_null(monkeypatch, capsys):
    # JSON has no NaN: the report stays valid JSON, and the check still fails.
    score, calls = verify.gme_xstate, []

    def nan_at_the_second_point(x):
        calls.append(x)
        return math.nan if len(calls) == 2 else score(x)

    def refuse(token):
        raise AssertionError(f"{token} is not JSON")

    monkeypatch.setattr(verify, "gme_xstate", nan_at_the_second_point)
    assert main(["verify", "--grid", "small"]) == 1
    payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert [item["status"] for item in payload].count("fail") == 1
    assert payload[0]["name"] == "oracle-vs-analytic"
    assert (payload[0]["status"], payload[0]["max-abs-error"]) == ("fail", None)
