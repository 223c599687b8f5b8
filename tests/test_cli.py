import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlgauge import cli, verify
from nlgauge.cli import _initial_packet, main, run, validate
from nlgauge.grids import UniformGrid1D

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def patch_output(text: str, outdir: str) -> str:
    return text.replace("directory = out/", f"directory = {outdir}/")


def test_cli_import_loads_only_the_scipy_subpackages_it_uses():
    # the benchmark's setup time includes this import, so a heavy scipy
    # subpackage such as scipy.fft would show there. A public subpackage
    # has no leading underscore and is a package, not a module such as
    # scipy.version
    code = ("import sys, nlgauge.cli\n"
            "subs = {name.split('.')[1] for name in sys.modules\n"
            "        if name.startswith('scipy.')}\n"
            "print(*sorted(s for s in subs if not s.startswith('_')\n"
            "              and hasattr(sys.modules['scipy.' + s], '__path__')))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["linalg", "sparse"]


def test_shipped_configs_all_validate():
    for path in sorted(CONFIGS.glob("*.ini")):
        cfg, errors = validate(path.read_text())
        assert errors == [], (path.name, errors)
        assert cfg is not None


def test_empty_config_reports_required_fields():
    cfg, errors = validate("")
    assert cfg is None
    assert any("[experiment] kind is required" in e for e in errors)


def test_unknown_key_gets_suggestion():
    text = "[experiment]\nkind = sn-ground\n[solver]\nmixng = 0.4\n"
    cfg, errors = validate(text)
    assert cfg is None
    assert any("mixng" in e and "mixing" in e for e in errors)


def test_unknown_experiment_gets_suggestion():
    text = "[experiment]\nkind = sn-gound\n"
    cfg, errors = validate(text)
    assert any("sn-ground" in e for e in errors)


def test_unparsable_values_name_their_key():
    head = "[experiment]\nkind = sn-evolve\n[solver]\n"
    for key, raw, typ in (("steps", "1.5", "int"), ("dt", "fast", "float")):
        cfg, errors = validate(f"{head}{key} = {raw}\n")
        assert cfg is None
        assert errors == [f"[solver] {key}: cannot parse {raw!r} as {typ}"]


def test_unknown_section_gets_suggestion():
    cfg, errors = validate("[experiment]\nkind = sn-ground\n[solvr]\ndt = 0.1\n")
    assert cfg is None
    assert errors == ["unknown section [solvr]; did you mean [solver]?"]


def test_a_line_without_equals_is_a_parse_error():
    cfg, errors = validate("[experiment]\nkind = sn-ground\nno equals sign\n")
    assert cfg is None
    assert len(errors) == 1 and errors[0].startswith("config parse error: ")


def test_negative_dt_names_the_field():
    text = "[experiment]\nkind = sn-evolve\n[solver]\ndt = -0.1\n"
    cfg, errors = validate(text)
    assert cfg is None
    assert any("[solver] dt" in e for e in errors)


def test_max_scf_below_one_is_a_solver_error(tmp_path, capsys):
    for kind in ("functional-stationary", "sn-ground"):
        text = f"[experiment]\nkind = {kind}\n[solver]\nmax_scf = 0\n"
        assert _validate_errors(tmp_path, capsys, text) == [
            "config error: [solver] max_scf must be >= 1 (got 0)"]


@pytest.mark.parametrize("section, key", [("solver", "dt"), ("solver", "tol"),
                                          ("physics", "coupling"),
                                          ("physics", "background"),
                                          ("physics", "gradient_coupling")])
def test_non_finite_solver_and_physics_values_are_rejected(section, key):
    head = "[experiment]\nkind = sn-evolve\n"
    for raw in ("inf", "nan"):
        cfg, errors = validate(head + f"[{section}]\n{key} = {raw}\n")
        assert cfg is None
        assert errors == [f"[{section}] {key} must be finite and "
                          f"{'>' if section == 'solver' else '>='} 0 (got {raw})"]
    # l = inf is the linear limit
    cfg, errors = validate(head + "[physics]\nl = inf\n")
    assert errors == []


@pytest.mark.parametrize("raw", ["1e-300", "1e-160", "nan"])
def test_l_whose_inverse_square_is_not_finite_is_rejected(raw):
    # the run would divide by zero (1e-300) or hand ARPACK an infinite
    # Hamiltonian (1e-160)
    cfg, errors = validate("[experiment]\nkind = functional-stationary\n"
                           f"[physics]\nl = {raw}\n")
    assert cfg is None
    assert len(errors) == 1 and errors[0].startswith("[physics] l must be ")
    assert errors[0].endswith(f"(got {float(raw)})")


def test_output_formats_must_name_csv_or_json():
    head = "[experiment]\nkind = sn-evolve\n[output]\nformats = "
    cfg, errors = validate(head + "jsn\n")
    assert cfg is None
    assert errors == ["[output] formats: unknown format 'jsn'; did you mean 'json'?"]
    cfg, errors = validate(head + "csv, xml\n")
    assert errors == ["[output] formats: unknown format 'xml'"]
    for raw in ("", " , "):
        cfg, errors = validate(head + raw + "\n")
        assert cfg is None
        assert errors == ["[output] formats names no format; use csv and/or json"]
    for raw in ("json", "csv", " json , csv "):
        cfg, errors = validate(head + raw + "\n")
        assert errors == []


def test_error_collection_is_exhaustive():
    text = ("[experiment]\nkind = nope\n"
            "[solver]\ndt = -1\nsteps = 0\n[grid]\ncount = 1\n")
    cfg, errors = validate(text)
    assert len(errors) >= 4


def test_invalid_physics_parameters_are_all_reported():
    head = "[experiment]\nkind = functional-stationary\n[physics]\n"
    cfg, errors = validate(head + "lattice_spacing = -1\ngradient_coupling = -2\n")
    assert cfg is None
    assert any("[physics] lattice_spacing" in e for e in errors)
    assert any("[physics] gradient_coupling" in e for e in errors)
    cfg, errors = validate(head + "lattice_spacing = nan\npotential_coeffs = 0, inf\n")
    assert cfg is None
    assert any("[physics] lattice_spacing" in e for e in errors)
    assert any("[physics] potential_coeffs" in e for e in errors)
    cfg, errors = validate(head + "lattice_spacing = inf\n")
    assert cfg is None
    assert any("[physics] lattice_spacing" in e for e in errors)


def test_swapped_grid_bounds_name_their_section():
    cfg, errors = validate("[experiment]\nkind = functional-stationary\n"
                           "[grid]\nlower = 8\nupper = -8\n")
    assert cfg is None
    assert len(errors) == 1 and errors[0].startswith("[grid] ")
    cfg, errors = validate("[experiment]\nkind = sn-ground\n"
                           "[radial]\nr_min = 5\nr_max = 1\n")
    assert cfg is None
    assert len(errors) == 1 and errors[0].startswith("[radial] ")


def test_a_grid_section_the_experiment_does_not_read_is_not_checked():
    for kind, body in (("verify", "[grid]\ndim = 4\ncount = 201\n"),
                       ("functional-stationary", "[radial]\nr_min = 5\nr_max = 1\n")):
        cfg, errors = validate(f"[experiment]\nkind = {kind}\n{body}")
        assert errors == [] and cfg.experiment == kind


def _validate_errors(tmp_path, capsys, text):
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    return capsys.readouterr().err.splitlines()


def test_non_finite_grid_bounds_are_grid_errors(tmp_path, capsys):
    head = "[experiment]\nkind = functional-stationary\n[grid]\ncount = 31\n"
    assert _validate_errors(tmp_path, capsys, head + "lower = -inf\n") == [
        "config error: [grid] lower must be finite (got -inf)"]
    assert _validate_errors(tmp_path, capsys, head + "upper = nan\n") == [
        "config error: [grid] upper must be finite (got nan)"]


def test_non_finite_radial_bounds_are_radial_errors(tmp_path, capsys):
    head = "[experiment]\nkind = sn-ground\n[radial]\ncount = 100\n"
    assert _validate_errors(tmp_path, capsys, head + "r_max = inf\n") == [
        "config error: [radial] r_max must be finite (got inf)"]
    assert _validate_errors(tmp_path, capsys, head + "r_min = nan\n") == [
        "config error: [radial] r_min must be finite (got nan)"]


def test_grid_budget_is_checked_before_allocation(tmp_path, capsys):
    head = "[experiment]\nkind = functional-stationary\n"
    for kind, section, body in (
            ("functional-stationary", "grid", "dim = 4\ncount = 201\n"),
            ("functional-stationary", "grid", "count = 10000000000000\n"),
            ("sn-ground", "radial", "count = 10000000000000\n")):
        path = tmp_path / f"{section}.ini"
        path.write_text(f"[experiment]\nkind = {kind}\n[{section}]\n{body}")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: [{section}] ")
        assert "exceeds budget" in err[0]
    # `cube` checks dim before it builds an axis, so that dim is reported once
    cfg, errors = validate(head + "[grid]\ndim = 9\n")
    assert len(errors) == 1 and errors[0].startswith("[grid] dim ")


def test_cli_validate_and_run_harmonic_oscillator(tmp_path, capsys):
    text = patch_output((CONFIGS / "sn_ground_harmonic.ini").read_text(),
                        str(tmp_path))
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text(text)
    assert main(["validate", str(cfgfile)]) == 0
    assert main(["run", str(cfgfile)]) == 0
    summary = json.loads((tmp_path / "sn_ground_harmonic" / "summary.json")
                         .read_text())
    assert abs(summary["results"]["energy_scf"] - 1.5) < 1e-4
    assert abs(summary["results"]["energy_shoot"] - 1.5) < 1e-4
    echo = (tmp_path / "sn_ground_harmonic" / "config.echo").read_text()
    assert "kind = sn-ground" in echo
    csv = (tmp_path / "sn_ground_harmonic" / "radial_state.csv").read_text()
    assert csv.splitlines()[0] == "r,u_scf,v_scf,u_shoot,v_shoot"


def test_cli_run_rejects_invalid_config(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nkind = sn-evolve\n[solver]\ndt = -0.1\n")
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "[solver] dt" in err


def test_functional_evolve_csv_schema(tmp_path):
    text = f"""
[experiment]
kind = functional-evolve
[grid]
lower = -8.0
upper = 8.0
count = 121
[physics]
l = 1.0
[solver]
dt = 0.01
steps = 40
[output]
directory = {tmp_path}/fe
"""
    cfg, errors = validate(text)
    assert errors == []
    assert run(cfg) == 0
    lines = (tmp_path / "fe" / "evolution.csv").read_text().splitlines()
    assert lines[0] == ("t,norm,charge,gauss_residual,continuity_residual,"
                        "energy,sigma")
    assert len(lines) == 42  # header + initial + 40 steps
    # the drift is measured from row 0, the packet with its ends zeroed
    norm = [float(line.split(",")[1]) for line in lines[1:]]
    summary = json.loads((tmp_path / "fe" / "summary.json").read_text())
    assert summary["results"]["norm_drift"] == max(abs(v - norm[0]) for v in norm)


def test_cli_verify_subcommand(tmp_path, capsys):
    code = main(["verify", "--seed", "1", "--output", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    reports = json.loads((tmp_path / "verify_report.json").read_text())
    assert all(r["passed"] for r in reports)
    # negative controls are present and reported as expected-fail checks
    names = [r["name"] for r in reports]
    assert any("negative-control" in n for n in names)


def test_cli_functional_stationary_run(tmp_path):
    text = f"""
[experiment]
kind = functional-stationary
[grid]
lower = -8.0
upper = 8.0
count = 201
[physics]
l = 1.0
[solver]
tol = 1e-10
[output]
directory = {tmp_path}/fs
"""
    cfg, errors = validate(text)
    assert errors == []
    assert run(cfg) == 0
    summary = json.loads((tmp_path / "fs" / "summary.json").read_text())
    assert summary["results"]["omega"] < 0.5
    lines = (tmp_path / "fs" / "stationary_state.csv").read_text().splitlines()
    assert lines[0] == "phi,psi,a_t"


def test_reproducibility_byte_identical(tmp_path):
    base = f"""
[experiment]
kind = functional-evolve
seed = 3
[grid]
lower = -8.0
upper = 8.0
count = 121
[physics]
l = 1.5
[solver]
dt = 0.01
steps = 30
[output]
directory = {{out}}
"""
    blobs = []
    for sub in ("a", "b"):
        cfg, errors = validate(base.format(out=tmp_path / sub))
        assert errors == []
        assert run(cfg) == 0
        text = (tmp_path / sub / "summary.json").read_text()
        payload = json.loads(text)
        payload.pop("timestamp")
        blobs.append(json.dumps(payload, sort_keys=True))
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("dim", [1, 2])
def test_functional_stationary_rerun_is_byte_identical(tmp_path, dim):
    # no seeded noise fixes the eigen solve's start, so the run must be
    # deterministic by construction. The CLI writes stationary_state.csv
    # for one site only; config.echo names the output directory
    base = f"""
[experiment]
kind = functional-stationary
[grid]
lower = -6.0
upper = 6.0
count = 21
dim = {dim}
[physics]
l = 1.0
potential_coeffs = 0, 0, 0.5
[solver]
tol = 1e-10
[output]
directory = {{out}}
"""
    runs = []
    for sub in ("a", "b"):
        cfg, errors = validate(base.format(out=tmp_path / sub))
        assert errors == []
        assert run(cfg) == 0
        files = {p.name: p.read_bytes() for p in (tmp_path / sub).glob("*.csv")}
        payload = json.loads((tmp_path / sub / "summary.json").read_text())
        payload.pop("timestamp")
        runs.append((json.dumps(payload, sort_keys=True), files))
    assert runs[0] == runs[1]
    assert ("stationary_state.csv" in runs[0][1]) == (dim == 1)


def test_summary_json_booleans_are_booleans(tmp_path):
    text = f"""
[experiment]
kind = sn-evolve
[grid]
lower = -15.0
upper = 15.0
count = 301
[physics]
coupling = 0.0
potential_coeffs = 0
[solver]
dt = 0.02
steps = 20
[output]
directory = {tmp_path}/se
"""
    cfg, errors = validate(text)
    assert errors == []
    assert run(cfg) == 0
    summary = json.loads((tmp_path / "se" / "summary.json").read_text())
    assert summary["results"]["shrank"] is False
    assert summary["results"]["sigma_final"] > summary["results"]["sigma_initial"]


def _evolve_text(kind, body, outdir="out/x"):
    return (f"[experiment]\nkind = {kind}\n{body}"
            f"[output]\ndirectory = {outdir}\n")


def test_evolvers_run_and_conserve_the_norm_on_three_nodes(tmp_path):
    # 3 nodes leave one interior unknown, the smallest grid validate accepts
    for kind, physics in (("sn-evolve", "coupling = 2.0\npotential_coeffs = 0\n"),
                          ("functional-evolve", "l = 1.0\n")):
        body = (f"[grid]\ncount = 3\n[physics]\n{physics}"
                "[solver]\ndt = 0.01\nsteps = 20\n")
        cfg, errors = validate(_evolve_text(kind, body, tmp_path / kind))
        assert errors == []
        assert run(cfg) == 0, kind
        lines = (tmp_path / kind / "evolution.csv").read_text().splitlines()
        assert len(lines) == 22  # header + initial + 20 steps
        norm = [float(line.split(",")[1]) for line in lines[1:]]
        assert max(abs(v - norm[0]) for v in norm) <= 1e-13


def test_multi_site_functional_evolve_is_a_grid_dim_error(tmp_path, capsys):
    text = _evolve_text("functional-evolve", "[grid]\ncount = 21\ndim = 2\n")
    assert _validate_errors(tmp_path, capsys, text) == [
        "config error: [grid] dim must be 1 for functional-evolve (got 2)"]
    # the limit check is the one-site reduction too
    text = _evolve_text("limit-check", "[grid]\ncount = 41\ndim = 2\n")
    assert _validate_errors(tmp_path, capsys, text) == [
        "config error: [grid] dim must be 1 for limit-check (got 2)"]
    # the stationary solve on a 2-site grid still validates
    cfg, errors = validate(_evolve_text("functional-stationary",
                                        "[grid]\ncount = 21\ndim = 2\n"))
    assert errors == []


def test_sn_ground_with_a_background_is_a_physics_error(tmp_path, capsys):
    # the radial solvers are the background-free case
    text = "[experiment]\nkind = sn-ground\n[physics]\nbackground = 0.5\n"
    assert _validate_errors(tmp_path, capsys, text) == [
        "config error: [physics] background must be 0 for sn-ground (got 0.5)"]
    cfg, errors = validate(_evolve_text("sn-evolve", "[physics]\nbackground = 0.5\n"))
    assert errors == []


def test_a_width_whose_square_overflows_is_the_flat_plane_wave(tmp_path):
    for kind in ("sn-evolve", "functional-evolve"):
        packets = []
        for width in ("1e100", "1e200"):
            body = (f"[grid]\ncount = 21\n[initial]\nwidth = {width}\n"
                    "[solver]\nsteps = 2\n")
            cfg, errors = validate(_evolve_text(kind, body, tmp_path / width))
            assert errors == [], (kind, width)
            assert run(cfg) == 0, (kind, width)
            packets.append(_initial_packet(cfg, UniformGrid1D(-8.0, 8.0, 21)))
        assert np.array_equal(packets[0], packets[1]), kind
        assert np.ptp(np.abs(packets[1])) == 0.0


def test_initial_packet_errors_name_the_section(tmp_path, capsys):
    grid = "[grid]\nlower = -30\nupper = 30\n"
    for kind in ("sn-evolve", "functional-evolve"):
        for initial, expect in (
                ("width = 0", "width must be finite and > 0 (got 0.0)"),
                ("center = nan", "center must be finite (got nan)"),
                ("momentum = inf", "momentum must be finite (got inf)"),
                ("center = 500", "has zero norm on [-30.0, 30.0]")):
            err = _validate_errors(tmp_path, capsys, _evolve_text(
                kind, f"{grid}[initial]\n{initial}\n"))
            assert len(err) == 1, (kind, initial, err)
            assert err[0].startswith("config error: [initial] ")
            assert err[0].endswith(expect), (kind, initial, err)
    # experiments that start from no packet do not check it
    cfg, errors = validate(_evolve_text("sn-ground", "[initial]\nwidth = 0\n"))
    assert errors == []


def test_limit_check_runs_through_the_cli(tmp_path):
    text = patch_output((CONFIGS / "limit_check.ini").read_text(), str(tmp_path))
    cfg, errors = validate(text)
    assert errors == []
    assert run(cfg) == 0
    results = json.loads((tmp_path / "limit_check" / "summary.json")
                         .read_text())["results"]
    assert results["omega_diff"] < 1e-9
    assert isinstance(results["source_curvature_consistent"], bool)


def test_a_failing_verify_report_exits_2(tmp_path, monkeypatch):
    failing = verify.CheckReport("always-fails", False, [("x", 1.0)], 1e-9)
    monkeypatch.setattr(verify, "run_all", lambda seed: [failing])
    cfg, errors = validate(_evolve_text("verify", "", tmp_path / "v"))
    assert errors == []
    assert run(cfg) == 2
    summary = json.loads((tmp_path / "v" / "summary.json").read_text())
    assert summary["results"]["all_passed"] is False
    assert summary["results"]["reports"] == [failing.to_dict()]


def test_a_non_finite_result_is_an_error_with_no_summary(tmp_path, monkeypatch,
                                                         capsys):
    for value in (np.inf, np.nan):
        monkeypatch.setitem(cli._RUNNERS, "sn-ground",
                            lambda cfg, value=value: ({"energy": value}, {}))
        outdir = tmp_path / str(value)
        cfg, errors = validate(_evolve_text("sn-ground", "", outdir))
        assert errors == []
        assert run(cfg) == 1, value
        assert capsys.readouterr().err.startswith("error: ")
        assert not (outdir / "summary.json").exists()
