import json
import os
from pathlib import Path

from nlgauge.cli import main, run, validate

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def patch_output(text: str, outdir: str) -> str:
    return text.replace("directory = out/", f"directory = {outdir}/")


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


def test_negative_dt_names_the_field():
    text = "[experiment]\nkind = sn-evolve\n[solver]\ndt = -0.1\n"
    cfg, errors = validate(text)
    assert cfg is None
    assert any("[solver] dt" in e for e in errors)


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
