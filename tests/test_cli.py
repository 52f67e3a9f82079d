import json
import os

import numpy as np
import pytest

from vfem.cli import EXIT_NOT_CONVERGED, EXIT_OK, EXIT_VALIDATION, main
from vfem.messages import MESSAGE_KINDS, WireSchema, decode
from vfem.dataio import read_dataset


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    code = main(["generate", "--n", "300", "--clients", "2,2", "--rho", "0.3",
                 "--seed", "42", "--out", str(out)])
    assert code == EXIT_OK
    return out


def test_generate_writes_expected_files(dataset_dir):
    assert sorted(os.listdir(dataset_dir)) == [
        "client_1.csv", "client_2.csv", "layout.json", "truth.json"]


def test_generate_rejects_empty(tmp_path, capsys):
    code = main(["generate", "--n", "0", "--clients", "2,2",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_VALIDATION


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        main(["generate", "--n", "100", "--clients", "2,1", "--rho", "0.2",
              "--seed", "7", "--out", str(out)])
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_smes_preset_matches_reference_rates(tmp_path, capsys):
    out = tmp_path / "smes"
    code = main(["generate", "--preset", "smes-like", "--n", "3000",
                 "--seed", "1", "--out", str(out)])
    assert code == EXIT_OK
    manifest = json.loads((out / "layout.json").read_text())
    assert manifest["block_dims"] == [12, 3, 6, 9, 5]
    assert manifest["missing_rates_config"] == [0.5365, 0.8761, 0.9305,
                                                0.0091, 0.9328]
    assert len(os.listdir(out)) == 7  # five client files + manifest + truth


def test_fit_infer_pipeline(dataset_dir, tmp_path, capsys):
    fit_path = tmp_path / "fit.json"
    trace_path = tmp_path / "trace.log"
    code = main(["fit", "--data", str(dataset_dir), "--engine", "federated",
                 "--tol", "1e-10", "--trace", str(trace_path),
                 "--out", str(fit_path)])
    assert code == EXIT_OK
    report = json.loads(fit_path.read_text())
    assert report["fit"]["converged"] is True
    assert report["fit"]["comm"]["bytes_total"] > 0

    # every traced record belongs to the closed vocabulary
    data, _ = read_dataset(str(dataset_dir))
    schema = WireSchema(data.layout, data.mask)
    lines = trace_path.read_text().splitlines()
    assert lines
    for line in lines:
        msg = decode(line + "\n")
        assert msg.kind in MESSAGE_KINDS
        schema.validate(msg)

    infer_path = tmp_path / "infer.json"
    code = main(["infer", "--data", str(dataset_dir), "--fit", str(fit_path),
                 "--out", str(infer_path), "--stats", "sketch"])
    assert code == EXIT_OK
    rep = json.loads(infer_path.read_text())
    assert len(rep["std_errors"]) == 4
    assert all(se > 0 for se in rep["std_errors"])
    assert (tmp_path / "infer.csv").exists()


def test_infer_full_scope(tmp_path):
    data_dir, fit_path = tmp_path / "data", tmp_path / "fit.json"
    assert main(["generate", "--n", "400", "--clients", "2,1,3", "--rho", "0.3",
                 "--seed", "5", "--out", str(data_dir)]) == EXIT_OK
    assert main(["fit", "--data", str(data_dir), "--engine", "federated",
                 "--tol", "1e-9", "--out", str(fit_path)]) == EXIT_OK
    reports = {}
    for scope in ("beta", "full"):
        out = tmp_path / f"infer_{scope}.json"
        assert main(["infer", "--data", str(data_dir), "--fit", str(fit_path),
                     "--out", str(out), "--scope", scope,
                     "--stats", "exact"]) == EXIT_OK
        reports[scope] = json.loads(out.read_text())
    full = reports["full"]
    assert full["scope"] == "full"
    se = np.asarray(full["std_errors"])
    assert se.shape == (6,) and np.all(np.isfinite(se)) and np.all(se > 0)
    assert full["estimates"] == reports["beta"]["estimates"]


def test_fit_not_converged_exit_code(dataset_dir, tmp_path, capsys):
    code = main(["fit", "--data", str(dataset_dir), "--engine", "federated",
                 "--max-iters", "2", "--tol", "1e-14",
                 "--out", str(tmp_path / "f.json")])
    assert code == EXIT_NOT_CONVERGED


def test_fit_rejects_short_row(dataset_dir, tmp_path, capsys):
    path = dataset_dir / "client_2.csv"
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if i and line.split(",")[0])
    lines[row] = lines[row].split(",")[0]
    path.write_text("\n".join(lines) + "\n")
    code = main(["fit", "--data", str(dataset_dir), "--out", str(tmp_path / "f.json")])
    assert code == EXIT_VALIDATION
    assert f"client_2.csv row {row - 1}: expected 2 cells" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.pop("columns"), "layout.json: missing key 'columns'"),
    (lambda m: m.update(columns=[["x1_1", "x1_2"], ["x2_1", "x2_2"]]),
     "layout.json: malformed manifest"),
], ids=["no-columns", "columns-list"])
def test_fit_rejects_malformed_manifest(dataset_dir, tmp_path, capsys, edit, message):
    path = dataset_dir / "layout.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    code = main(["fit", "--data", str(dataset_dir), "--out", str(tmp_path / "f.json")])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda fit: fit.pop("theta"), "fit.json: missing key 'theta'"),
    (lambda fit: fit.update(theta=None), "fit.json: malformed fit report"),
], ids=["no-theta", "null-theta"])
def test_infer_rejects_malformed_fit_report(dataset_dir, tmp_path, capsys, edit,
                                           message):
    fit_path = tmp_path / "fit.json"
    main(["fit", "--data", str(dataset_dir), "--tol", "1e-10", "--out", str(fit_path)])
    report = json.loads(fit_path.read_text())
    edit(report["fit"])
    fit_path.write_text(json.dumps(report))
    code = main(["infer", "--data", str(dataset_dir), "--fit", str(fit_path),
                 "--out", str(tmp_path / "i.json")])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (tmp_path / "i.json").exists()


def test_infer_sketch_switches_accept_only_booleans(dataset_dir, tmp_path, capsys):
    fit_path = tmp_path / "fit.json"
    main(["fit", "--data", str(dataset_dir), "--tol", "1e-10", "--out", str(fit_path)])
    cfg = tmp_path / "infer.cfg"
    out = tmp_path / "i.json"

    def infer(text):
        cfg.write_text(text + "\n")
        return main(["infer", "--config", str(cfg), "--data", str(dataset_dir),
                     "--fit", str(fit_path), "--out", str(out)])

    for text in ("shared = off", 'exact_within = "false"', "shared = 1",
                 "exact_within = no"):
        assert infer(text) == EXIT_VALIDATION, text
        assert "must be true or false" in capsys.readouterr().err
        assert not out.exists()
    assert infer("shared = false\nexact_within = FALSE") == EXIT_OK
    report = json.loads(out.read_text())
    assert report["sketch_shared"] is False
    assert report["sketch_exact_within"] is False

    # the same switches as command-line flags
    out.unlink()
    assert main(["infer", "--data", str(dataset_dir), "--fit", str(fit_path),
                 "--out", str(out), "--shared", "false",
                 "--exact-within", "false"]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["sketch_shared"] is False
    assert report["sketch_exact_within"] is False


def test_tight_refit_converges_and_infers(tmp_path, capsys):
    # the refit `vfem infer` suggests for a loose fit: at tol 1e-12 the loss
    # stop ends it, however small the coefficient steps have become
    data_dir, fit_path = tmp_path / "data", tmp_path / "fit.json"
    assert main(["generate", "--n", "3000", "--clients", "2,2,2", "--rho", "0.3",
                 "--seed", "1", "--out", str(data_dir)]) == EXIT_OK
    assert main(["fit", "--data", str(data_dir), "--tol", "1e-12",
                 "--out", str(fit_path)]) == EXIT_OK
    report = json.loads(fit_path.read_text())["fit"]
    assert report["reason"] == "loss" and report["converged"] is True
    assert report["iterations"] == 59
    assert main(["infer", "--data", str(data_dir), "--fit", str(fit_path),
                 "--out", str(tmp_path / "infer.json")]) == EXIT_OK


def test_fit_reports_deterministic(dataset_dir, tmp_path):
    outs = []
    for run in range(2):
        path = tmp_path / f"fit{run}.json"
        main(["fit", "--data", str(dataset_dir), "--engine", "federated",
              "--tol", "1e-9", "--out", str(path)])
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_infer_hint_when_not_a_fixed_point(dataset_dir, tmp_path, capsys):
    fit_path = tmp_path / "loose.json"
    main(["fit", "--data", str(dataset_dir), "--engine", "federated",
          "--max-iters", "3", "--tol", "1e-14", "--out", str(fit_path)])
    code = main(["infer", "--data", str(dataset_dir), "--fit", str(fit_path),
                 "--out", str(tmp_path / "i.json")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "tighter tolerance" in err


def test_fit_report_matches_least_squares_without_missingness(tmp_path, capsys):
    data_dir = tmp_path / "clean"
    assert main(["generate", "--n", "400", "--clients", "2,2", "--rho", "0",
                 "--seed", "8", "--out", str(data_dir)]) == EXIT_OK
    reports = {}
    for engine in ("oracle", "federated"):
        out = tmp_path / f"{engine}.json"
        assert main(["fit", "--data", str(data_dir), "--engine", engine,
                     "--tol", "1e-13", "--out", str(out)]) == EXIT_OK
        reports[engine] = np.asarray(
            json.loads(out.read_text())["fit"]["theta"]["beta"])
    data, _ = read_dataset(str(data_dir))
    x = data.full_design()
    beta_ls = np.linalg.solve(x.T @ x, x.T @ data.y)
    assert np.abs(reports["oracle"] - beta_ls).max() < 1e-10
    assert np.abs(reports["federated"] - reports["oracle"]).max() < 1e-4

    # exact-statistics standard errors reproduce the classical ones
    infer_out = tmp_path / "clean_infer.json"
    assert main(["infer", "--data", str(data_dir),
                 "--fit", str(tmp_path / "oracle.json"),
                 "--out", str(infer_out), "--stats", "exact"]) == EXIT_OK
    rep = json.loads(infer_out.read_text())
    resid = data.y - x @ beta_ls
    sigma2 = float(np.mean(resid ** 2))
    se = np.sqrt(np.diag(sigma2 * np.linalg.inv(x.T @ x)))
    assert np.abs(np.asarray(rep["std_errors"]) / se - 1.0).max() < 1e-6


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("# generation settings\nn = 120\nclients = [2, 2]\n"
                   "rho = 0.25\nseed = 3\n")
    out = tmp_path / "d"
    code = main(["generate", "--config", str(cfg), "--n", "60",
                 "--out", str(out)])
    assert code == EXIT_OK
    manifest = json.loads((out / "layout.json").read_text())
    assert manifest["n"] == 60            # flag wins
    assert manifest["missing_rates_config"] == [0.25, 0.25]


def test_fit_flag_beats_config_file(dataset_dir, tmp_path, capsys):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("engine = oracle\ntol = 1e-14\nmax_iters = 2\n")
    out = tmp_path / "f.json"
    code = main(["fit", "--config", str(cfg), "--data", str(dataset_dir),
                 "--max-iters", "3", "--out", str(out)])
    assert code == EXIT_NOT_CONVERGED
    report = json.loads(out.read_text())["fit"]
    assert report["engine"] == "oracle"   # from the file
    assert report["iterations"] == 3      # flag wins


@pytest.mark.parametrize("argv, config", [
    (["fit", "--engine", "foo"], None),
    (["fit", "--bogus", "1"], None),
    ([], None),
    (["fit", "--max-iter", "3"], None),
    (["fit"], "max_iter = 3"),
    (["fit"], "toll = 5"),
    (["fit"], "max_iters = 3.5"),
    (["fit"], "max_iters = true"),
    (["fit"], "max_iters"),
    (["fit"], "= 3"),
    (["infer", "--fit", "fit.json"], "bogus = 1"),
], ids=["bad-choice", "unknown-flag", "no-subcommand", "abbreviated-flag",
        "abbreviated-key", "mistyped-key", "float-for-int", "bool-for-int",
        "no-equals", "no-key", "unknown-infer-key"])
def test_usage_errors_exit_3(tmp_path, capsys, argv, config):
    # argparse would exit 2, the code of a fit that did not converge
    out = tmp_path / "out.json"
    if argv:
        argv = [*argv, "--data", str(tmp_path / "data"), "--out", str(out)]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if config is not None:
        assert str(cfg) in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--version"], ["fit", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0


def test_montecarlo_and_benchmark_run(tmp_path, capsys):
    code = main(["montecarlo", "--reps", "2", "--n", "200", "--clients", "2,2",
                 "--rho", "0.3", "--methods", "vfem,impute", "--seed", "1",
                 "--with-inference", "--out", str(tmp_path / "mc.csv")])
    assert code == EXIT_OK
    table = (tmp_path / "mc.csv").read_text()
    assert table.count("\n") == 3
    vfem_row = table.splitlines()[1].split(",")
    assert vfem_row[0] == "vfem" and vfem_row[5] != ""  # coverage column filled
