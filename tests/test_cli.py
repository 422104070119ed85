import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fbmsde import ConfigError, Partition, cli, engine
from fbmsde.cli import main
from fbmsde.configio import (
    EXPERIMENT_SCHEMA,
    LIMIT_SCHEMA,
    experiment_config_from_mapping,
    limit_params_from_mapping,
    load_config_file,
    parse_config_text,
)
from fbmsde.engine import backward_euler_block
from fbmsde.harness import (
    Ensemble,
    resolve_drift,
    run_scheme,
    validate_limit_config,
    validate_rate_config,
    validate_stability_config,
)

RATE_CFG = """\
# strong-error smoke configuration
drift = example2
x0 = 1.0 1.0
t_final = 1.0
hurst = 0.7
schemes = bem
meshes = 2^-4 2^-5
master_mesh = 2^-7
mc_paths = 4
seed = 5
"""

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

LIMIT_CFG = """\
drift = linear
linear_matrix = -1.0
x0 = 1.0
hurst = 0.7
t = 1.0
n_values = 8 16
mc_paths = 4
seed = 3
"""

STAB_CFG = """\
drift = example1
x0 = 5.0
t_final = 0.72
hurst = 0.6
schemes = em cn bem
meshes = 0.08
master_mesh = 0.0001
mc_paths = 1
seed = 0
"""


# --- config text parsing ------------------------------------------------------

def test_parse_config_text_strips_comments_and_blanks():
    mapping = parse_config_text("# header\n\na = 1\nb = two words  # trailing\n")
    assert mapping == {"a": "1", "b": "two words"}


def test_parse_config_text_rejects_malformed_lines():
    with pytest.raises(ConfigError) as err:
        parse_config_text("a = 1\nnot a pair\nanother stray\n")
    assert len(err.value.issues) == 2
    assert "line 2" in err.value.issues[0]


def test_experiment_mapping_parses_dyadic_and_defaults():
    cfg = experiment_config_from_mapping(parse_config_text(RATE_CFG))
    assert cfg.meshes == (2.0 ** -4, 2.0 ** -5)
    assert cfg.master_mesh == 2.0 ** -7
    assert cfg.schemes == ("bem",)
    assert cfg.newton_max_iter == 50
    assert cfg.hurst_values == (0.7,)
    alt = experiment_config_from_mapping(
        parse_config_text(RATE_CFG.replace("2^-4", "2**-4")))
    assert alt.meshes == cfg.meshes


def test_experiment_mapping_parses_matrix_rows():
    text = RATE_CFG + "linear_matrix = 0.0 1.0; -1.0 0.0\n"
    cfg = experiment_config_from_mapping(parse_config_text(text))
    assert cfg.linear_matrix == ((0.0, 1.0), (-1.0, 0.0))


def test_experiment_mapping_collects_parse_issues():
    mapping = parse_config_text(
        "drift = example1\nx0 = what\nhurst = 0.7\nwrong_key = 1\n")
    with pytest.raises(ConfigError) as err:
        experiment_config_from_mapping(mapping)
    text = " | ".join(err.value.issues)
    assert "wrong_key" in text
    assert "x0" in text
    assert "t_final" in text        # missing required key
    assert len(err.value.issues) >= 3


def test_experiment_mapping_overrides_win():
    cfg = experiment_config_from_mapping(parse_config_text(RATE_CFG),
                                         overrides={"mc_paths": 99})
    assert cfg.mc_paths == 99


def test_limit_mapping_round_trip():
    params = limit_params_from_mapping(parse_config_text(LIMIT_CFG))
    assert params.n_values == (8, 16)
    assert params.t == 1.0
    assert params.linear_matrix == ((-1.0,),)
    with pytest.raises(ConfigError):
        limit_params_from_mapping(parse_config_text(LIMIT_CFG + "oops = 1\n"))


def test_limit_mapping_overrides_win():
    params = limit_params_from_mapping(parse_config_text(LIMIT_CFG),
                                       overrides={"mc_paths": 99, "out": "o"})
    assert (params.mc_paths, params.out) == (99, "o")


def test_mapping_reports_values_too_large_to_read():
    mapping = parse_config_text(RATE_CFG.replace("2^-4", "2^5000"))
    with pytest.raises(ConfigError) as err:
        experiment_config_from_mapping(mapping)
    assert err.value.issues == ["key 'meshes': cannot parse '2^5000 2^-5' as numbers"]
    mapping = parse_config_text(LIMIT_CFG.replace("8 16", "8 inf"))
    with pytest.raises(ConfigError) as err:
        limit_params_from_mapping(mapping)
    assert err.value.issues == ["key 'n_values': cannot parse '8 inf'"]


def test_readme_key_lists_match_the_schemas():
    import re
    readme = (ROOT / "README.md").read_text()
    section = readme.split("Keys for `rate` / `stability`:", 1)[1]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    table = {key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert table == {key for key, *_ in EXPERIMENT_SCHEMA}
    limit_text = section.split("`limit` uses", 1)[1].split(".", 1)[0]
    assert set(re.findall(r"`(\w+)`", limit_text)) == {key for key, *_ in LIMIT_SCHEMA}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_bundled_configs_are_valid(path):
    # Parsed and validated, not run: a key the schemas dropped fails here.
    mapping = load_config_file(path)
    if path.name.startswith("example2"):
        validate_rate_config(experiment_config_from_mapping(mapping))
    elif path.name.startswith("limit"):
        validate_limit_config(limit_params_from_mapping(mapping))
    elif path.name.startswith("stability"):
        validate_stability_config(experiment_config_from_mapping(mapping))
    else:
        pytest.fail(f"no validator is known for {path.name}")


# --- fbm subcommand -------------------------------------------------------------

def test_fbm_writes_deterministic_csv(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["fbm", "--hurst", "0.7", "--steps", "16", "--t-final", "1.0",
            "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "t,B1"
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert set(meta) == {"subcommand", "config", "seed", "version", "outputs"}
    assert meta["subcommand"] == "fbm"
    assert meta["seed"] == 9


def test_fbm_multi_coordinate_header(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["fbm", "--hurst", "0.6", "0.8", "--dim", "2", "--steps", "4",
               "--t-final", "1.0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,B1,B2"
    assert len(lines) == 6
    first = [float(tok) for tok in lines[1].split(",")]
    assert first == [0.0, 0.0, 0.0]


def test_fbm_rejects_bad_hurst(tmp_path, capsys):
    rc = main(["fbm", "--hurst", "1.2", "--steps", "4", "--t-final", "1.0",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_without_subcommand_returns_usage_error(capsys):
    # argparse SystemExit is translated into a plain return code
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


# --- simulate subcommand ----------------------------------------------------------

def test_simulate_zero_noise_matches_flow(tmp_path):
    out = tmp_path / "ode.csv"
    rc = main(["simulate", "--drift", "example1", "--x0", "1.0",
               "--steps", "200", "--t-final", "0.5", "--hurst", "0.7",
               "--zero-noise", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,Y1"
    final = float(lines[-1].split(",")[1])
    assert final == pytest.approx(1.0 / np.sqrt(2.0), abs=5e-3)


def test_simulate_explicit_scheme_records_divergence(tmp_path):
    out = tmp_path / "em.csv"
    rc = main(["simulate", "--drift", "example1", "--scheme", "em",
               "--x0", "5.0", "--steps", "9", "--t-final", "0.72",
               "--hurst", "0.6", "--seed", "0", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "Inf" in text or "NaN" in text    # non-finite states land in the CSV


def test_simulate_implicit_scheme_stays_bounded(tmp_path):
    out = tmp_path / "bem.csv"
    rc = main(["simulate", "--drift", "example1", "--scheme", "bem",
               "--x0", "5.0", "--steps", "9", "--t-final", "0.72",
               "--hurst", "0.6", "--seed", "0", "--out", str(out)])
    assert rc == 0
    vals = [float(line.split(",")[1])
            for line in out.read_text().splitlines()[1:]]
    assert np.isfinite(vals).all()
    assert np.abs(vals).max() <= 10.0


def test_simulate_guard_failure_exits_one(tmp_path, capsys):
    rc = main(["simulate", "--drift", "doublewell1d", "--x0", "0.0",
               "--steps", "2", "--t-final", "2.0", "--hurst", "0.7",
               "--out", str(tmp_path / "g.csv")])
    assert rc == 1
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["bem", "em", "cn"])
def test_simulate_rejects_a_non_finite_start(tmp_path, capsys, scheme):
    out = tmp_path / "nan.csv"
    rc = main(["simulate", "--drift", "cubic1d", "--scheme", scheme,
               "--x0", "nan", "--steps", "4", "--t-final", "1",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: start x0 must be finite, got [nan]\n"
    assert not out.exists()


def test_simulate_master_steps_replays_a_coarse_rate_lane(tmp_path, monkeypatch):
    # Lane 4 of a rate run with paths 0-2 of H = 0.6 and 0.8 is path 1 of
    # H = 0.8; its mesh 2^-4 run keeps every 8th node of the 128-step grid.
    cfg = experiment_config_from_mapping(parse_config_text(
        RATE_CFG.replace("hurst = 0.7", "hurst = 0.6 0.8")
        .replace("mc_paths = 4", "mc_paths = 3")))
    spec = resolve_drift(cfg)
    block = Ensemble.of(cfg, spec, Partition.uniform(1.0, 128)).block(range(6))
    noises = []

    def recording(scheme, spec, noise, *rest, **kwargs):
        noises.append(noise)
        return run_scheme(scheme, spec, noise, *rest, **kwargs)

    monkeypatch.setattr(cli, "run_scheme", recording)
    out = tmp_path / "replay.csv"
    argv = ["simulate", "--drift", "example2", "--x0", "1.0", "1.0", "--hurst", "0.8",
            "--steps", "16", "--t-final", "1.0", "--seed", str(block.seeds[4]),
            "--out", str(out)]
    assert main(argv + ["--master-steps", "128"]) == 0
    assert np.array_equal(noises[0].values, block.values[4, ::8])
    states, _ = backward_euler_block(spec, block, np.array([1.0, 1.0]), ratio=8)
    rows = [line.split(",")[1:] for line in out.read_text().splitlines()[1:]]
    assert np.array_equal(np.array(rows, dtype=np.float64), states[4])
    # A direct 16-step draw from the same seed is another path.
    assert main(argv) == 0
    assert not np.array_equal(noises[1].values, noises[0].values)


def test_simulate_master_steps_must_nest_the_steps(tmp_path, capsys):
    rc = main(["simulate", "--drift", "cubic1d", "--x0", "1.0", "--steps", "16",
               "--master-steps", "100", "--t-final", "1", "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: --master-steps must be a positive multiple of --steps 16, got 100\n"


@pytest.mark.parametrize("flag", [["--method", "circulant"], ["--newton-tol", "1e-12"]])
def test_simulate_has_no_sampler_or_tolerance_flag(tmp_path, capsys, flag):
    out = tmp_path / "s.csv"
    rc = main(["simulate", "--drift", "cubic1d", "--x0", "1.0", "--steps", "16",
               "--t-final", "1", "--out", str(out)] + flag)
    assert rc == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


# --- rate subcommand ---------------------------------------------------------------

def test_rate_pipeline_writes_report_and_manifest(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG)
    outdir = tmp_path / "out"
    rc = main(["rate", "--config", str(cfg), "--out", str(outdir)])
    assert rc == 0
    report = (outdir / "rate_report.csv").read_text()
    lines = report.splitlines()
    assert lines[0] == "mesh,error,stderr,pairwise_order"
    assert len(lines) == 3
    assert lines[1].endswith(",")            # first row has no pairwise order
    assert not lines[2].endswith(",")
    meta = json.loads((outdir / "meta.json").read_text())
    assert meta["subcommand"] == "rate"
    assert "rate_report.csv" in " ".join(meta["outputs"])
    assert "timestamp" not in json.dumps(meta)
    stdout = capsys.readouterr().out
    assert "H=0.7" in stdout and "slope=" in stdout


def test_rate_multi_hurst_names_reports_by_hurst(tmp_path):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG.replace("hurst = 0.7", "hurst = 0.6 0.75"))
    outdir = tmp_path / "out"
    assert main(["rate", "--config", str(cfg), "--out", str(outdir),
                 "--mc-paths", "3"]) == 0
    assert (outdir / "rate_report_h0.6.csv").exists()
    assert (outdir / "rate_report_h0.75.csv").exists()
    assert not (outdir / "rate_report.csv").exists()


def test_rate_parse_stage_reports_each_issue(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("drift = example1\nhurst_values = 0.7\n")
    rc = main(["rate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err_lines = [l for l in capsys.readouterr().err.splitlines()
                 if l.startswith("config error:")]
    assert len(err_lines) >= 2               # unknown key and missing keys


def test_rate_semantic_stage_reports_each_issue(tmp_path, capsys):
    cfg = tmp_path / "sem.cfg"
    cfg.write_text("drift = nodrift\nx0 = 1.0\nt_final = -1.0\nhurst = 0.4\n"
                   "meshes = 2^-4\nmaster_mesh = 2^-7\nmc_paths = 0\nseed = 1\n")
    rc = main(["rate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err_lines = [l for l in capsys.readouterr().err.splitlines()
                 if l.startswith("config error:")]
    assert len(err_lines) >= 4
    joined = " ".join(err_lines)
    assert "nodrift" in joined
    assert "0.4" in joined


BAD_RATE_CFG = """\
colour = red
drift = example1
x0 = a b
t_final = abc
meshes = 2^-4 2^x
master_mesh = 2^-y
mc_paths = 1.5
seed = 3
sup_error = maybe
zero_noise = 1
linear_matrix = 1 x; 2 3
"""

BAD_LIMIT_CFG = """\
drift = linear
linear_matrix = 1 2; 3
x0 = 1.0
hurst = 0.7
t = one
n_values = 8 sixteen
mc_paths = 1e2
threads = two
zero_noise = yes
"""


@pytest.mark.parametrize("subcommand, text, expected", [
    ("rate", BAD_RATE_CFG, [
        "config error: unknown key 'colour'",
        "config error: key 'x0': cannot parse 'a b' as numbers",
        "config error: key 't_final': cannot parse 'abc' as a number",
        "config error: missing required key 'hurst'",
        "config error: key 'meshes': cannot parse '2^-4 2^x' as numbers",
        "config error: key 'master_mesh': cannot parse '2^-y' as a number",
        "config error: key 'mc_paths': cannot parse '1.5' as an integer",
        "config error: key 'sup_error': cannot parse 'maybe' as a boolean",
        "config error: key 'linear_matrix': cannot parse '1 x; 2 3'",
    ]),
    ("limit", BAD_LIMIT_CFG, [
        "config error: unknown key 'zero_noise'",
        "config error: key 't': cannot parse 'one' as a number",
        "config error: key 'n_values': cannot parse '8 sixteen'",
        "config error: key 'mc_paths': cannot parse '1e2' as an integer",
        "config error: missing required key 'seed'",
        "config error: key 'threads': cannot parse 'two' as an integer",
        "config error: key 'linear_matrix': matrix must be square, rows "
        "separated by ';'",
    ]),
])
def test_parse_stage_error_lines_are_pinned(tmp_path, capsys, subcommand, text,
                                            expected):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    rc = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == expected


@pytest.mark.parametrize("old, new, expected", [
    ("hurst = 0.7", "hurst = 0.7 0.6 0.70",
     "config error: Hurst value 0.7 is listed more than once"),
    ("meshes = 2^-4 2^-5", "meshes = 2^-4 2^-5 0.0625",
     "config error: mesh 0.0625 is listed more than once"),
])
def test_rate_rejects_repeated_values(tmp_path, capsys, old, new, expected):
    # A repeated Hurst value would write its report twice; a repeated mesh
    # would divide by log(1) in the pairwise order and the slope fit.
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG.replace(old, new))
    outdir = tmp_path / "o"
    rc = main(["rate", "--config", str(cfg), "--out", str(outdir)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [expected]
    assert not outdir.exists()


@pytest.mark.parametrize("subcommand, text, expected", [
    ("limit", LIMIT_CFG + "p = 2.5\n", "config error: p must lie in [1, 2), got 2.5"),
    ("limit", LIMIT_CFG.replace("x0 = 1.0", "x0 = 1.0 2.0"),
     "config error: x0 has 2 coordinates but drift 'linear' expects 1"),
    ("stability", STAB_CFG.replace("master_mesh = 0.0001", "master_mesh = 0"),
     "config error: master_mesh must be positive, got 0.0"),
    # A repeated scheme would write each of its rows twice.
    ("stability", STAB_CFG.replace("schemes = em cn bem", "schemes = bem cn bem"),
     "config error: scheme 'bem' is listed more than once"),
    ("rate", RATE_CFG.replace("hurst = 0.7", "hurst ="),
     "config error: at least one Hurst value is required"),
    # Every run samples by circulant embedding and solves to the default
    # tolerance; neither is a setting.
    ("rate", RATE_CFG + "sampler = circulant\n",
     "config error: unknown key 'sampler'"),
    ("limit", LIMIT_CFG + "newton_tol = 1e-12\n",
     "config error: unknown key 'newton_tol'"),
])
def test_config_errors_leave_no_output_directory(tmp_path, capsys, subcommand,
                                                 text, expected):
    # The files' writer makes the directory; a run that writes none makes none.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    outdir = tmp_path / "o"
    rc = main([subcommand, "--config", str(cfg), "--out", str(outdir)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [expected]
    assert not outdir.exists()


def test_rate_lists_every_bad_hurst_value(tmp_path, capsys):
    # The whole Hurst list is validated in one pass, not value by value.
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG.replace("hurst = 0.7", "hurst = 0.4 0.7 1.2"))
    outdir = tmp_path / "o"
    rc = main(["rate", "--config", str(cfg), "--out", str(outdir),
               "--bias-check"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: Hurst value 0.4 outside the supported range (0.5, 1)",
        "config error: Hurst value 1.2 outside the supported range (0.5, 1)",
    ]
    assert not outdir.exists()


def test_rate_missing_config_file_exits_one(tmp_path, capsys):
    rc = main(["rate", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err


def test_rate_bias_check_line(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG)
    rc = main(["rate", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--bias-check", "--mc-paths", "3"])
    assert rc == 0
    assert "reference bias" in capsys.readouterr().out


def test_rate_threads_env_and_flag(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["rate", "--config", str(cfg), "--out", str(out1)]) == 0
    monkeypatch.setenv("FBMSDE_THREADS", "2")
    assert main(["rate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "rate_report.csv").read_bytes() == \
        (out2 / "rate_report.csv").read_bytes()
    monkeypatch.setenv("FBMSDE_THREADS", "abc")
    rc = main(["rate", "--config", str(cfg), "--out", str(tmp_path / "o3")])
    assert rc == 2
    assert "FBMSDE_THREADS" in capsys.readouterr().err


def test_rate_manifest_is_identical_across_threads(tmp_path):
    # --threads 2 and 3 split the 10 paths into 2 and 3 blocks of paths,
    # for the implicit scheme and for the trapezoidal one.
    smoke = (CONFIGS / "example2_smoke.cfg").read_text()
    for scheme in ("bem", "cn"):
        cfg = tmp_path / f"{scheme}.cfg"
        cfg.write_text(smoke.replace("schemes = bem", f"schemes = {scheme}"))
        outputs = []
        for threads in ("1", "2", "3"):
            outdir = tmp_path / f"{scheme}-{threads}"
            assert main(["rate", "--config", str(cfg), "--mc-paths", "10",
                         "--threads", threads, "--out", str(outdir)]) == 0
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(outdir.glob("rate_report*.csv"))})
            outputs[-1]["meta.json"] = (outdir / "meta.json").read_bytes()
        assert len(outputs[0]) == 5
        assert outputs[0] == outputs[1] == outputs[2]
        manifest = json.loads(outputs[0]["meta.json"])
        assert manifest["config"]["schemes"] == [scheme]
        assert "threads" not in manifest["config"]
        stats = manifest["solve_stats"]
        assert sorted(stats) == ["0.6", "0.7", "0.8", "0.9"]
        for counts in stats.values():
            assert counts["fallbacks"] == 0
            assert counts["newton_iterations"] > 0


@pytest.mark.parametrize("sup", [False, True], ids=["terminal", "sup-error"])
def test_rate_outputs_do_not_depend_on_the_block_budget(tmp_path, monkeypatch,
                                                        capsys, sup):
    # Ten lanes in ten blocks of one lane, then in one block; the meshes'
    # ratios 16, 8 and 4 keep the reference at every 4th node for the sup
    # errors.
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG.replace("hurst = 0.7", "hurst = 0.6 0.8")
                   .replace("mc_paths = 4", "mc_paths = 5")
                   .replace("meshes = 2^-4 2^-5", "meshes = 2^-3 2^-4 2^-5"))
    runs = []
    for budget in (1, engine.BLOCK_BYTES):
        monkeypatch.setattr(engine, "BLOCK_BYTES", budget)
        outdir = tmp_path / f"b{budget}"
        argv = ["rate", "--config", str(cfg), "--threads", "1", "--out", str(outdir),
                "--bias-check"] + (["--sup-error"] if sup else [])
        assert main(argv) == 0
        runs.append(({p.name: p.read_bytes() for p in sorted(outdir.iterdir())},
                     capsys.readouterr().out))
    assert engine.block_count(10, 1, 129 * 2 * 8) == 1
    assert len(runs[0][0]) == 3
    assert runs[0][1].count("reference bias at finest mesh") == 2
    assert runs[0] == runs[1]


@pytest.mark.parametrize("subcommand, text", [
    ("rate", RATE_CFG.replace("master_mesh = 2^-7", "master_mesh = 0")),
    ("stability", STAB_CFG.replace("master_mesh = 0.0001", "master_mesh = 0")),
])
def test_zero_master_mesh_is_a_config_error(tmp_path, capsys, subcommand, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    rc = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == \
        "config error: master_mesh must be positive, got 0.0\n"


# --- limit subcommand ----------------------------------------------------------------

def test_limit_pipeline_reports_monotonicity(tmp_path, capsys):
    cfg = tmp_path / "limit.cfg"
    cfg.write_text(LIMIT_CFG)
    outdir = tmp_path / "out"
    rc = main(["limit", "--config", str(cfg), "--out", str(outdir)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "lp distance monotone decreasing:" in stdout
    lines = (outdir / "limit_comparison.csv").read_text().splitlines()
    assert lines[0] == "n,lp_distance,stderr,mean_abs_nZ,mean_abs_U"
    assert len(lines) == 3
    n_col = [int(l.split(",")[0]) for l in lines[1:]]
    assert n_col == [8, 16]


def test_planar_limit_table_is_identical_across_threads(tmp_path):
    # 130 paths run in one block on one worker, in blocks of 65 lanes on
    # two and of 44, 43 and 43 lanes on three.
    cfg = tmp_path / "planar.cfg"
    cfg.write_text("drift = planar_cubic\nx0 = 1.0 1.0\nhurst = 0.7\nt = 1.0\n"
                   "n_values = 8 16\nmc_paths = 130\nmaster_factor = 4\n"
                   "seed = 20250800\n")
    tables, manifests = set(), set()
    for threads in (1, 2, 3):
        outdir = tmp_path / f"t{threads}"
        assert main(["limit", "--config", str(cfg), "--out", str(outdir),
                     "--threads", str(threads)]) == 0
        tables.add((outdir / "limit_comparison.csv").read_bytes())
        manifests.add((outdir / "meta.json").read_bytes())
    assert len(tables) == 1
    # The solve counts, as rate writes them, do not depend on the blocks.
    assert len(manifests) == 1
    stats = json.loads(manifests.pop())["solve_stats"]
    assert list(stats) == ["0.7"]
    assert stats["0.7"]["fallbacks"] == 0
    assert stats["0.7"]["newton_iterations"] > 0


def test_limit_rejects_p_out_of_range(tmp_path, capsys):
    cfg = tmp_path / "limit.cfg"
    cfg.write_text(LIMIT_CFG + "p = 2.5\n")
    rc = main(["limit", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "p" in capsys.readouterr().err


def test_limit_reports_every_semantic_error_at_once(tmp_path, capsys):
    cfg = tmp_path / "limit.cfg"
    cfg.write_text(LIMIT_CFG.replace("x0 = 1.0", "x0 = 1.0 2.0")
                   .replace("n_values = 8 16", "n_values = 12 16") + "p = 0.5\n")
    rc = main(["limit", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--threads", "0"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: x0 has 2 coordinates but drift 'linear' expects 1",
        "config error: p must lie in [1, 2), got 0.5",
        "config error: n = 12 does not divide the master step count 128",
        "config error: threads must be >= 1, got 0",
    ]


@pytest.mark.parametrize("flag, key", [(["--threads", "-3"], ""),
                                       ([], "threads = 0\n")])
def test_limit_rejects_worker_count_below_one(tmp_path, capsys, flag, key):
    cfg = tmp_path / "limit.cfg"
    cfg.write_text(LIMIT_CFG + key)
    rc = main(["limit", "--config", str(cfg), "--out", str(tmp_path / "o")] + flag)
    assert rc == 2
    got = -3 if flag else 0
    assert capsys.readouterr().err == f"config error: threads must be >= 1, got {got}\n"


def test_limit_step_counts_must_be_whole(tmp_path, capsys):
    cfg = tmp_path / "limit.cfg"
    cfg.write_text(LIMIT_CFG.replace("n_values = 8 16", "n_values = 8 8.6"))
    rc = main(["limit", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == \
        "config error: key 'n_values': '8.6' is not a whole number of steps\n"
    mapping = parse_config_text(LIMIT_CFG.replace("n_values = 8 16",
                                                  "n_values = 2^3 2**4 32"))
    assert limit_params_from_mapping(mapping).n_values == (8, 16, 32)


# --- stability subcommand ---------------------------------------------------------------

def test_stability_pipeline_writes_table(tmp_path):
    cfg = tmp_path / "stab.cfg"
    cfg.write_text(STAB_CFG)
    outdir = tmp_path / "out"
    rc = main(["stability", "--config", str(cfg), "--out", str(outdir)])
    assert rc == 0
    lines = (outdir / "stability.csv").read_text().splitlines()
    assert lines[0] == "scheme,T,value"
    schemes = {l.split(",")[0] for l in lines[1:]}
    assert schemes == {"em", "cn", "bem", "reference"}
    assert len(lines) == 1 + 4 * 9


@pytest.mark.parametrize("subcommand, text", [("rate", RATE_CFG),
                                               ("stability", STAB_CFG),
                                               ("limit", LIMIT_CFG)],
                         ids=["rate", "stability", "limit"])
def test_manifests_do_not_depend_on_where_a_run_writes(tmp_path, subcommand, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    manifests = []
    for outdir in (tmp_path / "a", tmp_path / "a much longer" / "output directory"):
        assert main([subcommand, "--config", str(cfg), "--out", str(outdir)]) == 0
        manifests.append((outdir / "meta.json").read_bytes())
    assert manifests[0] == manifests[1]
    meta = json.loads(manifests[0])
    assert "out" not in meta["config"]
    assert all(os.sep not in name for name in meta["outputs"])


@pytest.mark.parametrize("subcommand, text", [("stability", STAB_CFG),
                                               ("limit", LIMIT_CFG)])
def test_manifests_leave_out_the_worker_count(tmp_path, subcommand, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    manifests = []
    for threads in ("1", "2"):
        assert main([subcommand, "--config", str(cfg), "--threads", threads,
                     "--out", str(tmp_path / "out")]) == 0
        manifests.append((tmp_path / "out" / "meta.json").read_bytes())
    assert manifests[0] == manifests[1]
    assert "threads" not in json.loads(manifests[0])["config"]


def test_stability_rejects_multi_mesh_config(tmp_path, capsys):
    cfg = tmp_path / "stab.cfg"
    cfg.write_text(STAB_CFG.replace("meshes = 0.08", "meshes = 0.08 0.04"))
    rc = main(["stability", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_stability_rejects_multiple_paths(tmp_path, capsys):
    cfg = tmp_path / "stab.cfg"
    cfg.write_text(STAB_CFG)
    rc = main(["stability", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--mc-paths", "100"])
    assert rc == 2
    assert "stability runs use exactly one noise path" in capsys.readouterr().err


# --- packaging glue ----------------------------------------------------------------------

def test_module_entry_point_reports_version():
    proc = subprocess.run([sys.executable, "-m", "fbmsde", "--version"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout
