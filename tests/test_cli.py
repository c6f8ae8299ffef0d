import json
import re
from pathlib import Path

import numpy as np
import pytest

from pieces_lab import cli, rdm
from pieces_lab.cli import ConfigError, load_config, main

BASE = """
[model]
L = 5000
mu = 1.0
rho = 0.1
potential = box height=1 radius=1

[numeric]
M = 10
ell_list = 10,20

[run]
seed = 3
replicas = 2
"""


def _cfg(tmp_path, text=BASE):
    p = tmp_path / "cfg.ini"
    p.write_text(text)
    return p


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config(_cfg(tmp_path))
    assert cfg["L"] == 5000.0 and cfg["seed"] == 3 and cfg["replicas"] == 2
    assert cfg["gamma_source"] == "kernel"


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(_cfg(tmp_path, BASE + "\nwidth = 2\n"))
    with pytest.raises(ConfigError, match="run.parallel"):
        load_config(_cfg(tmp_path, BASE + "\nparallel = 2\n"))
    with pytest.raises(ConfigError, match="unknown"):
        load_config(_cfg(tmp_path, BASE + "\n[nosuch]\nx = 1\n"))
    # keys that no subcommand reads are not accepted either
    for key in ("B", "alpha", "instances"):
        text = BASE.replace("ell_list = 10,20", f"ell_list = 10,20\n{key} = 1")
        with pytest.raises(ConfigError, match=f"numeric.{key}"):
            load_config(_cfg(tmp_path, text))


def test_invalid_values_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_cfg(tmp_path, BASE.replace("L = 5000", "L = -1")))
    with pytest.raises(ConfigError):
        load_config(_cfg(tmp_path,
                         BASE + "gamma_source = given\n"))


@pytest.mark.parametrize("old,new,where", [
    ("L = 5000", "L = 1e5x", "model.L"),
    ("replicas = 2", "replicas = two", "run.replicas"),
])
def test_malformed_number_exit_code(tmp_path, capsys, old, new, where):
    cfg = _cfg(tmp_path, BASE.replace(old, new))
    with pytest.raises(ConfigError, match=where):
        load_config(cfg)
    assert main(["pieces-stats", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {where}: " in capsys.readouterr().err


def test_nan_density_rejected(tmp_path):
    cfg = _cfg(tmp_path, BASE.replace("rho = 0.1", "rho = nan"))
    with pytest.raises(ConfigError, match="must be positive"):
        load_config(cfg)
    assert main(["free-energy", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("old,new,subcommand", [
    ("L = 5000", "L = inf", "pieces-stats"),
    ("mu = 1.0", "mu = inf", "pieces-stats"),
    ("rho = 0.1", "rho = inf", "free-energy"),
])
def test_infinite_value_rejected(tmp_path, old, new, subcommand):
    cfg = _cfg(tmp_path, BASE.replace(old, new))
    with pytest.raises(ConfigError, match="must be positive and finite"):
        load_config(cfg)
    assert main([subcommand, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2


def test_missing_config_exit_code(tmp_path):
    assert main(["ids", "--config", str(tmp_path / "nope.ini")]) == 2


def test_pieces_stats_artifacts(tmp_path):
    out = tmp_path / "out"
    rc = main(["pieces-stats", "--config", str(_cfg(tmp_path)),
               "--out", str(out)])
    assert rc == 0
    rows = (out / "pieces-stats.csv").read_text().strip().splitlines()
    assert rows[0] == "seed,n_pieces,mean_length,max_length"
    assert len(rows) == 3  # header + 2 replicas, ordered by seed
    assert rows[1].startswith("3,") and rows[2].startswith("4,")
    summary = json.loads((out / "pieces-stats_summary.json").read_text())
    assert summary["seeds"] == [3, 4]
    assert len(summary["config_sha256"]) == 64
    assert summary["version"]


def test_replay_byte_identical(tmp_path):
    cfg = _cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["ids", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["ids", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "ids.csv").read_bytes() == (out2 / "ids.csv").read_bytes()


def test_gamma_zero_potential(tmp_path):
    cfg = _cfg(tmp_path, BASE.replace("potential = box height=1 radius=1",
                                      "potential = none"))
    out = tmp_path / "out"
    assert main(["gamma", "--config", str(cfg), "--out", str(out)]) == 0
    row = (out / "gamma.csv").read_text().strip().splitlines()[1]
    assert [float(v) for v in row.split(",")] == [0.0, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("subcommand,source", [("gamma", "kernel"),
                                               ("psi-opt", "fit")])
def test_gamma_fit_needs_three_lengths(tmp_path, capsys, subcommand, source):
    # both runs fit gamma on the box ladder (gamma fits whatever the
    # source), and two lengths make no fit
    cfg = _cfg(tmp_path, BASE.replace(
        "rho = 0.1", f"rho = 0.1\ngamma_source = {source}"))
    assert main([subcommand, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert "at least 3 ell_list values" in capsys.readouterr().err


def test_gamma_fit_needs_three_distinct_lengths(tmp_path, capsys):
    cfg = _cfg(tmp_path, BASE.replace("ell_list = 10,20",
                                      "ell_list = 20,20,20"))
    out = tmp_path / "out"
    assert main(["gamma", "--config", str(cfg), "--out", str(out)]) == 2
    assert "at least 3 ell_list values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ell_list", ["10,abc", "10,-20,40", "10,0,40",
                                      "10,inf,40"])
def test_malformed_ell_list_rejected(tmp_path, ell_list):
    cfg = _cfg(tmp_path, BASE.replace("ell_list = 10,20",
                                      f"ell_list = {ell_list}"))
    with pytest.raises(ConfigError, match="ell_list"):
        load_config(cfg)
    assert main(["gamma", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("subcommand", ["two-body", "rdm", "subadd", "bounds"])
def test_potential_required(tmp_path, capsys, subcommand):
    cfg = _cfg(tmp_path, BASE.replace("potential = box height=1 radius=1",
                                      "potential = none"))
    assert main([subcommand, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"{subcommand} requires a potential" in capsys.readouterr().err


@pytest.mark.parametrize("replicas", ["0", "-1"])
def test_replicas_override_validated(tmp_path, capsys, replicas):
    out = tmp_path / "out"
    assert main(["free-energy", "--config", str(_cfg(tmp_path)),
                 "--replicas", replicas, "--out", str(out)]) == 2
    assert "config error: replicas must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["pieces-stats", "exact-small"])
@pytest.mark.parametrize("where", ["option", "config"])
def test_negative_seed_is_config_error(tmp_path, capsys, subcommand, where):
    text, override = BASE, []
    if where == "config":
        text = BASE.replace("seed = 3", "seed = -5")
    else:
        override = ["--seed", "-5"]
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(_cfg(tmp_path, text)),
                 *override, "--out", str(out)]) == 2
    assert "config error: seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_seed_override(tmp_path):
    out = tmp_path / "out"
    rc = main(["pieces-stats", "--config", str(_cfg(tmp_path)),
               "--seed", "11", "--replicas", "1", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "pieces-stats_summary.json").read_text())
    assert summary["seeds"] == [11]


def test_malformed_potential_exit_code(tmp_path):
    for spec in ("box height", "box height=abc", "wall height=1"):
        cfg = _cfg(tmp_path, BASE.replace("box height=1 radius=1", spec))
        assert main(["two-body", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("spec", [
    "box heigth=2 radius=0.5", "exp rate=2 radius=3", "box height=2 height=3",
    *(f"{family} {field}={value}" for family, fields in (
        ("box", ("height", "radius")), ("exp", ("amplitude", "rate")),
        ("poly", ("amplitude", "exponent", "scale")))
      for field in fields for value in ("nan", "inf"))])
def test_bad_potential_parameter_is_config_error(tmp_path, capsys, spec):
    # a misspelt or repeated key, or a parameter that is not finite
    cfg = _cfg(tmp_path, BASE.replace("box height=1 radius=1", spec))
    out = tmp_path / "out"
    assert main(["two-body", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: potential: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line,subcommand", [
    ("n = 0", "free-energy"), ("n = -4", "free-energy"), ("M = 3", "two-body"),
    ("rtol = 0", "two-body"), ("rtol = -1e-6", "two-body"),
    ("rtol = nan", "two-body"), ("rtol = inf", "two-body"),
    ("grid_points = 0", "ids"), ("e_max = nan", "ids"), ("e_max = inf", "ids"),
    ("e_max = -1", "ids"),
])
def test_numeric_and_model_values_checked(tmp_path, capsys, line, subcommand):
    # n = 0 was read as "not given"; the others failed inside the run
    # (exit 3), ran on (e_max = -1), or would grow the two-body basis to
    # its cap (rtol not positive)
    key = line.split()[0]
    section = "[model]\n" if key == "n" else "[numeric]\n"
    text = re.sub(rf"^{key} = .*\n", "", BASE, flags=re.M)
    cfg = _cfg(tmp_path, text.replace(section, section + line + "\n"))
    with pytest.raises(ConfigError):
        load_config(cfg)
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: " in capsys.readouterr().err
    assert not out.exists()


def test_check_mode_free_energy(tmp_path):
    # L = 5000 at rho = 0.1 over 2 seeds misses the 2% band (mean relative
    # difference about 2.7%, exit 4); what is checked is that --check
    # reports its verdict both in the exit code and in the summary
    out = tmp_path / "out"
    rc = main(["free-energy", "--config", str(_cfg(tmp_path)),
               "--check", "--out", str(out)])
    assert rc in (0, 4)
    summary = json.loads((out / "free-energy_summary.json").read_text())
    assert summary["check_ok"] == (rc == 0)


def test_dimension_cap_exit_code(tmp_path):
    # the first stage at ell = 2000 is over the two-body dimension cap
    cfg = _cfg(tmp_path, BASE.replace("ell_list = 10,20", "ell_list = 2000"))
    assert main(["two-body", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("gamma", ["nan", "inf", "-5"])
def test_given_gamma_checked(tmp_path, capsys, gamma):
    # nan and inf ran to exit 0 (nan ratios in the CSV), -5 exited 3
    text = BASE.replace("potential = ", f"gamma_source = given\ngamma = {gamma}\n"
                        "potential = ")
    cfg = _cfg(tmp_path, text)
    with pytest.raises(ConfigError, match="gamma"):
        load_config(cfg)
    out = tmp_path / "out"
    assert main(["psi-opt", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: gamma" in capsys.readouterr().err
    assert not out.exists()


def test_ids_grid_must_ascend(tmp_path, capsys):
    # the grid starts at 0.05: a smaller e_max wrote a descending grid
    cfg = _cfg(tmp_path, BASE.replace("M = 10", "M = 10\ne_max = 0.01"))
    out = tmp_path / "out"
    assert main(["ids", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: ids needs e_max >= 0.05" in capsys.readouterr().err
    assert not out.exists()


def test_rdm_check_detects_missing_cross_term(tmp_path, monkeypatch):
    # the check compares the (2, 1) ground state of a pair and a single on
    # two distant pieces with the wedge of the two; a factorization that
    # drops the cross-substate term A(gamma) - sum_j A(gamma_j) must fail it
    def without_cross_term(substates):
        g1, g2 = rdm.factorized_rdm(substates)
        at = {pq: k for k, pq in enumerate(g2.modes)}
        M2 = np.zeros_like(g2.matrix)
        for s in substates:
            d = rdm.rdm2(s)
            idx = [at[pq] for pq in d.modes]
            M2[np.ix_(idx, idx)] += d.matrix
        return g1, rdm.DensityMatrix(g2.modes, M2)

    cfg = str(_cfg(tmp_path))
    assert main(["rdm", "--config", cfg, "--check", "--out", str(tmp_path / "a")]) == 0
    monkeypatch.setattr(cli, "factorized_rdm", without_cross_term)
    assert main(["rdm", "--config", cfg, "--check", "--out", str(tmp_path / "b")]) == 4
