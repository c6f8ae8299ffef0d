"""Experiment harness: ``pieces-lab <subcommand> --config <path>``.

Configs are UTF-8 ``key = value`` files with ``[section]`` headers; unknown
keys are hard errors.  Every run writes ``<out>/<subcommand>.csv`` plus a
JSON summary embedding the config echo, its sha256 hash, the seed list, the
code version (and git describe when available), and wall time.  Outputs are
a pure function of (config, seeds); replica rows are ordered by seed.

Exit codes: 0 ok, 2 config error, 3 numeric failure, 4 acceptance violation
(only with --check).
"""

import argparse
import configparser
import csv
import hashlib
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .disorder import max_piece_length, sample_pieces
from .manybody import exact_ground_state_small, solve_block
from .optstate import (asymptotics_check, banded_fraction_prediction,
                       banded_particle_count, cross_piece_bound_check,
                       neighbor_energy_ladder, subadditivity_check)
from .potential import potential_from_spec
from .rdm import factorized_rdm, rdm1, rdm2, trace_norm_distance
from .spectrum import (counting_function, free_energy_per_particle_empirical,
                       free_energy_per_particle_theoretical, ids_theoretical)
from .twobody import astar_xstar, gamma_via_K, gamma_via_fit, solve_two_body

# key: (section, type, default), in the order of the summary's config echo
KNOWN_KEYS = {
    "L": ("model", float, 1e5),
    "mu": ("model", float, 1.0),
    "rho": ("model", float, 0.1),
    "n": ("model", int, None),
    "potential": ("model", str, "box height=1 radius=1"),
    "gamma_source": ("model", str, "kernel"),
    "gamma": ("model", float, None),
    "M": ("numeric", int, 24),
    "rtol": ("numeric", float, 1e-6),
    "ell_list": ("numeric", str, "20,40,80"),
    "grid_points": ("numeric", int, 50),
    "e_max": ("numeric", float, 3.0),
    "seed": ("run", int, 0),
    "replicas": ("run", int, 1),
    "out": ("run", str, "out"),
}


class ConfigError(Exception):
    pass


def load_config(path):
    """Parse and validate a config file into a flat dict."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (L vs l)
    text = Path(path).read_text(encoding="utf-8")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    cfg = {key: default for key, (_, _, default) in KNOWN_KEYS.items()}
    given, unknown = {}, []
    for section in parser.sections():
        if section not in {s for s, _, _ in KNOWN_KEYS.values()}:
            unknown.append(f"[{section}]")
            continue
        for key, value in parser.items(section):
            if key not in KNOWN_KEYS or KNOWN_KEYS[key][0] != section:
                unknown.append(f"{section}.{key}")
                continue
            given[key] = value
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
    for key, value in given.items():
        section, kind, _ = KNOWN_KEYS[key]
        try:
            cfg[key] = kind(value)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: {exc}") from exc
    positive = ("L", "mu", "rho", "rtol", "e_max")
    if not all(0 < cfg[k] < math.inf for k in positive):
        raise ConfigError(", ".join(positive) + " must be positive and finite")
    if cfg["M"] < 4:
        raise ConfigError("M must be at least 4")
    if cfg["grid_points"] < 1 or (cfg["n"] is not None and cfg["n"] < 1):
        raise ConfigError("grid_points and n (when given) must be >= 1")
    _check_run(cfg)
    if cfg["gamma_source"] not in ("fit", "kernel", "given"):
        raise ConfigError("gamma_source must be fit, kernel or given")
    if cfg["gamma_source"] == "given" and cfg["gamma"] is None:
        raise ConfigError("gamma_source=given requires a gamma value")
    if cfg["gamma"] is not None and not 0 <= cfg["gamma"] < math.inf:
        raise ConfigError("gamma must be >= 0 and finite")
    try:
        cfg["_ells"] = [float(t) for t in cfg["ell_list"].split(",")]
    except ValueError as exc:
        raise ConfigError(f"numeric.ell_list: {exc}") from exc
    if not all(ell > 0 and math.isfinite(ell) for ell in cfg["_ells"]):
        raise ConfigError("ell_list entries must be positive and finite")
    cfg["_text"] = text
    return cfg


def _check_run(cfg):
    """The checks of the [run] values that --seed and --replicas can
    override."""
    if cfg["seed"] < 0:
        raise ConfigError("seed must be >= 0")
    if cfg["replicas"] < 1:
        raise ConfigError("replicas must be >= 1")


def _potential(cfg):
    spec = cfg["potential"].strip()
    if spec in ("none", "0"):
        return None
    try:
        return potential_from_spec(spec)
    except ValueError as exc:
        raise ConfigError(f"potential: {exc}") from exc


def _required_potential(cfg, subcommand):
    """The configured potential of a subcommand that has no meaning
    without one (potential = none is a config error)."""
    U = _potential(cfg)
    if U is None:
        raise ConfigError(f"{subcommand} requires a potential")
    return U


def _gamma(cfg, U):
    if cfg["gamma_source"] == "given":
        return float(cfg["gamma"])
    if U is None:
        return 0.0
    if cfg["gamma_source"] == "kernel":
        return gamma_via_K(U)
    return gamma_via_fit(U, _fit_ells(cfg))


def _fit_ells(cfg):
    """The ell_list of a gamma fit, which needs three distinct lengths or
    more."""
    if len(set(cfg["_ells"])) < 3:
        raise ConfigError(
            "a gamma fit needs at least 3 ell_list values that differ")
    return cfg["_ells"]


def _seeds(cfg):
    return [cfg["seed"] + i for i in range(cfg["replicas"])]


def _git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None
    except OSError:
        return None


def write_artifacts(name, out_dir, header, rows, cfg, seeds, t0, extra=None):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    summary = {
        "subcommand": name,
        "config": {k: v for k, v in cfg.items() if not k.startswith("_")},
        "config_sha256": hashlib.sha256(cfg["_text"].encode()).hexdigest(),
        "seeds": seeds,
        "version": __version__,
        "git_describe": _git_describe(),
        "wall_time_s": round(time.time() - t0, 3),
    }
    if extra:
        summary.update(extra)
    with open(out / f"{name}_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, default=float)
    return csv_path


# ---------------------------------------------------------------------------
# subcommands: each returns (header, rows, extra_summary, check_ok)


def run_pieces_stats(cfg):
    rows = []
    for seed in _seeds(cfg):
        pc = sample_pieces(seed, cfg["L"], cfg["mu"])
        rows.append([seed, pc.n_pieces, float(pc.lengths.mean()),
                     max_piece_length(pc)])
    return (["seed", "n_pieces", "mean_length", "max_length"], rows, {}, True)


def run_ids(cfg):
    if cfg["e_max"] < 0.05:
        raise ConfigError("ids needs e_max >= 0.05, the first grid energy")
    grid = np.linspace(0.05, cfg["e_max"], cfg["grid_points"])
    rows, worst = [], []
    for seed in _seeds(cfg):
        pc = sample_pieces(seed, cfg["L"], cfg["mu"])
        emp = np.array([counting_function(pc, E) for E in grid])
        theo = ids_theoretical(grid, cfg["mu"])
        diff = np.abs(emp - theo)
        worst.append(float(diff.max()))
        for E, e, t, d in zip(grid, emp, theo, diff):
            rows.append([seed, float(E), float(e), float(t), float(d)])
    ok = sum(w <= 0.01 for w in worst) >= max(1, len(worst) - 1)
    return (["seed", "energy", "empirical", "theoretical", "absdiff"], rows,
            {"max_absdiff_per_seed": worst}, ok)


def run_free_energy(cfg):
    theo = free_energy_per_particle_theoretical(cfg["rho"], cfg["mu"])
    rows = []
    for seed in _seeds(cfg):
        pc = sample_pieces(seed, cfg["L"], cfg["mu"])
        n = round(cfg["rho"] * pc.L) if cfg["n"] is None else cfg["n"]
        emp = free_energy_per_particle_empirical(pc, n)
        rows.append([seed, emp, theo, abs(emp - theo) / theo])
    mean_emp = float(np.mean([r[1] for r in rows]))
    ok = abs(mean_emp - theo) / theo <= 0.02
    return (["seed", "empirical", "theoretical", "reldiff"], rows,
            {"mean_empirical": mean_emp, "theoretical": theo}, ok)


def run_two_body(cfg):
    U = _required_potential(cfg, "two-body")
    rows = []
    for ell in cfg["_ells"]:
        sol = solve_two_body(U, ell, M=cfg["M"], rtol=cfg["rtol"])
        rows.append([ell, sol.energy, sol.energy * ell ** 2,
                     sol.energy * ell ** 3 - 5 * np.pi ** 2 * ell])
    lead = rows[-1][2]
    ok = abs(lead - 5 * np.pi ** 2) / (5 * np.pi ** 2) <= 0.01
    return (["ell", "energy", "energy_ell2", "excess_ell3"], rows,
            {"leading_energy_ell2": lead}, ok)


def run_gamma(cfg):
    U = _potential(cfg)
    gf = gamma_via_fit(U, _fit_ells(cfg)) if U is not None else 0.0
    gk = gamma_via_K(U) if U is not None else 0.0
    A, x = astar_xstar(gk, cfg["mu"])
    rows = [[gf, gk, x, A, x]]
    ok = gk == 0 or abs(gf - gk) / gk <= 0.05
    return (["gamma_fit", "gamma_kernel", "gamma_star", "A_star", "x_star"],
            rows, {}, ok)


def run_psi_opt(cfg):
    U = _potential(cfg)
    gamma = _gamma(cfg, U)
    pred = banded_fraction_prediction(cfg["rho"], gamma, cfg["mu"])
    rows, fracs, ratios = [], [], []
    for seed in _seeds(cfg):
        pc = sample_pieces(seed, cfg["L"], cfg["mu"])
        n = round(cfg["rho"] * pc.L)
        frac = banded_particle_count(pc, cfg["rho"], gamma) / n
        rep = asymptotics_check(pc, cfg["rho"], U, gamma)
        rows.append([seed, frac, pred, rep["ratio"]])
        fracs.append(frac)
        if rep["ratio"] is not None:
            ratios.append(rep["ratio"])
    mean_frac = float(np.mean(fracs))
    mean_ratio = float(np.mean(ratios)) if ratios else None
    ok = abs(mean_frac - pred) <= 5 * cfg["rho"] ** 3
    if mean_ratio is not None:
        ok = ok and 0.5 <= mean_ratio <= 1.5
    return (["seed", "banded_fraction", "prediction", "energy_ratio"], rows,
            {"gamma": gamma, "mean_banded_fraction": mean_frac,
             "mean_energy_ratio": mean_ratio}, ok)


def _small_instance(seed):
    """Two or three modest pieces at close gaps, deterministic in seed."""
    rng = np.random.Generator(np.random.Philox(seed))
    k = int(rng.integers(2, 4))
    lengths = rng.uniform(4.0, 9.0, size=k)
    gaps = rng.uniform(0.3, 2.0, size=k)
    lefts, x = [], 0.0
    for ell, gap in zip(lengths, gaps):
        lefts.append(x)
        x += ell + gap
    return [(left, ell) for left, ell in zip(lefts, lengths)]


def run_exact_small(cfg):
    U = _potential(cfg)
    rows = []
    for seed in _seeds(cfg):
        intervals = _small_instance(seed)[:2]
        energy, Q, _, gap = exact_ground_state_small(
            intervals, 2, U, M=cfg["M"])
        rows.append([seed, energy, "|".join(map(str, Q)), gap])
    return (["seed", "energy", "occupation", "gap"], rows, {}, True)


def run_rdm(cfg):
    U = _required_potential(cfg, "rdm")
    gap = U.effective_radius(1e-12) + 1.0
    rows = []
    ok = True
    for seed in _seeds(cfg):
        rng = np.random.Generator(np.random.Philox(seed))
        ell = float(rng.uniform(6.0, 12.0))
        sol = solve_two_body(U, ell, M=12)
        tr1, tr2 = rdm1(sol).trace, rdm2(sol).trace
        # a pair and a single on two pieces beyond U's range: the (2, 1) ground
        # state is the wedge of the (2, 0) and (0, 1) ones, modes piece by piece
        far = [(0.0, ell), (ell + gap, float(rng.uniform(6.0, 12.0)))]
        pair, single, joint = (solve_block(far, Q, U, M=8, n_states=1)[1][0]
                               for Q in ((2, 0), (0, 1), (2, 1)))
        err = max(trace_norm_distance(g.matrix, f.matrix) for g, f in
                  zip((rdm1(joint), rdm2(joint)), factorized_rdm([pair, single])))
        row_ok = (abs(tr1 - 2.0) < 1e-10 and abs(tr2 - 1.0) < 1e-10
                  and err < 1e-9)
        ok = ok and row_ok
        rows.append([seed, ell, tr1, tr2, err, int(row_ok)])
    return (["seed", "ell", "trace_rdm1", "trace_rdm2",
             "factorization_error", "ok"], rows, {}, ok)


def run_subadd(cfg):
    U = _required_potential(cfg, "subadd")
    rows = []
    ok = True
    for seed in _seeds(cfg):
        rng = np.random.Generator(np.random.Philox(seed))
        i1 = _small_instance(2 * seed)[:2]
        i2 = [(left + i1[-1][0] + i1[-1][1] + 50.0, ell)
              for left, ell in _small_instance(2 * seed + 1)[:2]]
        n1 = int(rng.integers(1, 3))
        n2 = int(rng.integers(1, 3))
        rep = subadditivity_check(i1, n1, i2, n2, U, M=8)
        row_ok = rep["upper_ok"]
        ok = ok and row_ok
        rows.append([seed, n1, n2, rep["E_union"], rep["E_1"], rep["E_2"],
                     rep["slack"], int(row_ok)])
    return (["seed", "n1", "n2", "E_union", "E_1", "E_2", "slack", "ok"],
            rows, {}, ok)


def run_bounds(cfg):
    U = _required_potential(cfg, "bounds")
    rows = []
    ok = True
    for which in ("11far", "11close", "12", "12close", "22"):
        for ell1 in (8.0, 12.0, 16.0):
            for ell2 in (8.0, 12.0, 16.0):
                for a in (1.5, 2.5, 4.0):
                    rep = cross_piece_bound_check(U, ell1, ell2, a, which)
                    ok = ok and rep["ok"]
                    rows.append([which, ell1, ell2, a, rep["lhs"],
                                 rep["constant"] * rep["rhs_shape"],
                                 int(rep["ok"])])
    ladder = neighbor_energy_ladder(U)
    return (["which", "ell1", "ell2", "a", "lhs", "rhs", "ok"], rows,
            {"neighbor_decay_order": ladder["fitted_order"]},
            ok and ladder["fitted_order"] <= -4.0)


SUBCOMMANDS = {
    "pieces-stats": run_pieces_stats,
    "ids": run_ids,
    "free-energy": run_free_energy,
    "two-body": run_two_body,
    "gamma": run_gamma,
    "psi-opt": run_psi_opt,
    "exact-small": run_exact_small,
    "rdm": run_rdm,
    "subadd": run_subadd,
    "bounds": run_bounds,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pieces-lab",
        description="Disorder-averaged experiments for the pieces laboratory")
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, help="override base seed")
    parser.add_argument("--replicas", type=int, help="override replica count")
    parser.add_argument("--out", help="override output directory")
    parser.add_argument("--check", action="store_true",
                        help="exit 4 if the subcommand's acceptance "
                             "condition fails")
    args = parser.parse_args(argv)

    t0 = time.time()
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.replicas is not None:
            cfg["replicas"] = args.replicas
        if args.out is not None:
            cfg["out"] = args.out
        _check_run(cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        header, rows, extra, ok = SUBCOMMANDS[args.subcommand](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3

    extra = dict(extra)
    extra["check_ok"] = bool(ok)
    path = write_artifacts(args.subcommand, cfg["out"], header, rows, cfg,
                           _seeds(cfg), t0, extra)
    print(f"wrote {path}")
    if args.check and not ok:
        print("acceptance check failed", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
