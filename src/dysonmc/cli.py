"""Command-line entry point.

Every subcommand reads one JSON model file, runs an experiment, writes
machine-readable artifacts into --out, and exits 0 when all declared
checks pass, 1 when a check fails, 2 on configuration errors, 3 on
numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np
import scipy.stats

from ._rng import child_seed
from .errors import InputError, ModelError, SolverError
from .io import (load_model_file, write_csv, write_report, write_sample_cmat,
                 write_solution_cmat)
from .limit import (LimitGrid, classical_locations, consistency_check,
                    density_curve)
from .mde import KernelView, decay_profile, solve_finite, stability_probe
from .profiles import CorrelationProfile, FilterSpec, check_positivity, validate_profile
from .sampling import goe_sample, ou_evolve, sample, sample_gaussian_exact
from .verify import delocalization_stats, eigen, law_check, ou_flow_check, unfold_gaps

SUBCOMMANDS = ("validate", "density", "solve-n", "sample", "consistency",
               "verify-global", "verify-local", "delocalization", "spacing",
               "ou-flow")


# ---------------------------------------------------------------------------
# config plumbing

def _energy_grid(cfg) -> np.ndarray:
    if isinstance(cfg, dict):
        try:
            return np.linspace(float(cfg["start"]), float(cfg["stop"]),
                               int(cfg["count"]))
        except KeyError as err:
            raise InputError(f"energy window needs start/stop/count, missing {err}") from None
    return np.asarray([float(v) for v in cfg], dtype=float)


def _n_list(experiment) -> list:
    n = experiment.get("N")
    if n is None:
        raise InputError("experiment section must declare N")
    if isinstance(n, (list, tuple)):
        return [int(v) for v in n]
    return [int(n)]


def _z_list(experiment, N=None) -> list:
    if "z" in experiment:
        return [complex(float(p[0]), float(p[1])) for p in experiment["z"]]
    if "energies" not in experiment:
        raise InputError("experiment section must declare 'z' pairs or 'energies'")
    E = _energy_grid(experiment["energies"])
    if "eta_exponent" in experiment:
        if N is None:
            raise InputError("eta_exponent needs a finite matrix size N")
        eta = float(N) ** float(experiment["eta_exponent"])
    elif "eta" in experiment:
        eta = float(experiment["eta"])
    else:
        raise InputError("energies need an 'eta' or 'eta_exponent'")
    return [complex(e, eta) for e in E]


def _grid_for(profile, solver) -> LimitGrid:
    return LimitGrid.for_profile(profile, n_theta=int(solver["n_theta"]),
                                 n_s=solver["n_s"], K_trunc=solver["K_trunc"])


def _limit_tol(solver) -> float:
    return float(solver.get("limit_tol", 1e-10))


def _curve_for(profile, experiment, solver):
    cfg = experiment.get("curve", {})
    E = _energy_grid(cfg.get("energies", {"start": -3.5, "stop": 3.5, "count": 141}))
    eta0 = float(cfg.get("eta0", 1e-3))
    return density_curve(profile, E, eta0, grid=_grid_for(profile, solver),
                         tol=_limit_tol(solver))


def _draw(model, N, s):
    if isinstance(model, FilterSpec):
        return sample(model, N, s)
    return sample_gaussian_exact(model, N, s)


def _asdict(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: _asdict(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_asdict(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# subcommands

def _cmd_validate(ctx) -> int:
    report = validate_profile(ctx.profile)
    pos = check_positivity(ctx.profile)
    data = {
        "passed": report.passed,
        "violations": _asdict(list(report.violations)),
        "notes": _asdict(list(report.notes)),
        "positivity": {"min_value": pos.min_value, "floor": pos.floor,
                       "passes": pos.passes},
    }
    ctx.report("validate", data)
    if not report.passed:
        print(f"validate: {len(report.violations)} violation(s)")
        return 2
    if not pos.passes:
        print(f"validate: positivity fails, min {pos.min_value:.6g} < floor {pos.floor:.6g}")
        return 1
    if ctx.args.strict and report.notes:
        print(f"validate: strict mode, {len(report.notes)} note(s)")
        return 1
    print("validate: ok")
    return 0


def _cmd_density(ctx) -> int:
    exp = ctx.experiment
    E = _energy_grid(exp.get("energies", {"start": -3.5, "stop": 3.5, "count": 141}))
    eta0 = float(exp.get("eta0", 1e-3))
    curve = density_curve(ctx.profile, E, eta0, grid=_grid_for(ctx.profile, ctx.solver),
                          extrapolate=bool(exp.get("extrapolate", True)),
                          tol=_limit_tol(ctx.solver))
    csv_path = ctx.path("density.csv")
    write_csv(csv_path, ["E", "rho", "cdf"],
              zip(curve.E_grid, curve.rho, curve.cdf))
    ctx.report("density", {"E_grid": curve.E_grid, "rho": curve.rho,
                           "cdf": curve.cdf, "eta_used": curve.eta_used,
                           "csv": os.path.basename(csv_path)})
    print(f"density: {len(E)} points -> {csv_path}")
    return 0


def _cmd_solve_n(ctx) -> int:
    exp = ctx.experiment
    solver = ctx.solver
    probe_norm = float(exp.get("probe_norm", 1e-6))
    rows = []
    ok = True
    for N in _n_list(exp):
        view = KernelView(ctx.profile, N)
        for k, z in enumerate(_z_list(exp, N)):
            sol = solve_finite(view, z, tol=float(solver["tol"]),
                               max_iter=int(solver["max_iter"]),
                               anderson=solver["anderson"],
                               ladder_factor=float(solver["eta_ladder_factor"]))
            name = f"solution_N{N}_z{k}.cmat"
            write_solution_cmat(ctx.path(name), sol)
            prof = decay_profile(sol)
            decay_ok = bool(np.all(prof.d <= prof.bound))
            R = probe_norm * np.eye(N)
            ratio = stability_probe(view, z, R)
            rows.append({"N": N, "z": z, "file": name,
                         "iterations": sol.iterations,
                         "final_residual": sol.final_residual,
                         "converged": sol.converged,
                         "normalized_trace": sol.normalized_trace,
                         "decay_kappa": prof.kappa, "decay_alpha": prof.alpha,
                         "decay_ok": decay_ok,
                         "stability_ratio": ratio, "probe_norm": probe_norm})
            ok = ok and decay_ok
            print(f"solve-n: N={N} z={z} residual={sol.final_residual:.3e} "
                  f"decay={'ok' if decay_ok else 'VIOLATED'}")
    ctx.report("solve-n", {"solutions": rows})
    return 0 if ok else 1


def _cmd_sample(ctx) -> int:
    exp = ctx.experiment
    count = int(exp.get("samples", 1))
    time_t = float(exp.get("time_t", 0.0))
    files = []
    for N in _n_list(exp):
        for i in range(count):
            smp = _draw(ctx.model, N, child_seed(ctx.seed, i))
            if time_t > 0.0:
                if not isinstance(ctx.model, FilterSpec):
                    raise InputError("time evolution needs a filter model")
                smp = ou_evolve(smp, time_t, ctx.model, child_seed(ctx.seed, 10_000 + i))
            name = f"sample_N{N}_{i:03d}.cmat"
            write_sample_cmat(ctx.path(name), smp)
            files.append({"file": name, "N": N, "index": i, "time_t": smp.time_t})
    ctx.report("sample", {"files": files, "samples": count})
    print(f"sample: wrote {len(files)} matrix dump(s)")
    return 0


def _cmd_consistency(ctx) -> int:
    exp = ctx.experiment
    grid = _grid_for(ctx.profile, ctx.solver)
    Ns = _n_list(exp)
    rows = []
    ok = True
    for N in Ns:
        for z in _z_list(exp, N):
            res = consistency_check(ctx.profile, N, z, tol=float(ctx.solver["tol"]),
                                    grid=grid)
            gate = bool(res["fixed_point_gap"] <= 10.0 / N)
            ok = ok and gate
            rows.append({**res, "z": z, "gap_ok": gate})
            print(f"consistency: N={N} z={z} trace_gap={res['trace_gap']:.3e} "
                  f"fixed_point_gap={res['fixed_point_gap']:.3e} "
                  f"{'ok' if gate else 'FAIL'}")
    ratios = []
    if len(Ns) >= 2:
        for a, b in zip(Ns, Ns[1:]):
            ra = [r for r in rows if r["N"] == a]
            rb = [r for r in rows if r["N"] == b]
            for x, y in zip(ra, rb):
                ratios.append({"N_small": a, "N_large": b,
                               "trace_gap_ratio": x["trace_gap"] / max(y["trace_gap"], 1e-300),
                               "fixed_point_gap_ratio":
                                   x["fixed_point_gap"] / max(y["fixed_point_gap"], 1e-300)})
    ctx.report("consistency", {"checks": rows, "shrink_ratios": ratios})
    return 0 if ok else 1


def _law_report_data(rep) -> dict:
    return {
        "N": rep.N, "q": rep.q, "mode": rep.mode, "C_pass": rep.C_pass,
        "z_list": rep.z_list, "seeds": rep.seeds,
        "records": _asdict(list(rep.records)),
        "entry_fraction": rep.passed("entry"),
        "trace_fraction": rep.passed("trace"),
        "both_fraction": rep.passed("both"),
    }


def _cmd_verify_global(ctx) -> int:
    exp = ctx.experiment
    N = _n_list(exp)[0]
    rep = law_check(ctx.model, N, _z_list(exp, N),
                    seeds=exp.get("seeds", 5), mode="global",
                    C_pass=float(exp.get("C_pass", 10.0)),
                    seed=ctx.seed, threads=ctx.args.threads,
                    tol=float(ctx.solver["tol"]),
                    grid=_grid_for(ctx.profile, ctx.solver))
    ctx.report("verify-global", _law_report_data(rep))
    ok = all(r.error is None and r.entry_pass and r.trace_pass for r in rep.records)
    print(f"verify-global: N={N} entry={rep.passed('entry'):.2f} "
          f"trace={rep.passed('trace'):.2f} {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_verify_local(ctx) -> int:
    exp = ctx.experiment
    N = _n_list(exp)[0]
    rep = law_check(ctx.model, N, _z_list(exp, N),
                    seeds=exp.get("seeds", 5), mode="local",
                    C_pass=float(exp.get("C_pass", 10.0)),
                    nu=float(exp.get("nu", 0.1)), omega=float(exp.get("omega", 0.1)),
                    seed=ctx.seed, threads=ctx.args.threads,
                    tol=float(ctx.solver["tol"]),
                    grid=_grid_for(ctx.profile, ctx.solver))
    ctx.report("verify-local", _law_report_data(rep))
    frac = rep.passed("trace")
    need = 1.0 if ctx.args.strict else 0.8
    ok = frac >= need and all(r.error is None for r in rep.records)
    print(f"verify-local: N={N} trace fraction {frac:.2f} "
          f"(need {need:.2f}) {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_delocalization(ctx) -> int:
    exp = ctx.experiment
    N = _n_list(exp)[0]
    curve = _curve_for(ctx.profile, exp, ctx.solver)
    classical_locations(curve, N)
    smp = _draw(ctx.model, N, child_seed(ctx.seed, 0))
    st = eigen(smp.entries / np.sqrt(N), vectors=True)
    ds = delocalization_stats(st, curve, omega=float(exp.get("omega", 0.1)))
    threshold = float(exp.get("q99_threshold", 40.0))
    ok = ds.q99 <= threshold
    ctx.report("delocalization", {"N": N, "count": len(ds.values),
                                  "q50": ds.q50, "q99": ds.q99,
                                  "threshold": threshold, "passed": ok})
    print(f"delocalization: N={N} q50={ds.q50:.2f} q99={ds.q99:.2f} "
          f"(threshold {threshold:g}) {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def _iid_profile() -> CorrelationProfile:
    v = np.zeros((1, 1, 3, 3))
    v[0, 0, 1, 1] = 1.0
    return CorrelationProfile(range_K=1, kind="constant", values=v)


def _cmd_spacing(ctx) -> int:
    exp = ctx.experiment
    N = _n_list(exp)[0]
    count = int(exp.get("samples", 10))
    window = tuple(exp.get("window", (0.25, 0.75)))
    curve = _curve_for(ctx.profile, exp, ctx.solver)
    classical_locations(curve, N)
    pool = []
    for i in range(count):
        smp = _draw(ctx.model, N, child_seed(ctx.seed, i))
        ev = eigen(smp.entries / np.sqrt(N)).eigenvalues
        pool.append(unfold_gaps(ev, curve, window))
    gaps = np.concatenate(pool)
    if gaps.size < 100:
        raise InputError(f"need at least 100 pooled gaps, got {gaps.size}")

    reference = exp.get("reference", "surmise")
    if reference == "surmise":
        from .verify import surmise_cdf
        ks = float(scipy.stats.kstest(gaps, surmise_cdf).statistic)
        ref_count = 0
    elif reference == "ensemble":
        ref_count = int(exp.get("reference_samples", 2 * count))
        ref_curve = _curve_for(_iid_profile(), exp, ctx.solver)
        classical_locations(ref_curve, N)
        ref_pool = []
        for i in range(ref_count):
            G = goe_sample(N, child_seed(ctx.seed, 50_000 + i))
            ev = eigen(G.entries / np.sqrt(N)).eigenvalues
            ref_pool.append(unfold_gaps(ev, ref_curve, window))
        ks = float(scipy.stats.ks_2samp(gaps, np.concatenate(ref_pool)).statistic)
    else:
        raise InputError("reference must be 'surmise' or 'ensemble'")

    csv_path = ctx.path("gaps.csv")
    write_csv(csv_path, ["s"], [[v] for v in gaps])
    threshold = exp.get("ks_threshold")
    ok = True if threshold is None else ks <= float(threshold)
    ctx.report("spacing", {"N": N, "samples": count, "reference": reference,
                           "reference_samples": ref_count, "n_gaps": int(gaps.size),
                           "ks": ks, "ks_threshold": threshold,
                           "csv": os.path.basename(csv_path)})
    print(f"spacing: N={N} pooled {gaps.size} gaps, KS={ks:.4f} vs {reference} "
          f"{'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_ou_flow(ctx) -> int:
    if not isinstance(ctx.model, FilterSpec):
        raise InputError("the flow needs a filter model with a gaussian driver")
    exp = ctx.experiment
    N = _n_list(exp)[0]
    ts = exp.get("t", [0.1, 1.0])
    if not isinstance(ts, (list, tuple)):
        ts = [ts]
    n_paths = int(exp.get("n_paths", 10_000))
    spacing_seeds = int(exp.get("spacing_seeds", 0))
    curve = _curve_for(ctx.profile, exp, ctx.solver) if spacing_seeds > 0 else None
    reports = []
    ok = True
    for t in ts:
        rep = ou_flow_check(ctx.model, N, float(t), seeds=spacing_seeds,
                            n_paths=n_paths, seed=ctx.seed, curve=curve)
        reports.append(_asdict(rep))
        ok = ok and rep.covariance_ok
        extra = "" if rep.spacing_ks is None else f" spacing_ks={rep.spacing_ks:.4f}"
        print(f"ou-flow: t={t} max_sigma={rep.max_sigma:.2f}{extra} "
              f"{'ok' if rep.covariance_ok else 'FAIL'}")
    ctx.report("ou-flow", {"N": N, "n_paths": n_paths, "checks": reports})
    return 0 if ok else 1


_HANDLERS = {
    "validate": _cmd_validate,
    "density": _cmd_density,
    "solve-n": _cmd_solve_n,
    "sample": _cmd_sample,
    "consistency": _cmd_consistency,
    "verify-global": _cmd_verify_global,
    "verify-local": _cmd_verify_local,
    "delocalization": _cmd_delocalization,
    "spacing": _cmd_spacing,
    "ou-flow": _cmd_ou_flow,
}


# ---------------------------------------------------------------------------
# driver

class _Context:
    """Resolved model file plus output plumbing shared by the subcommands."""

    def __init__(self, args):
        self.args = args
        self.model, self.profile, self.solver, self.experiment = \
            load_model_file(args.model)
        self.seed = args.seed if args.seed is not None \
            else int(self.experiment.get("seed", 0))
        os.makedirs(args.out, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.args.out, name)

    def report(self, kind: str, data) -> str:
        config = {
            "model_file": self.args.model,
            "solver": self.solver,
            "experiment": self.experiment,
            "threads": self.args.threads,
            "strict": self.args.strict,
        }
        out = self.path(f"{kind}.json")
        write_report(out, kind, data, self.seed, config, model_path=self.args.model)
        return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dysonmc",
        description="Correlated random-matrix models: solve, sample, verify.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--model", required=True, help="model file (JSON)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides the model file)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for seed fan-out")
        p.add_argument("--strict", action="store_true",
                       help="tighten gates (notes fail validate, local needs 100%%)")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ctx = _Context(args)
        return _HANDLERS[args.subcommand](ctx)
    except (InputError, ModelError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SolverError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
