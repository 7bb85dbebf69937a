"""The four benchmark workloads: job streams, job bodies and output gates.

Every workload is a closed loop of jobs issued one after another by one
client.  Jobs come in cycles of fixed composition: the workload seed picks
the order inside a cycle, the energies, the flow times and the random
streams of the samplers, but every cycle holds the same job classes, and
energies and flow times are spread over fixed strata, so two seeds
measure the same mix.  Jobs call dysonmc only through its
public names, looked up at call time so that a tracer can wrap them.

A gate returns (ok, ratios): ok is False when the output misses its
correctness check, and ratios are error / tolerance for every gated
number (a ratio above 1 also fails).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

import dysonmc

REPO_MODELS = {name: os.path.join("models", f"{name}.json")
               for name in ("wigner", "two_tap", "variance34", "bilinear_ramp")}
REPO_MODELS["varying_filter"] = os.path.join("dysonbench", "models", "varying_filter.json")

# Kolmogorov critical constant at family-wise level 1e-6: gates run on
# every job of every run, so the single-test level of the published
# acceptance thresholds would fail a correct job every few hundred jobs.
KS_CRIT = math.sqrt(-math.log(0.5e-6) / 2.0)


@dataclass
class Model:
    model: object
    profile: object
    solver: dict
    grid: object
    limit_tol: float


def load_models(root: str, names) -> dict:
    """Read model files the way the CLI does, with the limit grid they ask for."""
    out = {}
    for name in names:
        model, profile, solver, _ = dysonmc.load_model_file(
            os.path.join(root, REPO_MODELS[name]))
        grid = dysonmc.LimitGrid.for_profile(
            profile, n_theta=int(solver["n_theta"]), n_s=solver["n_s"],
            K_trunc=solver["K_trunc"])
        out[name] = Model(model, profile, solver, grid,
                          float(solver.get("limit_tol", 1e-10)))
    return out


@dataclass
class Job:
    index: int
    cycle: int
    kind: str
    params: dict = field(default_factory=dict)


def job_seed(seed: int, tag: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, tag, index]).generate_state(1, np.uint64)[0])


def semicircle_m(z: complex, s: float) -> complex:
    """Stieltjes transform of the semicircle law of variance s."""
    a = 2.0 * math.sqrt(s)
    return (-z + np.sqrt(z - a) * np.sqrt(z + a)) / (2.0 * s)


def _ratios_ok(ratios) -> bool:
    return all(np.isfinite(r) and r <= 1.0 for r in ratios)


class Workload:
    """Base: subclasses define models, setup, cycle, run, gate and corrupt."""

    name = ""
    tag = 0
    models: tuple = ()
    # job_norm_tail_s percentile: the highest one that leaves at least ten jobs
    # beyond it in a run of the seed commit, placed inside a job class so
    # that a run with a few more or fewer jobs reads the same class
    TAIL_PCT = 75.0

    def __init__(self, root: str, seed: int, workdir: str):
        self.root = root
        self.seed = int(seed)
        self.workdir = workdir
        self.rng = np.random.default_rng([self.seed, self.tag])
        self.next_index = 0

    def setup(self):
        self.m = load_models(self.root, self.models)

    def cycle(self, c: int) -> list:
        specs = self.cycle_specs()
        order = self.rng.permutation(len(specs))
        jobs = []
        for k in order:
            kind, params = specs[k]
            jobs.append(Job(self.next_index, c, kind, dict(params)))
            self.next_index += 1
        return jobs

    def info(self) -> dict:
        kinds = [k for k, _ in self.cycle_specs()]
        return {"cycle_jobs": {k: kinds.count(k) for k in sorted(set(kinds))}}


# ---------------------------------------------------------------------------

class LimitDensity(Workload):
    """Density requests on short energy windows through density_curve."""

    name = "limit-density"
    tag = 1
    # 75 would sit at the top edge of the two_tap class, just below the ten
    # varying_filter jobs of a run; 70 sits inside it
    TAIL_PCT = 70.0
    models = ("wigner", "two_tap", "variance34", "bilinear_ramp", "varying_filter")
    ETA0 = 1e-3
    DE = 0.05
    # window centres, as shares of HALF_WIDTH, and their seeded jitter
    INNER, OUTER, JITTER = 0.25, 0.75, 0.08
    TOL = 1e-5        # trace tolerance of the published semicircle check
    CLOSED = {"wigner": 1.0, "variance34": 0.75}
    # windows stay in the bulk, within about 0.6 of each spectral edge
    HALF_WIDTH = {"wigner": 1.2, "two_tap": 1.3, "variance34": 1.0,
                  "bilinear_ramp": 1.1, "varying_filter": 1.1}

    def cycle_specs(self):
        return [(f"density.{m}", {"model": m}) for m in self.models for _ in (0, 1)]

    def cycle(self, c: int) -> list:
        # each model gets two 3-point windows per cycle on opposite sides of
        # the band centre, one near it and one further out, so that every
        # cycle has the same error budget; the seed picks the sides, jitters
        # the windows and decides whether they form one run of the model or two
        runs = []
        for m in self.models:
            w = self.HALF_WIDTH[m]
            side = self.rng.choice([-1.0, 1.0])
            starts = [c0 * w - self.DE + self.rng.uniform(-self.JITTER, self.JITTER)
                      for c0 in (side * self.INNER, -side * self.OUTER)]
            reqs = [(m, e0) for e0 in self.rng.permutation(starts)]
            runs.extend([reqs] if self.rng.random() < 0.5 else [[r] for r in reqs])
        jobs = []
        for r in self.rng.permutation(len(runs)):
            for m, e0 in runs[r]:
                jobs.append(Job(self.next_index, c, f"density.{m}",
                                {"model": m, "E": e0 + self.DE * np.arange(3)}))
                self.next_index += 1
        return jobs

    def run(self, job):
        m = self.m[job.params["model"]]
        return dysonmc.density_curve(m.profile, job.params["E"], self.ETA0,
                                     grid=m.grid, tol=m.limit_tol)

    def gate(self, job, curve):
        ok = (bool(np.all(np.isfinite(curve.rho))) and bool(np.all(curve.rho >= 0.0))
              and bool(np.all(np.isfinite(curve.cdf)))
              and bool(np.all(np.diff(curve.cdf) >= 0.0)))
        ratios = []
        s = self.CLOSED.get(job.params["model"])
        if s is not None:
            # against the density on the real axis, so the error includes the
            # eta0 extrapolation; rho combines the trace at eta0 (weight 2)
            # and 2 eta0 (weight 1), hence the factor pi / 3 to trace scale
            E = np.asarray(job.params["E"])
            ref = np.sqrt(np.maximum(4.0 * s - E * E, 0.0)) / (2.0 * np.pi * s)
            err = float(np.max(np.abs(curve.rho - ref))) * np.pi / 3.0
            ratios.append(err / self.TOL)
        return ok and _ratios_ok(ratios), ratios

    def corrupt(self, job, curve):
        cdf = curve.cdf.copy()
        cdf[-1] = np.nan
        return replace(curve, cdf=cdf)


# ---------------------------------------------------------------------------

class FiniteSolve(Workload):
    """solve_finite across an eta ladder on the three KernelView paths."""

    name = "finite-solve"
    tag = 2
    TAIL_PCT = 80.0
    models = ("two_tap", "bilinear_ramp", "variance34", "varying_filter")
    # (model, N, eta): ti and basis sizes straddle the L2 size of a dense
    # complex N x N inverse (2 MiB at N = 362, 4 MiB at N = 512); larger N
    # pairs with larger eta so that no single class dominates wall time
    SLOTS = [("two_tap", 384, 1.0), ("two_tap", 320, 0.2), ("two_tap", 256, 0.05),
             ("bilinear_ramp", 512, 1.0), ("bilinear_ramp", 384, 0.2),
             ("bilinear_ramp", 256, 0.05), ("variance34", 300, 0.5),
             ("varying_filter", 16, 1.0), ("varying_filter", 12, 0.5)]
    # |E| strata: a solve near |E| = 0 costs up to 1.6 times one near 1.4.
    # Slot i takes stratum (i + c + shift) mod 3 in cycle c, so every cycle
    # puts a third of its jobs in each stratum and every slot visits all
    # three in three cycles; the seed picks shift, the sign and the jitter.
    ENERGY_STRATA = (0.0, 0.7, 1.35)
    JITTER = 0.05

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.shift = int(self.rng.integers(len(self.ENERGY_STRATA)))

    def cycle_specs(self):
        return [(f"solve.{m}", {"model": m, "N": n, "eta": eta}) for m, n, eta in self.SLOTS]

    def cycle(self, c: int) -> list:
        jobs = super().cycle(c)
        for j in jobs:
            p = j.params
            i = self.SLOTS.index((p["model"], p["N"], p["eta"]))
            e = self.ENERGY_STRATA[(i + c + self.shift) % len(self.ENERGY_STRATA)]
            p["E"] = float(self.rng.choice([-1.0, 1.0])
                           * (e + self.rng.uniform(-self.JITTER, self.JITTER)))
        return jobs

    def info(self) -> dict:
        out = super().info()
        paths = {}
        for m, _, _ in self.SLOTS:
            mode = ("ti" if dysonmc.KernelView(self.m[m].profile, 8).translation_invariant
                    else "basis" if self.m[m].profile.kind in dysonmc.TABLE_KINDS else "dense")
            paths[mode] = paths.get(mode, 0) + 1
        out["kernelview_path_share"] = {k: v / len(self.SLOTS) for k, v in sorted(paths.items())}
        return out

    def run(self, job):
        m = self.m[job.params["model"]]
        view = dysonmc.KernelView(m.profile, job.params["N"])
        sv = m.solver
        return dysonmc.solve_finite(view, complex(job.params["E"], job.params["eta"]),
                                    tol=float(sv["tol"]), max_iter=int(sv["max_iter"]),
                                    anderson=sv["anderson"],
                                    ladder_factor=float(sv["eta_ladder_factor"]))

    def gate(self, job, sol):
        tol = float(self.m[job.params["model"]].solver["tol"])
        ok = bool(sol.converged) and bool(np.all(np.isfinite(sol.M)))
        res = dysonmc.residual_norm(sol.view, sol.z, sol.M)
        ratios = [res / (10.0 * tol)]
        if job.params["model"] == "variance34":
            # published: 1e-2 at N = 300, an O(1/N) boundary effect
            N = job.params["N"]
            err = abs(sol.normalized_trace - semicircle_m(sol.z.z, 0.75))
            ratios.append(err / (3.0 / N))
        return ok and _ratios_ok(ratios), ratios

    def corrupt(self, job, sol):
        return replace(sol, M=sol.M * 1.01)


# ---------------------------------------------------------------------------

class SampleVerify(Workload):
    """Draw a matrix, verify its spectrum against the limit, write artifacts."""

    name = "sample-verify"
    tag = 3
    TAIL_PCT = 85.0
    models = ("two_tap", "wigner", "bilinear_ramp")
    # the energy windows cover each spectrum with margin; ks_statistic
    # rejects eigenvalues outside the curve
    CURVES = {"two_tap": (-2.8, 2.8, 15), "wigner": (-2.2, 2.2, 12),
              "bilinear_ramp": (-2.4, 2.4, 13)}
    SLOTS = [("two_tap", 1000, "delocalization"), ("two_tap", 1000, "spacing-goe"),
             ("wigner", 1000, "spacing-surmise"), ("wigner", 1000, "delocalization"),
             ("bilinear_ramp", 200, "delocalization")]

    def setup(self):
        super().setup()
        # the CLI rebuilds these curves on every invocation
        self.curves = {}
        for name, (lo, hi, n) in self.CURVES.items():
            m = self.m[name]
            self.curves[name] = dysonmc.density_curve(
                m.profile, np.linspace(lo, hi, n), 1e-3, grid=m.grid, tol=m.limit_tol)

    def cycle_specs(self):
        return [(f"verify.{m}.{check}", {"model": m, "N": n, "check": check})
                for m, n, check in self.SLOTS]

    def cycle(self, c: int) -> list:
        jobs = super().cycle(c)
        for j in jobs:
            j.params["seed"] = job_seed(self.seed, self.tag, j.index)
        return jobs

    def run(self, job):
        p = job.params
        m = self.m[p["model"]]
        N = p["N"]
        if isinstance(m.model, dysonmc.FilterSpec):
            smp = dysonmc.sample(m.model, N, p["seed"])
        else:
            smp = dysonmc.sample_gaussian_exact(m.profile, N, p["seed"])
        curve = self.curves[p["model"]]
        st = dysonmc.eigen(smp.entries / np.sqrt(N), vectors=p["check"] == "delocalization")
        out = {"N": N, "ks": dysonmc.ks_statistic(st.eigenvalues, curve)}
        if p["check"] == "delocalization":
            ds = dysonmc.delocalization_stats(st, curve)
            out.update(q50=ds.q50, q99=ds.q99)
        elif p["check"] == "spacing-surmise":
            sp = dysonmc.spacing_stats(st, curve)
            out.update(spacing_ks=sp.ks, n_eff=sp.gaps.size)
        else:
            g = dysonmc.goe_sample(N, p["seed"] + 1)
            ev = dysonmc.eigen(g.entries / np.sqrt(N)).eigenvalues
            ref = dysonmc.unfold_gaps(ev, self.curves["wigner"])
            sp = dysonmc.spacing_stats(st, curve, reference="ensemble", ref_gaps=ref)
            out.update(spacing_ks=sp.ks,
                       n_eff=sp.gaps.size * ref.size / (sp.gaps.size + ref.size))
        out["cmat"] = os.path.join(self.workdir, "sample.cmat")
        out["report"] = os.path.join(self.workdir, "report.json")
        dysonmc.write_sample_cmat(out["cmat"], smp)
        dysonmc.write_report(out["report"], "sample-verify",
                             {k: out[k] for k in out if k not in ("cmat", "report")},
                             p["seed"], {"model": p["model"], "check": p["check"]})
        out["entries"] = smp.entries
        return out

    def gate(self, job, out):
        N = out["N"]
        # published: KS <= 0.02 over 10^4 pooled eigenvalues; q99 <= 40 at N = 1000;
        # spacing KS at the family-wise Kolmogorov level for its sample size
        ratios = [out["ks"] / (0.02 * math.sqrt(1e4 / N))]
        if "q99" in out:
            ratios.append(out["q99"] / 40.0)
        if "spacing_ks" in out:
            ratios.append(out["spacing_ks"] / (KS_CRIT / math.sqrt(out["n_eff"])))
        dump = dysonmc.read_cmat(out["cmat"])
        with open(out["report"], encoding="utf-8") as fh:
            rep = json.load(fh)
        ok = (dump["kind"] == "sample" and np.array_equal(dump["matrix"], out["entries"])
              and rep["kind"] == "sample-verify" and rep["data"]["ks"] == out["ks"])
        return ok and _ratios_ok(ratios), ratios

    def corrupt(self, job, out):
        bad = dict(out)
        bad["entries"] = out["entries"].copy()
        bad["entries"][0, 0] += 1.0
        return bad


# ---------------------------------------------------------------------------

class OUEntries(Workload):
    """Entry tracking under the flow: ou_flow_check and empirical_covariance."""

    name = "ou-entries"
    tag = 4
    models = ("two_tap",)
    PATHS = 400
    SLOTS = [("ou_flow", 100), ("ou_flow", 130), ("ou_flow", 160), ("ou_flow", 200),
             ("covariance", 120), ("covariance", 180)]
    # Gates judge every covariance estimate against the standard error the
    # Gaussian law predicts, (s_aa s_bb + s_ab^2) / n.  The library's own
    # covariance_ok uses the empirical error at 5 sigma, which fails about
    # 1e-4 of correct jobs at this path count; 6.5 predicted standard errors
    # keep false failures below 1e-7 per job.
    Z_GATE = 6.5
    # slot i flows to time TIMES[(i + c + shift) mod 2] in cycle c: half of
    # every cycle at each time, and every slot at both in two cycles
    TIMES = (0.1, 1.0)

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.shift = int(self.rng.integers(len(self.TIMES)))

    def cycle_specs(self):
        return [(kind, {"N": n}) for kind, n in self.SLOTS]

    def cycle(self, c: int) -> list:
        jobs = super().cycle(c)
        for j in jobs:
            i = self.SLOTS.index((j.kind, j.params["N"]))
            j.params["seed"] = job_seed(self.seed, self.tag, j.index)
            j.params["t"] = self.TIMES[(i + c + self.shift) % len(self.TIMES)]
        return jobs

    @staticmethod
    def pairs(N):
        c = N // 2
        a = (c, c + 10)
        return [(a, a), (a, (c + 1, c + 10)), (a, (c + 1, c + 11)), (a, (c, c + 11)),
                ((c, c), (c, c))]

    def run(self, job):
        p = job.params
        filt = self.m["two_tap"].model
        if job.kind == "ou_flow":
            return dysonmc.ou_flow_check(filt, p["N"], p["t"], n_paths=self.PATHS,
                                         seed=p["seed"])
        return dysonmc.empirical_covariance(filt, p["N"], self.pairs(p["N"]),
                                            self.PATHS, p["seed"])

    def _z(self, est, want, var_a, var_b):
        return np.abs(est - want) / np.sqrt((var_a * var_b + want * want) / self.PATHS)

    def gate(self, job, out):
        if job.kind == "ou_flow":
            v = out.expected_var
            z = np.concatenate([
                self._z(out.var_start, v, v, v), self._z(out.var_end, v, v, v),
                self._z(out.cross_time, out.cross_time_expected, v, v),
                # the shifted pair is tracked entries 1 and 4 at time t
                [self._z(out.shifted_cov, out.shifted_expected, v[1], v[4])]])
        else:
            cov, _ = out
            view = dysonmc.KernelView(self.m["two_tap"].profile, job.params["N"])
            trip = np.array([(dysonmc.xi_eval(view, *a, *b), dysonmc.xi_eval(view, *a, *a),
                              dysonmc.xi_eval(view, *b, *b))
                             for a, b in self.pairs(job.params["N"])])
            z = self._z(cov, trip[:, 0], trip[:, 1], trip[:, 2])
        ratios = list(np.asarray(z, dtype=float) / self.Z_GATE)
        return _ratios_ok(ratios), ratios

    def corrupt(self, job, out):
        if job.kind == "ou_flow":
            return replace(out, var_end=out.var_end + 1.0)
        cov, se = out
        return cov + 1.0, se


WORKLOADS = {w.name: w for w in (LimitDensity, FiniteSolve, SampleVerify, OUEntries)}
