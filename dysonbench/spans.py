"""Span tracing around dysonmc's layer boundaries, installed from outside.

The benchmark never edits the library: it swaps module attributes and
class methods for thin wrappers that record a span (name, start, end,
parent span, job id) and a few counters, then restores the originals.
Functions are patched in every dysonmc module that holds a reference to
them, because modules import each other's functions by name.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

import dysonmc
from dysonmc import io, limit, mde, profiles, sampling, verify
from dysonmc import _fixed_point

# Per-layer metrics reported by a traced run: (name, unit).  The order is
# the order of BENCHMARK.json's per_layer list.
PER_LAYER = [
    ("profiles.psi_eval.calls", "count"), ("profiles.psi_eval.self_s", "s"),
    ("profiles.apply_band.calls", "count"), ("profiles.apply_band.self_s", "s"),
    ("fixed_point.iterate.calls", "count"), ("fixed_point.iterate.self_s", "s"),
    ("fixed_point.lstsq.calls", "count"), ("fixed_point.lstsq.self_s", "s"),
    ("mde.solve_finite.calls", "count"), ("mde.solve_finite.total_s", "s"),
    ("mde.solve_finite.self_s", "s"), ("mde.iterations", "count"),
    ("mde.banded_solve.calls", "count"), ("mde.banded_solve.s", "s"),
    ("mde.banded_solve.bytes_computed", "B"), ("mde.domain_check.s", "s"),
    ("mde.residual_norm.calls", "count"), ("mde.residual_norm.s", "s"),
    ("mde.failures", "count"),
    ("limit.operator_build.calls", "count"), ("limit.operator_build.s", "s"),
    ("limit.operator_builds_per_solve", "ratio"),
    ("limit.operator_reuse_share", "ratio"),
    ("limit.apply.calls", "count"), ("limit.apply.s", "s"),
    ("limit.solve_limit.calls", "count"), ("limit.solve_limit.total_s", "s"),
    ("limit.iterations", "count"), ("limit.cold_retries", "count"),
    ("limit.failures", "count"),
    ("sampling.sample.calls", "count"), ("sampling.sample.s", "s"),
    ("sampling.sample_gaussian_exact.calls", "count"),
    ("sampling.sample_gaussian_exact.s", "s"), ("sampling.goe_sample.s", "s"),
    ("sampling.ou_entry_paths.calls", "count"), ("sampling.ou_entry_paths.s", "s"),
    ("sampling.entry_samples.calls", "count"), ("sampling.entry_samples.s", "s"),
    ("sampling.driver_draw.s", "s"), ("sampling.driver_values_drawn", "count"),
    ("sampling.entry_yield", "ratio"),
    ("verify.eigen.calls", "count"), ("verify.eigen.s", "s"),
    ("verify.ks_statistic.s", "s"), ("verify.spacing_stats.s", "s"),
    ("verify.delocalization_stats.s", "s"), ("verify.ou_flow_check.self_s", "s"),
    ("io.load_model_file.s", "s"),
    ("io.write_sample_cmat.calls", "count"), ("io.write_sample_cmat.s", "s"),
    ("io.write_sample_cmat.bytes", "B"),
    ("io.write_report.calls", "count"), ("io.write_report.s", "s"),
    ("io.write_report.bytes", "B"),
    ("bench.jobs", "count"), ("bench.untraced_s", "s"),
    ("bench.trace_overhead", "ratio"),
]

_LIB_MODULES = (dysonmc, io, limit, mde, profiles, sampling, verify, _fixed_point)


class Tracer:
    """Collects spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, job, failed]
        self.stack = []
        self.active = Counter()  # span names currently open
        self.job = None
        self.recording = False
        self.counts = defaultdict(float)
        self.operator_keys = set()
        self._patches = []

    # -- installation -------------------------------------------------------
    def _wrap(self, orig, name, under=None, after=None):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.recording or (under and not any(tracer.active[u] for u in under)):
                return orig(*args, **kwargs)
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                   tracer.job, False]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tracer.active[name] += 1
            rec[1] = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            except Exception:
                rec[5] = True
                raise
            finally:
                rec[2] = time.perf_counter()
                tracer.active[name] -= 1
                tracer.stack.pop()
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return wrapper

    def _patch_attr(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, orig, name, **kw):
        wrapper = self._wrap(orig, name, **kw)
        for mod in _LIB_MODULES:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patch_attr(mod, attr, wrapper)

    def install(self):
        pf = self._patch_function
        pf(profiles.psi_eval, "profiles.psi_eval")
        self._patch_attr(profiles.KernelView, "apply_band",
                         self._wrap(profiles.KernelView.apply_band, "profiles.apply_band"))
        pf(_fixed_point.fixed_point_iterate, "fixed_point.iterate")
        self._patch_attr(np.linalg, "lstsq", self._wrap(
            np.linalg.lstsq, "fixed_point.lstsq", under=("fixed_point.iterate",)))
        pf(mde.solve_finite, "mde.solve_finite", after=_after_solve_finite)
        pf(mde.residual_norm, "mde.residual_norm")
        in_mde = ("mde.solve_finite",)
        self._patch_attr(scipy.linalg, "solve_banded", self._wrap(
            scipy.linalg.solve_banded, "mde.banded_solve", under=in_mde,
            after=_after_banded_solve))
        for fn in ("eig_banded", "cholesky_banded"):
            self._patch_attr(scipy.linalg, fn, self._wrap(
                getattr(scipy.linalg, fn), "mde.domain_check", under=in_mde))
        self._patch_attr(limit.LimitOperator, "__init__", self._wrap(
            limit.LimitOperator.__init__, "limit.operator_build"))
        self._patch_attr(limit.LimitOperator, "apply", self._wrap(
            limit.LimitOperator.apply, "limit.apply"))
        pf(limit.solve_limit, "limit.solve_limit", after=_after_solve_limit)
        pf(limit.density_curve, "limit.density_curve", after=_after_density_curve)
        pf(sampling.sample, "sampling.sample")
        pf(sampling.sample_gaussian_exact, "sampling.sample_gaussian_exact")
        pf(sampling.goe_sample, "sampling.goe_sample")
        pf(sampling.ou_entry_paths, "sampling.ou_entry_paths", after=_after_tracked)
        pf(sampling.entry_samples, "sampling.entry_samples", after=_after_tracked)
        pf(sampling.empirical_covariance, "sampling.empirical_covariance")
        pf(sampling._driver_draw, "sampling.driver_draw", after=_after_driver_draw)
        for fn in ("eigen", "ks_statistic", "spacing_stats", "delocalization_stats",
                   "ou_flow_check", "unfold_gaps"):
            pf(getattr(verify, fn), f"verify.{fn}")
        pf(io.load_model_file, "io.load_model_file")
        pf(io.write_sample_cmat, "io.write_sample_cmat", after=_after_write)
        pf(io.write_report, "io.write_report", after=_after_write)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- aggregation --------------------------------------------------------
    def summary(self, job_walls: dict, overhead: float) -> dict:
        """Per-layer metrics from the recorded spans.

        job_walls maps job id -> wall seconds of that job; a job's top-level
        spans are those without a parent, and the part of its wall time
        they leave uncovered is reported as bench.untraced_s.
        """
        n = len(self.spans)
        child = np.zeros(n)
        calls = Counter()
        total = defaultdict(float)
        failures = Counter()
        top = defaultdict(float)
        for name, start, end, parent, job, failed in self.spans:
            dur = end - start
            calls[name] += 1
            total[name] += dur
            failures[name] += failed
            if parent >= 0:
                child[parent] += dur
            elif job in job_walls:
                top[job] += dur
        self_s = defaultdict(float)
        for i, (name, start, end, *_rest) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
        c = self.counts
        solves = calls["limit.solve_limit"]
        builds = calls["limit.operator_build"]
        tracked_draw = c["driver_values_tracked_draw"]
        m = {}
        for layer in ("profiles.psi_eval", "profiles.apply_band", "fixed_point.iterate",
                      "fixed_point.lstsq"):
            m[f"{layer}.calls"] = calls[layer]
            m[f"{layer}.self_s"] = self_s[layer]
        m.update({
            "mde.solve_finite.calls": calls["mde.solve_finite"],
            "mde.solve_finite.total_s": total["mde.solve_finite"],
            "mde.solve_finite.self_s": self_s["mde.solve_finite"],
            "mde.iterations": c["mde_iterations"],
            "mde.banded_solve.calls": calls["mde.banded_solve"],
            "mde.banded_solve.s": total["mde.banded_solve"],
            "mde.banded_solve.bytes_computed": c["banded_bytes"],
            "mde.domain_check.s": total["mde.domain_check"],
            "mde.residual_norm.calls": calls["mde.residual_norm"],
            "mde.residual_norm.s": total["mde.residual_norm"],
            "mde.failures": failures["mde.solve_finite"],
            "limit.operator_build.calls": builds,
            "limit.operator_build.s": total["limit.operator_build"],
            "limit.operator_builds_per_solve": builds / solves if solves else 0.0,
            "limit.operator_reuse_share": c["operator_reused"] / solves if solves else 0.0,
            "limit.apply.calls": calls["limit.apply"],
            "limit.apply.s": total["limit.apply"],
            "limit.solve_limit.calls": solves,
            "limit.solve_limit.total_s": total["limit.solve_limit"],
            "limit.iterations": c["limit_iterations"],
            "limit.cold_retries": (solves - c["density_points"]
                                   if calls["limit.density_curve"] else 0.0),
            "limit.failures": failures["limit.solve_limit"],
        })
        for fn in ("sample", "sample_gaussian_exact", "ou_entry_paths", "entry_samples"):
            m[f"sampling.{fn}.calls"] = calls[f"sampling.{fn}"]
            m[f"sampling.{fn}.s"] = total[f"sampling.{fn}"]
        m["sampling.goe_sample.s"] = total["sampling.goe_sample"]
        m["sampling.driver_draw.s"] = total["sampling.driver_draw"]
        m["sampling.driver_values_drawn"] = c["driver_values"]
        m["sampling.entry_yield"] = c["tracked_values"] / tracked_draw if tracked_draw else 0.0
        m["verify.eigen.calls"] = calls["verify.eigen"]
        m["verify.eigen.s"] = total["verify.eigen"]
        for fn in ("ks_statistic", "spacing_stats", "delocalization_stats"):
            m[f"verify.{fn}.s"] = total[f"verify.{fn}"]
        m["verify.ou_flow_check.self_s"] = self_s["verify.ou_flow_check"]
        m["io.load_model_file.s"] = total["io.load_model_file"]
        for fn in ("write_sample_cmat", "write_report"):
            m[f"io.{fn}.calls"] = calls[f"io.{fn}"]
            m[f"io.{fn}.s"] = total[f"io.{fn}"]
            m[f"io.{fn}.bytes"] = c[f"bytes_{fn}"]
        m["bench.jobs"] = len(job_walls)
        m["bench.untraced_s"] = sum(w - top[j] for j, w in job_walls.items())
        m["bench.trace_overhead"] = overhead
        units = dict(PER_LAYER)
        return {k: {"value": float(m[k]), "unit": units[k]} for k, _ in PER_LAYER}


# -- counters recorded when a wrapped call returns ---------------------------

def _after_solve_finite(tr, args, kwargs, sol):
    tr.counts["mde_iterations"] += sol.iterations


def _after_banded_solve(tr, args, kwargs, out):
    ab = args[1] if len(args) > 1 else kwargs["ab"]
    b = args[2] if len(args) > 2 else kwargs["b"]
    tr.counts["banded_bytes"] += np.asarray(ab).nbytes + np.asarray(b).nbytes + out.nbytes


def _after_solve_limit(tr, args, kwargs, sol):
    tr.counts["limit_iterations"] += sol.iterations
    key = (id(sol.profile), sol.grid)
    tr.counts["operator_reused"] += key in tr.operator_keys
    tr.operator_keys.add(key)


def _after_density_curve(tr, args, kwargs, curve):
    sweeps = 2 if kwargs.get("extrapolate", True) else 1
    tr.counts["density_points"] += sweeps * curve.E_grid.size


def _after_tracked(tr, args, kwargs, out):
    arrays = out if isinstance(out, tuple) else (out,)
    tr.counts["tracked_values"] += sum(a.size for a in arrays)


def _after_driver_draw(tr, args, kwargs, out):
    tr.counts["driver_values"] += out.size
    if tr.active["sampling.ou_entry_paths"] or tr.active["sampling.entry_samples"]:
        tr.counts["driver_values_tracked_draw"] += out.size


def _after_write(tr, args, kwargs, out):
    name = "write_report" if isinstance(out, dict) else "write_sample_cmat"
    tr.counts[f"bytes_{name}"] += os.path.getsize(args[0])

