"""Cross-module experiment drivers: one-step error of the measure flow
against simulated windows, center convergence, and replica ergodicity with
rate fits.

Every rate constant reported here is a least-squares fit with a bootstrap
band, never an asserted equality: the underlying bounds are existential.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import InvalidInputError
from .flow import Schedule
from .gibbs import gibbs_map
from .measures import GridDensity, recenter
from .potentials import PotentialSpec
from .powersums import convolution_matrix
from .sde import TrajectoryRecord
from .transport import QuantileTarget, tp_distance_1d
from .transport import w2_distance  # noqa: F401  (bench/tracer.py wraps it here)


@dataclass
class DiagnosticsReport:
    experiment: str
    series: list[tuple[str, float, float]] = field(default_factory=list)
    fits: list[tuple[str, dict, float]] = field(default_factory=list)
    verdicts: list[tuple[str, bool, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.verdicts)

    def to_jsonl(self) -> str:
        lines = [json.dumps({"experiment": self.experiment})]
        for label, t, value in self.series:
            lines.append(json.dumps({"series": label, "time": t, "value": value}))
        for model, params, residual in self.fits:
            lines.append(json.dumps({"fit": model, "parameters": params,
                                     "residual": residual}))
        for criterion, ok, margin in self.verdicts:
            lines.append(json.dumps({"criterion": criterion, "pass": bool(ok),
                                     "margin": margin}))
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        out = [f"experiment: {self.experiment}"]
        for model, params, residual in self.fits:
            p = ", ".join(f"{k}={v:.4g}" for k, v in params.items())
            out.append(f"  fit {model}: {p} (residual {residual:.3g})")
        for criterion, ok, margin in self.verdicts:
            out.append(f"  [{'PASS' if ok else 'FAIL'}] {criterion} (margin {margin:.3g})")
        return "\n".join(out) + "\n"


def _fit_loglog(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Slope, intercept and rms residual of log ys against log xs."""
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(slope), float(intercept), resid


def one_step_error(w: PotentialSpec, record: TrajectoryRecord, schedule: Schedule,
                   v: PotentialSpec | None = None) -> DiagnosticsReport:
    """Per window: centered translation distance between the window occupation
    measure and the Gibbs image of the pre-window occupation measure, plus a
    log-log slope of that error against the window length.

    The Gibbs image reads the pre-window occupation only through its power
    sums, which the record gives at every knot in one pass over the path."""
    report = DiagnosticsReport(experiment="one-step-error")
    windows = [(schedule.time(n), schedule.time(n + 1)) for n in schedule.indices()]
    for t0, t1 in windows:
        if t1 > record.times[-1] + 1e-9 or t0 < record.times[0] - 1e-9:
            raise InvalidInputError("trajectory does not cover the schedule")
    count = max(2, convolution_matrix(w).shape[0])
    pres = record.power_sums_at([t0 for t0, _ in windows], count)
    errors = []
    for (t0, t1), pre in zip(windows, pres):
        image = gibbs_map(w, pre, v=v).density
        c = record.center_at(t0)
        window = record.window_occupation(t0, t1)
        err = tp_distance_1d(w, recenter(window, c), recenter(image, c)).value
        errors.append(err)
        report.series.append(("tp_error", t0, err))
    errors = np.asarray(errors)
    lengths = np.array([t1 - t0 for t0, t1 in windows])
    slope, intercept, resid = _fit_loglog(lengths, np.maximum(errors, 1e-300))
    report.fits.append(("log_error_vs_log_window", {
        "slope": slope, "intercept": intercept}, resid))
    report.verdicts.append(("one-step errors positive", bool(np.all(errors > 0)),
                            float(errors.min())))
    report.verdicts.append(("one-step error slope negative", slope < 0, -slope))
    return report


def center_convergence(record: TrajectoryRecord, schedule: Schedule,
                       tail_threshold: float = 0.5) -> DiagnosticsReport:
    """Partial sums of |center increments| across schedule knots and window
    oscillations; verdicts check Cauchy flattening of the increment series."""
    report = DiagnosticsReport(experiment="center-convergence")
    knots = [schedule.time(n) for n in schedule.indices()]
    knots.append(schedule.time(schedule.n_end))
    centers = np.array([record.center_at(t) for t in knots])
    increments = np.abs(np.diff(centers))
    partial = np.cumsum(increments)
    oscillations = []
    for n, t0 in enumerate(knots[:-1]):
        i0 = record.index_at(t0)
        i1 = record.index_at(knots[n + 1])
        seg = record.center_track[i0:i1 + 1]
        osc = float(seg.max() - seg.min())
        oscillations.append(osc)
        report.series.append(("window_oscillation", t0, osc))
        report.series.append(("partial_sum", t0, float(partial[n])))
    half = increments.size // 2
    tail_sum = float(increments[half:].sum())
    report.verdicts.append(("increment tail sum below threshold",
                            tail_sum < tail_threshold, tail_threshold - tail_sum))
    first = max(oscillations[: max(1, len(oscillations) // 4)])
    last = max(oscillations[-max(1, len(oscillations) // 4):])
    report.verdicts.append(("window oscillation shrinks", last <= first,
                            first - last))
    report.fits.append(("tail_sum", {"value": tail_sum, "half_index": half}, 0.0))
    return report


def _checkpoints(t0: float, t1: float, per_decade: int = 10) -> np.ndarray:
    lo, hi = math.log10(max(t0, 1e-12)), math.log10(t1)
    n = max(2, int(round((hi - lo) * per_decade)) + 1)
    return np.logspace(lo, hi, n)


def _sorted_prefixes(rec: TrajectoryRecord, ts: np.ndarray):
    """Per time t: the centered atoms of the occupation up to t in position
    order, and their cumulative weights normalized to end at 1.

    Each prefix's path atoms are sorted on their own (all of weight dt) and
    the pre-history block, sorted once, is inserted before equal positions,
    as a stable sort of the whole occupation would place it.  Cumulative
    weights are counted, dt times the path atoms so far plus the pre-history
    mass so far, not summed atom by atom.
    """
    pre_pos, pre_w = rec.prehistory()
    order = np.argsort(pre_pos, kind="stable")
    pre_pos = pre_pos[order]
    pre_cum = np.concatenate(([0.0], np.cumsum(pre_w[order])))
    dt = rec.config.dt
    for t in ts:
        i = rec.index_at(t)
        xs = np.sort(rec.positions[1:i + 1])
        at = np.searchsorted(xs, pre_pos, side="left")
        pos = np.insert(xs, at, pre_pos)
        pos -= rec.center_at(t)
        runs = np.diff(np.concatenate(([0], at + np.arange(at.size), [pos.size])))
        n_pre = np.repeat(np.arange(at.size + 1), runs)   # pre atoms at or before
        cum = dt * (np.arange(1, pos.size + 1) - n_pre) + np.repeat(pre_cum, runs)
        cum /= cum[-1]
        yield pos, cum


def ergodicity_check(w: PotentialSpec, records: list[TrajectoryRecord],
                     rho_inf: GridDensity, per_decade: int = 10,
                     final_w2_bound: float = 0.1, min_passing: int | None = None,
                     n_boot: int = 200) -> DiagnosticsReport:
    """Per-replica Wasserstein distance of the centered occupation measure to
    the fixed point at logarithmic checkpoints, with a fitted decay exponent
    for exp(-a (log t)^(1/(k+1))).

    The checkpoints run from max(2 t_start, t_start + 1) to the records' end,
    which must lie beyond it."""
    if not records:
        raise InvalidInputError("need at least one replica")
    report = DiagnosticsReport(experiment="ergodicity")
    k = w.bound_degree
    t0 = float(records[0].times[0])
    t1 = float(records[0].times[-1])
    first = max(t0 * 2, t0 + 1.0)
    if t1 <= first:
        raise InvalidInputError(
            f"ergodicity checkpoints start at max(2 t_start, t_start + 1) = {first:g}; "
            f"the records end at t = {t1:g}, they must run beyond it")
    ts = _checkpoints(first, t1, per_decade)
    target = QuantileTarget(rho_inf)
    curves = []
    finals = []
    for rec in records:
        vals = [target.w2(pos, cum) for pos, cum in _sorted_prefixes(rec, ts)]
        report.series.extend((f"w2_replica{rec.replica}", float(t), d)
                             for t, d in zip(ts, vals))
        curves.append(vals)
        finals.append(vals[-1])
    curves = np.asarray(curves)
    finals = np.asarray(finals)

    xs = np.log(ts) ** (1.0 / (k + 1))
    mean_curve = curves.mean(axis=0)
    slope, intercept = np.polyfit(xs, np.log(np.maximum(mean_curve, 1e-300)), 1)
    a_fit = -float(slope)
    gen = rng.stream(0xE660, 0, rng.RESERVOIR)  # fixed resampling stream
    boots = []
    for _ in range(n_boot):
        pick = gen.integers(0, curves.shape[0], size=curves.shape[0])
        bc = curves[pick].mean(axis=0)
        s, _ = np.polyfit(xs, np.log(np.maximum(bc, 1e-300)), 1)
        boots.append(-float(s))
    lo_band, hi_band = np.percentile(boots, [2.5, 97.5])
    report.fits.append(("decay_exponent", {
        "a": a_fit, "ci_low": float(lo_band), "ci_high": float(hi_band)},
        float(np.std(boots))))

    n_pass = int((finals <= final_w2_bound).sum())
    if min_passing is None:
        min_passing = len(records) - 1
    report.verdicts.append((
        f"final w2 <= {final_w2_bound} for >= {min_passing} replicas",
        n_pass >= min_passing, float(n_pass - min_passing)))
    report.verdicts.append(("fitted decay exponent positive",
                            bool(a_fit > 0 and lo_band > 0), float(lo_band)))
    return report
