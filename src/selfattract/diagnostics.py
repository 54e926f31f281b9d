"""Cross-module experiment drivers: one-step error of the measure flow
against simulated windows, center convergence, and replica ergodicity with
rate fits.

Every rate constant reported here is a least-squares fit with a bootstrap
band, never an asserted equality: the underlying bounds are existential.

Ergodicity comes in three pieces, so that a caller can work one replica at
a time: `checkpoints` gives the times from a path's config before anything
is simulated, `w2_curve` the W2 curve of one record at those times, and
`ergodicity_check` fits the report from the (replica, curve) pairs.  A
curve is the same arithmetic wherever it runs, so the report does not
depend on where or in which order the curves were computed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import InvalidInputError, NumericFailureError
from .flow import Schedule, _failing_at
from .gibbs import gibbs_map
from .measures import GridDensity, centered, recenter
from .potentials import PotentialSpec
from .powersums import convolution_matrix
from .sde import SimConfig, TrajectoryRecord
from .transport import QuantileTarget, tp_distance_1d
from .transport import w2_distance  # noqa: F401  (bench/tracer.py wraps it here)

_TAIL_THRESHOLD = 0.5   # the center increments' tail sum must stay below this
_PER_DECADE = 10        # ergodicity checkpoints per decade of time


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
    sums, which the record gives at every knot in one pass over the path.
    A `NumericFailureError` of a window's image or distance names the
    window's index and (t0, t1)."""
    report = DiagnosticsReport(experiment="one-step-error")
    windows = [(schedule.time(n), schedule.time(n + 1)) for n in schedule.indices()]
    for t0, t1 in windows:
        if t1 > record.config.t_last + 1e-9 or t0 < record.config.t_start - 1e-9:
            raise InvalidInputError("trajectory does not cover the schedule")
    count = max(2, convolution_matrix(w).shape[0])
    pres = record.power_sums_at([t0 for t0, _ in windows], count)
    errors = []
    for k, ((t0, t1), pre) in enumerate(zip(windows, pres)):
        with _failing_at(f"one-step window {k} (t0 = {t0!r}, t1 = {t1!r})"):
            image = gibbs_map(w, pre, v=v)
            c = record.center_at(t0)
            window = record.window_occupation(t0, t1)
            err = tp_distance_1d(w, recenter(window, c), recenter(image, c))
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


def center_convergence(record: TrajectoryRecord, schedule: Schedule) -> DiagnosticsReport:
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
        seg = record.centers(slice(i0, i1 + 1))
        osc = float(seg.max() - seg.min())
        oscillations.append(osc)
        report.series.append(("window_oscillation", t0, osc))
        report.series.append(("partial_sum", t0, float(partial[n])))
    half = increments.size // 2
    tail_sum = float(increments[half:].sum())
    report.verdicts.append(("increment tail sum below threshold",
                            tail_sum < _TAIL_THRESHOLD, _TAIL_THRESHOLD - tail_sum))
    first = max(oscillations[: max(1, len(oscillations) // 4)])
    last = max(oscillations[-max(1, len(oscillations) // 4):])
    report.verdicts.append(("window oscillation shrinks", last <= first,
                            first - last))
    report.fits.append(("tail_sum", {"value": tail_sum, "half_index": half}, 0.0))
    return report


def checkpoints(sim: SimConfig) -> np.ndarray:
    """The ergodicity checkpoints of a path of ``sim``: `_PER_DECADE` per
    decade, log-spaced from max(2 t_start, t_start + 1) to the path's last
    step `SimConfig.t_last`, which must lie beyond that start."""
    first, last = max(sim.t_start * 2, sim.t_start + 1.0), sim.t_last
    if last <= first:
        raise InvalidInputError(
            f"ergodicity checkpoints start at max(2 t_start, t_start + 1) = {first:g}; "
            f"the paths end at t = {last:g}, they must run beyond it")
    lo, hi = math.log10(first), math.log10(last)
    return np.logspace(lo, hi, max(2, int(round((hi - lo) * _PER_DECADE)) + 1))


_PREFIX_CHUNK = 32768   # atoms per chunk of a sorted prefix


def _sorted_prefixes(rec: TrajectoryRecord, ts: np.ndarray):
    """Per time t: the centered atoms of the occupation up to t in position
    order, with their cumulative weights normalized to end at 1, as an
    iterator of consecutive (positions, cum) chunks of `_PREFIX_CHUNK`
    atoms, to be read before the next time's.

    Each prefix's atoms, the start atom included, are copied into one
    buffer, allocated once, and sorted there; the start atom takes the
    rank of the first of the positions equal to it, where a stable sort of
    the occupation places it.  So the pass holds the buffer and a few
    chunks, whatever the path length.
    """
    first, x0 = rec.first, rec.positions[0]
    buf = np.empty(rec.index_at(ts[-1]) + 1 - first)
    for t in ts:
        i = rec.index_at(t)
        xs = buf[:i + 1 - first]
        xs[:] = rec.positions[first:i + 1]
        xs.sort()
        rank = xs.size if first else int(np.searchsorted(xs, x0, side="left"))
        yield _prefix_chunks(xs, rank, rec.config.t_start, rec.config.dt, rec.center_at(t))


def _prefix_chunks(xs, rank, t_start, dt, c):
    """The chunks of `_sorted_prefixes` for the sorted atoms xs, the start
    atom, of mass t_start, at ``rank`` (xs.size when there is none).
    Cumulative weights are counted, not summed atom by atom: dt (j + 1)
    up to atom j before the start atom, dt j + t_start from it on."""
    n = xs.size
    total = dt * n if rank == n else dt * (n - 1) + t_start
    for s in range(0, n, _PREFIX_CHUNK):
        e = min(s + _PREFIX_CHUNK, n)
        r = min(max(rank, s), e) - s    # the chunk's atoms from the start atom on
        counts = np.arange(s + 1, e + 1)
        counts[r:] -= 1
        cum = dt * counts
        cum[r:] += t_start
        cum /= total
        yield xs[s:e] - c, cum


def w2_curve(w: PotentialSpec, rec: TrajectoryRecord, rho_inf: GridDensity,
             ts: np.ndarray) -> list[float]:
    """Wasserstein distance of the record's centered occupation measure up
    to each checkpoint ``ts`` to the fixed point (centered too when W has a
    center).  The record must reach the last checkpoint.  The pass holds
    one sort buffer and a few chunks beside the record (`_sorted_prefixes`)."""
    end = rec.config.t_last
    if end < ts[-1] - 1e-9:
        raise InvalidInputError(
            f"replica {rec.replica} ends at t = {end:g}, before "
            f"the last ergodicity checkpoint t = {float(ts[-1]):g}")
    target = QuantileTarget(centered(w, rho_inf) if w.convexity_constant > 0 else rho_inf)
    return [target.w2(chunks) for chunks in _sorted_prefixes(rec, ts)]


def ergodicity_check(w: PotentialSpec, ts: np.ndarray, curves: list[tuple[int, list[float]]],
                     final_w2_bound: float = 0.1, min_passing: int | None = None,
                     n_boot: int = 200) -> DiagnosticsReport:
    """The ergodicity report from each replica's `w2_curve` at the
    checkpoints ``ts``, given as (replica, curve) pairs: the curves, a
    fitted decay exponent for exp(-a (log t)^(1/(k+1))) with a bootstrap
    band, and the verdicts on the final distances and the exponent: at
    least ``min_passing`` replicas (by default all but one, and at least
    one) must end within ``final_w2_bound``."""
    if not curves:
        raise InvalidInputError("need at least one replica")
    report = DiagnosticsReport(experiment="ergodicity")
    k = w.bound_degree
    for replica, vals in curves:
        report.series.extend((f"w2_replica{replica}", float(t), d)
                             for t, d in zip(ts, vals))
    curves = np.asarray([vals for _, vals in curves])
    finals = curves[:, -1]

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
    if min_passing is None:   # all but one replica, and at least one
        min_passing = max(1, len(curves) - 1)
    report.verdicts.append((
        f"final w2 <= {final_w2_bound} for >= {min_passing} replicas",
        n_pass >= min_passing, float(n_pass - min_passing)))
    report.verdicts.append(("fitted decay exponent positive",
                            bool(a_fit > 0 and lo_band > 0), float(lo_band)))
    return report
