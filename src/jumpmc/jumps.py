"""Jump time sampling and the augmented time grid.

Jump times of a process with deterministic intensity lam(t) are the
points where the integrated intensity L(t) = int_0^t lam(s) ds crosses a
unit-rate Poisson process: with iid unit exponentials e_k,

    tau_k = L^{-1}(e_1 + ... + e_k)   while the partial sum < L(T).

The simulation grid is the union of the deterministic mesh and the jump
times; a jump falling within rounding distance of a deterministic node is
merged into that node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import roots_legendre

from .errors import EvaluationError, ParameterError
from .model import JumpDiffusionModel

Array = np.ndarray

COLLISION_RTOL = 1e-14  # jump/deterministic node merge tolerance, times horizon


class IntensityIntegral:
    """Integrated intensity L(t) on [0, horizon] with a monotone inverse.

    Uses model-provided closed forms when available, otherwise composite
    Gauss-Legendre panels with a bracketed root solve for the inverse.
    The intensity must be nonnegative (and within its declared bound)
    wherever it is evaluated.
    """

    def __init__(
        self,
        intensity: Callable[[float], float],
        horizon: float,
        *,
        bound: Optional[float] = None,
        closed_form: Optional[Callable[[float], float]] = None,
        inverse: Optional[Callable[[float], float]] = None,
        panels: int = 64,
        nodes: int = 8,
    ):
        if not horizon > 0.0:
            raise ParameterError(f"horizon must be > 0, got {horizon}")
        self.intensity = intensity
        self.horizon = float(horizon)
        self.bound = bound
        self._closed_form = closed_form
        self._closed_inverse = inverse

        self._edges = np.linspace(0.0, self.horizon, panels + 1)
        xs, ws = roots_legendre(nodes)
        self._gl_x = xs
        self._gl_w = ws

        if closed_form is None:
            panel_vals = np.array(
                [
                    self._gauss(self._edges[i], self._edges[i + 1])
                    for i in range(panels)
                ]
            )
            self._cum = np.concatenate([[0.0], np.cumsum(panel_vals)])
        else:
            # Spot-check nonnegativity on the same lattice the numeric
            # path would use.
            mids = 0.5 * (self._edges[:-1] + self._edges[1:])
            for t in np.concatenate([self._edges, mids]):
                self._check_rate(float(t))
            self._cum = np.array([closed_form(t) for t in self._edges], float)
            if np.any(np.diff(self._cum) < -1e-12):
                raise EvaluationError("closed-form integrated intensity decreases")

    def _check_rate(self, t: float) -> float:
        lam = float(self.intensity(t))
        if lam < 0.0:
            raise EvaluationError(f"intensity is negative at t={t}: {lam}")
        if self.bound is not None and lam > self.bound * (1.0 + 1e-9):
            raise EvaluationError(
                f"intensity at t={t} is {lam}, above its declared bound {self.bound}"
            )
        return lam

    def _gauss(self, lo: float, hi: float) -> float:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        ts = mid + half * self._gl_x
        vals = np.array([self._check_rate(float(t)) for t in ts])
        return half * float(self._gl_w @ vals)

    def value(self, t: float) -> float:
        """L(t) for t in [0, horizon]."""
        if self._closed_form is not None:
            return float(self._closed_form(t))
        t = float(np.clip(t, 0.0, self.horizon))
        k = int(np.searchsorted(self._edges, t, side="right")) - 1
        k = min(max(k, 0), len(self._edges) - 2)
        return float(self._cum[k] + self._gauss(self._edges[k], t))

    @property
    def total(self) -> float:
        """L(horizon)."""
        if self._closed_form is not None:
            return float(self._closed_form(self.horizon))
        return float(self._cum[-1])

    def inverse(self, s: float) -> float:
        """Smallest t with L(t) = s, for s in [0, L(horizon)]."""
        if self._closed_inverse is not None:
            return float(self._closed_inverse(s))
        if s <= 0.0:
            return 0.0
        if s >= self.total:
            return self.horizon
        k = int(np.searchsorted(self._cum, s, side="right")) - 1
        k = min(max(k, 0), len(self._edges) - 2)
        lo, hi = self._edges[k], self._edges[k + 1]
        t = brentq(lambda u: self.value(u) - s, lo, hi, xtol=1e-15)
        # Newton polish; the bracketed solve leaves |L(t) - s| near rounding
        # already, one step tightens it when lam(t) is not tiny.
        lam = self._check_rate(t)
        if lam > 0.0:
            t = float(np.clip(t - (self.value(t) - s) / lam, lo, hi))
        return float(t)


def intensity_integral_for(model: JumpDiffusionModel, **kw) -> IntensityIntegral:
    """IntensityIntegral for a model, using its closed forms when given."""
    return IntensityIntegral(
        model.intensity,
        model.horizon,
        bound=model.intensity_bound,
        closed_form=model.intensity_integral,
        inverse=model.intensity_integral_inverse,
        **kw,
    )


@dataclass(frozen=True)
class JumpRealization:
    """Jump times in (0, horizon) with their marks."""

    times: Array  # (K,), strictly increasing
    marks: Array  # (K, mark_dim)

    @property
    def count(self) -> int:
        return len(self.times)


def jump_times_from_exponentials(
    integral: IntensityIntegral, exponentials: Sequence[float]
) -> Array:
    """Jump times from an explicit unit-exponential supply.

    Deterministic core of :func:`sample_jump_times`, split out so tests can
    drive it with chosen increments.  Raises if the supply is exhausted
    before the partial sums leave [0, L(T)).
    """
    total = integral.total
    times = []
    s = 0.0
    for e in exponentials:
        if e <= 0.0:
            raise ParameterError(f"exponential increments must be > 0, got {e}")
        s += e
        if s >= total:
            return np.array(times)
        times.append(integral.inverse(s))
    raise ParameterError(
        "exponential supply exhausted before the integrated intensity was covered"
    )


def sample_jump_times(
    integral: IntensityIntegral, rng: np.random.Generator
) -> Array:
    """Draw one realization of the jump times on [0, horizon)."""
    total = integral.total
    times = []
    s = rng.exponential()
    while s < total:
        times.append(integral.inverse(s))
        s += rng.exponential()
    return np.array(times)


def sample_marks(
    model: JumpDiffusionModel, times: Array, rng: np.random.Generator
) -> Array:
    """Draw a mark for each jump time from the model's mark sampler."""
    rows = np.empty((len(times), model.mark_dim))
    for k, t in enumerate(times):
        z = np.atleast_1d(np.asarray(model.mark_sampler(float(t), rng), float))
        if z.shape != (model.mark_dim,):
            raise EvaluationError(
                f"mark sampler returned shape {z.shape}, expected ({model.mark_dim},)"
            )
        rows[k] = z
    return rows


def sample_jumps(
    model: JumpDiffusionModel,
    integral: IntensityIntegral,
    time_rng: np.random.Generator,
    mark_rng: np.random.Generator,
) -> JumpRealization:
    """Draw jump times and marks from separate streams."""
    times = sample_jump_times(integral, time_rng)
    marks = sample_marks(model, times, mark_rng)
    return JumpRealization(times=times, marks=marks)


def no_jumps(mark_dim: int = 1) -> JumpRealization:
    """Empty jump realization, mostly for tests and pure-diffusion runs."""
    return JumpRealization(times=np.array([]), marks=np.empty((0, mark_dim)))


@dataclass(frozen=True)
class AugmentedGrid:
    """Union of the deterministic mesh and one realization's jump times.

    ``jump_index[n]`` is the mark row applied at node ``n`` (post-jump
    state) or -1; ``is_det[n]`` marks nodes of the deterministic mesh.
    ``interval_of_step[n]`` is the deterministic interval containing step
    ``n`` (by its left endpoint).
    """

    times: Array  # (N_A + 1,)
    det_times: Array  # (N + 1,)
    jump_index: Array  # (N_A + 1,) int
    is_det: Array  # (N_A + 1,) bool
    marks: Array  # (K, mark_dim)
    collisions: int

    @property
    def dt(self) -> Array:
        return np.diff(self.times)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def n_det(self) -> int:
        return len(self.det_times) - 1

    @property
    def n_jumps(self) -> int:
        return len(self.marks)

    @property
    def interval_of_step(self) -> Array:
        return interval_of_steps(self.det_times, self.times)


def interval_of_steps(det_times: Array, times: Array) -> Array:
    """Index of the deterministic interval holding each step's left node.

    ``times`` are node times along the last axis (any leading axes); the
    result has one entry per step.
    """
    idx = np.searchsorted(det_times, times[..., :-1], side="right") - 1
    return np.clip(idx, 0, len(det_times) - 2)


def build_augmented_grid(
    det_times: Array,
    jumps: JumpRealization,
    *,
    horizon: float,
    collision_rtol: float = COLLISION_RTOL,
) -> AugmentedGrid:
    """Merge jump times into the deterministic mesh.

    A jump within ``collision_rtol * horizon`` of a deterministic node is
    merged into the node (the node keeps its time and becomes a jump
    node), so N_A = N + K - collisions.
    """
    det = np.asarray(det_times, float)
    if det.ndim != 1 or len(det) < 2:
        raise ParameterError("deterministic mesh needs at least two nodes")
    if det[0] != 0.0 or abs(det[-1] - horizon) > 1e-12 * max(1.0, horizon):
        raise ParameterError("deterministic mesh must run from 0 to the horizon")
    if np.any(np.diff(det) <= 0.0):
        raise ParameterError("deterministic mesh must be strictly increasing")

    tau = np.asarray(jumps.times, float)
    if len(tau) and (np.any(np.diff(tau) <= 0.0) or tau[0] <= 0.0 or tau[-1] >= horizon):
        raise ParameterError("jump times must be strictly increasing inside (0, horizon)")

    tol = collision_rtol * horizon
    pos = np.searchsorted(det, tau)
    left = det[np.clip(pos - 1, 0, len(det) - 1)]
    right = det[np.clip(pos, 0, len(det) - 1)]
    use_left = np.abs(tau - left) <= np.abs(right - tau)
    nearest = np.where(use_left, left, right)
    collide = np.abs(tau - nearest) <= tol

    inserted = tau[~collide]
    times = np.sort(np.concatenate([det, inserted]))

    jump_index = np.full(len(times), -1, dtype=np.intp)
    for k in range(len(tau)):
        t_k = nearest[k] if collide[k] else tau[k]
        n = int(np.searchsorted(times, t_k))
        if times[n] != t_k:
            raise EvaluationError("jump time lost while building the grid")
        if jump_index[n] != -1:
            raise EvaluationError("two jumps merged into one grid node")
        jump_index[n] = k

    marks = np.asarray(jumps.marks, float)
    if marks.ndim != 2 or marks.shape[0] != len(tau):
        raise ParameterError(
            f"marks must have shape (n_jumps, mark_dim), got {marks.shape}"
        )
    is_det = np.isin(times, det)
    return AugmentedGrid(
        times=times,
        det_times=det,
        jump_index=jump_index,
        is_det=is_det,
        marks=marks,
        collisions=int(np.count_nonzero(collide)),
    )


def uniform_mesh(horizon: float, n: int) -> Array:
    """Deterministic mesh with n equal steps on [0, horizon]."""
    if n < 1:
        raise ParameterError(f"mesh needs at least one step, got {n}")
    return np.linspace(0.0, horizon, n + 1)
