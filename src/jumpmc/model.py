"""Problem definitions for jump-diffusion weak approximation.

A model bundles the coefficient functions of the SDE

    dX(t) = a(t, X) dt + b(t, X) dW(t) + jump part,

where jumps arrive with deterministic time intensity ``intensity(t)`` and
add ``c(t, X(t-), z)`` to the state for a mark ``z`` drawn from the
time-dependent mark distribution.  Derivative callbacks follow a
component-first layout throughout:

    drift_x(t, x)[i, j]        = d a_i / d x_j
    diffusion_x(t, x)[i, l, j] = d b_i^l / d x_j
    jump_x(t, x, z)[i, j]      = d c_i / d x_j

and so on for higher orders, with the extra derivative axes appended on
the right.  Scalar calls take ``t`` as a float and ``x`` of shape ``(dim,)``;
models built by this module additionally broadcast over leading axes and
advertise that with ``vectorized=True``.

A model may declare in ``derivative_support`` which entries of the
second and third state derivatives of the drift, and of the first to
third of the diffusion, may be non-zero (``SUPPORT_AXES`` names them).
The batched kernel then copies and contracts only the bounding box of
each declared support, and never evaluates a callback whose support is
empty.  Dropping a term that is exactly zero leaves every other bit in
place, except for the sign of a zero and for 0 * inf, which is NaN in
full and absent in the box.  The support is static, so what is dropped
cannot depend on chunk size or worker count.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, ParameterError

Array = np.ndarray


@dataclass(frozen=True)
class JumpDiffusionModel:
    """Coefficient functions and derivatives for one jump-diffusion problem.

    Only ``drift``, ``diffusion``, ``jump``, ``intensity``, ``mark_sampler``
    and ``payoff`` are needed to simulate.  Dual weights of order ``p``
    additionally need the state derivatives of drift/diffusion/jump/payoff
    up to order ``p``; the per-step error density needs first time
    derivatives as well.  Missing derivatives can be filled with
    :func:`finite_difference_adapter`.

    ``derivative_support`` maps names among ``SUPPORT_AXES`` to the index
    tuples of the entries that may be non-zero; every other entry of that
    tensor is zero everywhere, and an empty support declares the whole
    callback zero, which may then be omitted (module docstring).  Each
    declared callback that is given is checked to vanish outside its
    support at (0, x0).
    """

    dim: int
    wiener_dim: int
    mark_dim: int

    drift: Callable[[float, Array], Array]
    diffusion: Callable[[float, Array], Array]
    jump: Callable[[float, Array, Array], Array]
    intensity: Callable[[float], float]
    intensity_bound: float
    mark_sampler: Callable[[float, np.random.Generator], Array]
    payoff: Callable[[Array], float]

    x0: Array = None
    horizon: float = 1.0

    drift_t: Optional[Callable] = None
    drift_x: Optional[Callable] = None
    drift_xx: Optional[Callable] = None
    drift_xxx: Optional[Callable] = None
    diffusion_t: Optional[Callable] = None
    diffusion_x: Optional[Callable] = None
    diffusion_xx: Optional[Callable] = None
    diffusion_xxx: Optional[Callable] = None
    jump_x: Optional[Callable] = None
    jump_xx: Optional[Callable] = None
    jump_xxx: Optional[Callable] = None
    payoff_x: Optional[Callable] = None
    payoff_xx: Optional[Callable] = None
    payoff_xxx: Optional[Callable] = None

    # Closed forms for the integrated intensity and its inverse, an optional
    # pair; without them jumps.IntensityIntegral tabulates the intensity.
    intensity_integral: Optional[Callable[[float], float]] = None
    intensity_integral_inverse: Optional[Callable[[float], float]] = None

    # Callbacks accept leading batch axes on x (and matching t arrays).
    vectorized: bool = False
    exact_value: Optional[float] = None
    name: str = "model"
    derivative_support: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError(f"dim must be >= 1, got {self.dim}")
        if self.wiener_dim < 1:
            raise ParameterError(f"wiener_dim must be >= 1, got {self.wiener_dim}")
        if self.mark_dim < 1:
            raise ParameterError(f"mark_dim must be >= 1, got {self.mark_dim}")
        if not self.intensity_bound >= 0.0:
            raise ParameterError(
                f"intensity_bound must be >= 0, got {self.intensity_bound}"
            )
        if not self.horizon > 0.0:
            raise ParameterError(f"horizon must be > 0, got {self.horizon}")
        x0 = np.zeros(self.dim) if self.x0 is None else np.asarray(self.x0, float)
        if x0.shape != (self.dim,):
            raise ParameterError(f"x0 must have shape ({self.dim},), got {x0.shape}")
        object.__setattr__(self, "x0", x0)
        support, shapes = {}, {}
        for name, entries in dict(self.derivative_support).items():
            if name not in SUPPORT_AXES:
                raise ParameterError(
                    f"derivative_support may name only {sorted(SUPPORT_AXES)}, "
                    f"got {name!r}"
                )
            shape = shapes[name] = tuple(
                self.dim if axis == "x" else self.wiener_dim for axis in SUPPORT_AXES[name]
            )
            try:
                support[name] = tuple(tuple(map(operator.index, e)) for e in entries)
            except TypeError:
                raise ParameterError(
                    f"derivative_support of {name} must list index tuples"
                ) from None
            for entry in support[name]:
                if len(entry) != len(shape) or not all(
                    0 <= i < n for i, n in zip(entry, shape)
                ):
                    raise ParameterError(
                        f"derivative_support of {name}: {entry} is not an "
                        f"index of its shape {shape}"
                    )
        object.__setattr__(self, "derivative_support", support)
        # a vectorized model's callbacks take rows: probe one
        t, x = (np.zeros(1), x0[None]) if self.vectorized else (0.0, x0)
        for name in sorted(support):
            fn = getattr(self, name)
            if fn is None:
                continue
            value = np.asarray(fn(t, x), float)
            shape = np.shape(t) + shapes[name]
            if value.shape != shape:
                raise ParameterError(f"{name} returned shape {value.shape}, not {shape}")
            outside = np.ones(shape, bool)
            for entry in support[name]:
                outside[(...,) + entry] = False
            if np.any(value[outside] != 0.0):
                raise ParameterError(
                    f"{name} is not zero outside its declared support at (0, x0)"
                )

    def derivative_box(self, name: str):
        """Slices of the bounding box of ``name``'s declared support, one
        per tensor axis (empty for an empty support); None when ``name``
        declares none, so that every entry may be non-zero."""
        entries = self.derivative_support.get(name)
        if entries is None:
            return None
        if not entries:
            return (slice(0, 0),) * len(SUPPORT_AXES[name])
        return tuple(slice(min(axis), max(axis) + 1) for axis in zip(*entries))

    def require(self, *names: str) -> None:
        """Raise CapabilityError unless every named callback is present or
        declared zero by an empty support."""
        missing = [
            n for n in names
            if getattr(self, n) is None and self.derivative_support.get(n) != ()
        ]
        if missing:
            raise CapabilityError(
                f"model '{self.name}' lacks callbacks required here: "
                + ", ".join(missing)
            )


# The derivative callbacks a model may declare a support for, by their
# tensor axes: x a state component, w a Wiener channel.
SUPPORT_AXES = {
    "drift_xx": "xxx",
    "drift_xxx": "xxxx",
    "diffusion_x": "xwx",
    "diffusion_xx": "xwxx",
    "diffusion_xxx": "xwxxx",
}

_PAYOFF_CALLBACKS = ("payoff", "payoff_x", "payoff_xx", "payoff_xxx")
_TIMED_CALLBACKS = (
    "drift", "drift_t", "drift_x", "drift_xx", "drift_xxx",
    "diffusion", "diffusion_t", "diffusion_x", "diffusion_xx", "diffusion_xxx",
    "jump", "jump_x", "jump_xx", "jump_xxx",
)


def _row_loop(fn, timed: bool = True):
    """Batched form of a scalar callback: one call per leading row.

    ``timed`` callbacks take (t, x[, z]) with ``t`` passed as a float;
    payoff callbacks take x alone.
    """

    def each_row(*args):
        if timed:
            t, rest = args[0], args[1:]
            rows = (fn(float(t[i]), *(a[i] for a in rest)) for i in range(len(t)))
        else:
            rows = (fn(x) for x in args[0])
        return np.array([np.asarray(r, float) for r in rows])

    return each_row


def as_vectorized(model: JumpDiffusionModel) -> JumpDiffusionModel:
    """``model`` if its callbacks broadcast over rows, else a copy whose
    callbacks loop over the rows of their batched arguments."""
    if model.vectorized:
        return model
    loops = {
        name: _row_loop(getattr(model, name), name in _TIMED_CALLBACKS)
        for name in _TIMED_CALLBACKS + _PAYOFF_CALLBACKS
        if getattr(model, name) is not None
    }
    return dataclasses.replace(model, vectorized=True, **loops)


def _oscillator_callbacks():
    """Coefficient callbacks for the built-in oscillator problem.

    State (x1, x2), one Wiener channel, scalar marks:

        a = (-x2, x1 + x2 / (2 (1+t)))
        b = ((sin x1) / (1+t), 0)^T
        c = (0, z cos(x1) / sqrt(1+t) - x2)

    jump intensity 1 / (1+t), payoff |x|^2.  All callbacks broadcast over
    leading axes of x.
    """

    def drift(t, x):
        t = np.asarray(t, float)
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([-x2, x1 + 0.5 * x2 / (1.0 + t)], axis=-1)

    def drift_t(t, x):
        t = np.asarray(t, float)
        x2 = x[..., 1]
        z = np.zeros_like(x2)
        return np.stack([z, -0.5 * x2 / (1.0 + t) ** 2], axis=-1)

    def drift_x(t, x):
        t = np.asarray(t, float)
        x1 = x[..., 0]
        one = np.ones_like(x1)
        zero = np.zeros_like(x1)
        lam = 1.0 / (1.0 + t) * one
        row0 = np.stack([zero, -one], axis=-1)
        row1 = np.stack([one, 0.5 * lam], axis=-1)
        return np.stack([row0, row1], axis=-2)

    def drift_xx(t, x):
        return np.zeros(x.shape[:-1] + (2, 2, 2))

    def drift_xxx(t, x):
        return np.zeros(x.shape[:-1] + (2, 2, 2, 2))

    def diffusion(t, x):
        t = np.asarray(t, float)
        x1 = x[..., 0]
        top = np.sin(x1) / (1.0 + t)
        return np.stack([top, np.zeros_like(top)], axis=-1)[..., None]

    def diffusion_t(t, x):
        t = np.asarray(t, float)
        x1 = x[..., 0]
        top = -np.sin(x1) / (1.0 + t) ** 2
        return np.stack([top, np.zeros_like(top)], axis=-1)[..., None]

    def _b_deriv(t, x, fn, order):
        # Only d^k b_1^1 / d x1^k is nonzero; fn gives that entry.
        t = np.asarray(t, float)
        x1 = x[..., 0]
        val = fn(t, x1)
        out = np.zeros(x.shape[:-1] + (2, 1) + (2,) * order)
        out[(..., 0, 0) + (0,) * order] = val
        return out

    def diffusion_x(t, x):
        return _b_deriv(t, x, lambda t, x1: np.cos(x1) / (1.0 + t), 1)

    def diffusion_xx(t, x):
        return _b_deriv(t, x, lambda t, x1: -np.sin(x1) / (1.0 + t), 2)

    def diffusion_xxx(t, x):
        return _b_deriv(t, x, lambda t, x1: -np.cos(x1) / (1.0 + t), 3)

    def jump(t, x, z):
        t = np.asarray(t, float)
        x1, x2 = x[..., 0], x[..., 1]
        c2 = z[..., 0] * np.cos(x1) / np.sqrt(1.0 + t) - x2
        return np.stack([np.zeros_like(c2), c2], axis=-1)

    def jump_x(t, x, z):
        t = np.asarray(t, float)
        x1 = x[..., 0]
        d10 = -z[..., 0] * np.sin(x1) / np.sqrt(1.0 + t)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 1, 0] = d10
        out[..., 1, 1] = -1.0
        return out

    def jump_xx(t, x, z):
        t = np.asarray(t, float)
        x1 = x[..., 0]
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 1, 0, 0] = -z[..., 0] * np.cos(x1) / np.sqrt(1.0 + t)
        return out

    def jump_xxx(t, x, z):
        t = np.asarray(t, float)
        x1 = x[..., 0]
        out = np.zeros(x.shape[:-1] + (2, 2, 2, 2))
        out[..., 1, 0, 0, 0] = z[..., 0] * np.sin(x1) / np.sqrt(1.0 + t)
        return out

    def payoff(x):
        return np.sum(np.square(x), axis=-1)

    def payoff_x(x):
        return 2.0 * x

    def payoff_xx(x):
        return np.broadcast_to(2.0 * np.eye(2), x.shape[:-1] + (2, 2)).copy()

    def payoff_xxx(x):
        return np.zeros(x.shape[:-1] + (2, 2, 2))

    return dict(
        drift=drift,
        drift_t=drift_t,
        drift_x=drift_x,
        drift_xx=drift_xx,
        drift_xxx=drift_xxx,
        diffusion=diffusion,
        diffusion_t=diffusion_t,
        diffusion_x=diffusion_x,
        diffusion_xx=diffusion_xx,
        diffusion_xxx=diffusion_xxx,
        jump=jump,
        jump_x=jump_x,
        jump_xx=jump_xx,
        jump_xxx=jump_xxx,
        payoff=payoff,
        payoff_x=payoff_x,
        payoff_xx=payoff_xx,
        payoff_xxx=payoff_xxx,
    )


class UniformMarks:
    """Mark sampler that maps one uniform per jump through ``quantile``.

    ``quantile(t, u)`` maps the (K,) times and (K,) uniforms of K jumps to
    their (K, mark_dim) marks.  Called as a sampler, ``(t, rng)``, it is
    the K=1 case with ``u = rng.random()``.  The engines recognise the
    class and call ``quantile`` once on the jump times and counter-based
    uniforms of a whole chunk instead (see ``jumps.sample_jump_chunk``);
    any other sampler, including a function wrapping this one, is called
    once per jump.
    """

    def __init__(self, quantile: Callable[[Array, Array], Array]):
        self.quantile = quantile

    def __call__(self, t: float, rng: np.random.Generator) -> Array:
        return self.quantile(np.array([t], float), np.array([rng.random()], float))[0]


def _oscillator_mark_quantile(t: Array, u: Array) -> Array:
    """Marks with mean cos(2 pi t) and a centered uniform spread, (K, 1).

    The uniform part is scaled by 2 sqrt(3) so its variance is 1 before the
    sin(2 pi t) envelope.  The operations and their order are those of the
    scalar ``math`` formula, so each mark has its bits.
    """
    z = np.cos(2.0 * math.pi * t) + np.sin(2.0 * math.pi * t) * (
        2.0 * math.sqrt(3.0)
    ) * (u - 0.5)
    return z[:, None]


_oscillator_mark_sampler = UniformMarks(_oscillator_mark_quantile)


def oscillator_problem() -> JumpDiffusionModel:
    """Built-in two-dimensional oscillator with state-dependent jumps.

    E[|X(1)|^2] = 0.5 exactly, which makes the problem a convenient
    end-to-end check for every estimator in the package.
    """
    cb = _oscillator_callbacks()
    return JumpDiffusionModel(
        dim=2,
        wiener_dim=1,
        mark_dim=1,
        intensity=lambda t: 1.0 / (1.0 + t),
        intensity_bound=1.0,
        intensity_integral=lambda t: math.log1p(t),
        intensity_integral_inverse=lambda s: math.expm1(s),
        mark_sampler=_oscillator_mark_sampler,
        x0=np.zeros(2),
        horizon=1.0,
        vectorized=True,
        exact_value=0.5,
        name="test5",
        derivative_support={
            "drift_xx": (),
            "drift_xxx": (),
            "diffusion_x": ((0, 0, 0),),
            "diffusion_xx": ((0, 0, 0, 0),),
            "diffusion_xxx": ((0, 0, 0, 0, 0),),
        },
        **cb,
    )


def pure_jump_problem() -> JumpDiffusionModel:
    """Oscillator variant with drift and diffusion forced to zero.

    Only the jumps move the state, so the per-step error density vanishes
    identically and E[g(X(T))] has a one-dimensional integral form; both
    make sharp test oracles.
    """
    cb = _oscillator_callbacks()

    def zeros_like_shape(extra):
        def f(t, x, *args):
            return np.zeros(x.shape[:-1] + extra)

        return f

    cb.update(
        drift=zeros_like_shape((2,)),
        drift_t=zeros_like_shape((2,)),
        drift_x=zeros_like_shape((2, 2)),
        drift_xx=zeros_like_shape((2, 2, 2)),
        drift_xxx=zeros_like_shape((2, 2, 2, 2)),
        diffusion=zeros_like_shape((2, 1)),
        diffusion_t=zeros_like_shape((2, 1)),
        diffusion_x=zeros_like_shape((2, 1, 2)),
        diffusion_xx=zeros_like_shape((2, 1, 2, 2)),
        diffusion_xxx=zeros_like_shape((2, 1, 2, 2, 2)),
    )
    return JumpDiffusionModel(
        dim=2,
        wiener_dim=1,
        mark_dim=1,
        intensity=lambda t: 1.0 / (1.0 + t),
        intensity_bound=1.0,
        intensity_integral=lambda t: math.log1p(t),
        intensity_integral_inverse=lambda s: math.expm1(s),
        mark_sampler=_oscillator_mark_sampler,
        x0=np.zeros(2),
        horizon=1.0,
        vectorized=True,
        exact_value=None,
        name="purejump",
        derivative_support=dict.fromkeys(SUPPORT_AXES, ()),
        **cb,
    )


MODELS = {
    "test5": oscillator_problem,
    "purejump": pure_jump_problem,
}


def build_model(name: str) -> JumpDiffusionModel:
    """Look up a built-in model by registry name."""
    try:
        factory = MODELS[name]
    except KeyError:
        raise ParameterError(
            f"unknown model '{name}'; known: {sorted(MODELS)}"
        ) from None
    return factory()


def _central(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def finite_difference_adapter(
    model: JumpDiffusionModel, h: float = 1e-5
) -> JumpDiffusionModel:
    """Fill missing derivative callbacks by central differences.

    Each missing order is differenced from the next lower order (exact if
    the model provides it, itself an FD fill otherwise).  Steps grow with
    the order so higher derivatives are not drowned by rounding: ``h`` for
    first derivatives, ``h**(3/4)`` for second, ``h**(1/2)`` for third.
    A missing callback with an empty declared support is not filled, and
    neither are the missing orders above it.  The declarations are kept.
    """
    if not h > 0.0:
        raise ParameterError(f"finite difference step must be > 0, got {h}")
    d = model.dim
    h1, h2, h3 = h, h ** 0.75, h ** 0.5

    def d_dt(f, step):
        def g(t, x, *args):
            return _central(lambda s: np.asarray(f(s, x, *args), float), t, step)

        return g

    def d_dx(f, step):
        # Appends one x-derivative axis on the right.
        def g(t, x, *args):
            x = np.asarray(x, float)
            cols = []
            for j in range(d):
                e = np.zeros_like(x)
                e[..., j] = step
                cols.append(
                    (
                        np.asarray(f(t, x + e, *args), float)
                        - np.asarray(f(t, x - e, *args), float)
                    )
                    / (2.0 * step)
                )
            return np.stack(cols, axis=-1)

        return g

    def d_dx_payoff(f, step):
        g = d_dx(lambda t, x: f(x), step)
        return lambda x: g(None, x)

    fills = {}

    def chain(base_name, names, differ, steps):
        src = getattr(model, base_name)
        for name, step in zip(names, steps):
            cur = getattr(model, name)
            if cur is None:
                if model.derivative_support.get(name) == ():
                    return  # declared zero: no fill, and no source above it
                cur = differ(src, step)
                fills[name] = cur
            src = cur

    chain("drift", ["drift_x", "drift_xx", "drift_xxx"], d_dx, [h1, h2, h3])
    chain(
        "diffusion",
        ["diffusion_x", "diffusion_xx", "diffusion_xxx"],
        d_dx,
        [h1, h2, h3],
    )
    chain("jump", ["jump_x", "jump_xx", "jump_xxx"], d_dx, [h1, h2, h3])
    chain(
        "payoff",
        ["payoff_x", "payoff_xx", "payoff_xxx"],
        d_dx_payoff,
        [h1, h2, h3],
    )
    if model.drift_t is None:
        fills["drift_t"] = d_dt(model.drift, h1)
    if model.diffusion_t is None:
        fills["diffusion_t"] = d_dt(model.diffusion, h1)
    if not fills:
        return model
    return dataclasses.replace(model, **fills)
