"""The scipy path of a numeric integrated intensity, kept as a reference.

This is how ``jumps.IntensityIntegral`` computed L(t) = int_0^t lam(s) ds
and its inverse for a model without closed forms before its node table:
64 composite Gauss-Legendre panels of 8 nodes (scipy's
``roots_legendre``), L(t) as the panels below t plus a fresh 8-node rule
on [edge, t], and the inverse as ``brentq`` on the panel that the panel
sums bracket, with ``xtol=1e-15`` and one Newton step.  Every call reads
lam again.  ``test_intensity_oracle`` compares the table against it and
against exact closed forms.
"""

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.optimize import brentq  # noqa: E402
from scipy.special import roots_legendre  # noqa: E402

PANELS = 64
NODES = 8


class ScipyIntensityIntegral:
    """L(t) and its inverse on [0, horizon] by scalar quadrature and a
    bracketed root solve."""

    def __init__(self, intensity, horizon):
        self.intensity = intensity
        self.horizon = float(horizon)
        self._edges = np.linspace(0.0, self.horizon, PANELS + 1)
        self._gl_x, self._gl_w = roots_legendre(NODES)
        panels = [self._gauss(self._edges[i], self._edges[i + 1]) for i in range(PANELS)]
        self._cum = np.concatenate([[0.0], np.cumsum(panels)])

    def _gauss(self, lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        vals = np.array([float(self.intensity(float(t))) for t in mid + half * self._gl_x])
        return half * float(self._gl_w @ vals)

    @property
    def total(self):
        return float(self._cum[-1])

    def value(self, t):
        t = float(np.clip(t, 0.0, self.horizon))
        k = int(np.searchsorted(self._edges, t, side="right")) - 1
        k = min(max(k, 0), PANELS - 1)
        return float(self._cum[k] + self._gauss(self._edges[k], t))

    def inverse(self, s):
        if s <= 0.0:
            return 0.0
        if s >= self.total:
            return self.horizon
        k = int(np.searchsorted(self._cum, s, side="right")) - 1
        k = min(max(k, 0), PANELS - 1)
        lo, hi = self._edges[k], self._edges[k + 1]
        t = brentq(lambda u: self.value(u) - s, lo, hi, xtol=1e-15)
        lam = float(self.intensity(t))
        if lam > 0.0:
            t = float(np.clip(t - (self.value(t) - s) / lam, lo, hi))
        return float(t)
