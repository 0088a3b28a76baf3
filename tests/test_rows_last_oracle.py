"""The rows-last dual and density kernel against the rows-first one it
replaced.

The reference below is the earlier kernel, kept verbatim in its einsum
subscripts: every array carries its row axes first, (B, n, d, ...).  The
rows-last kernel (``duals``, ``density``, ``model.second_moment_arrays``)
must give the same bits: ``propagate`` on random tensors, and the payoff
and per-step ``rho`` of ``controller._path_batch`` on groups of test5 and
of three variants (row-loop callbacks; a denser d_t; wider declared
supports, see below).  The reference evaluates and contracts every
callback in full, whatever the model declares.

The reference's final contractions of the density factors with the
dual weights (``ref_contract``) add their products in the rows-last
kernel's order, one tensor entry after the other; the rows-first einsum
they replaced adds a contiguous run in another order, which shows in
the last bits once three products are nonzero (``dense-d_t``).
``test_rows_last_density`` bounds that move against the earlier form.

Bitwise agreement is a property of these models, not of every model:
the rows-first einsum adds a contiguous run of 3 or more products in a
different order than a rows-last loop, so inner contractions with dense
second-derivative stacks, or wiener_dim >= 2, round differently.  test5's
inner contractions have at most two nonzero products each.
"""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import rows_first_forward  # noqa: E402
from jumpmc import build_model, uniform_mesh  # noqa: E402
from jumpmc import controller as ctl  # noqa: E402
from jumpmc.density import STEP_DENSITY_CALLBACKS  # noqa: E402
from jumpmc.duals import propagate  # noqa: E402
from jumpmc.model import as_vectorized  # noqa: E402
from rows_first_forward import setup_groups, to_rows_first  # noqa: E402

# ---------------------------------------------------------------------------
# rows-first reference kernel


def ref_stack_calls(model, names, t, x, z=None):
    t = np.asarray(t)
    lead = t.shape
    args = (t.reshape(-1), x.reshape(t.size, -1))
    if z is not None:
        args += (z.reshape(t.size, -1),)
    out = {}
    for name in names:
        value = np.asarray(getattr(model, name)(*args), float)
        out[name] = value.reshape(lead + value.shape[1:])
    return out


def ref_propagate(G, phi):
    G1 = G[0]
    out = [np.einsum("bji,bj->bi", G1, phi[0])]
    if len(phi) >= 2:
        t = np.einsum("bji,bjp->bip", G1, phi[1])
        out.append(np.einsum("bip,bpk->bik", t, G1) + np.einsum("bjik,bj->bik", G[1], phi[0]))
    if len(phi) >= 3:
        t0 = np.einsum("bji,bjpr->bipr", G1, phi[2])
        t0 = np.einsum("bipr,bpk->bikr", t0, G1)
        t0 = np.einsum("bikr,brm->bikm", t0, G1)
        v = np.einsum("bji,bjp->bip", G1, phi[1])
        term2 = np.einsum("bip,bpkm->bikm", v, G[1])
        u = np.einsum("bjik,bjp->bikp", G[1], phi[1])
        w = np.einsum("bikp,bpm->bikm", u, G1)
        out.append(
            t0
            + term2
            + w
            + w.transpose(0, 1, 3, 2)
            + np.einsum("bjikm,bj->bikm", G[2], phi[0])
        )
    return out


def ref_dual_stores(model, cb, paths, values, left):
    """Order-3 left-limit weights at nodes 1..N, each (B, n, ...)."""
    B, n = paths.dt.shape
    d = model.dim
    dt, dw = paths.dt, paths.dw
    A = [
        np.eye(d) + dt[..., None, None] * cb["drift_x"]
        + np.einsum("...l,...ilj->...ij", dw, cb["diffusion_x"]),
        dt[..., None, None, None] * cb["drift_xx"]
        + np.einsum("...l,...iljk->...ijk", dw, cb["diffusion_xx"]),
        dt[..., None, None, None, None] * cb["drift_xxx"]
        + np.einsum("...l,...iljkm->...ijkm", dw, cb["diffusion_xxx"]),
    ]
    jrows, jnodes = np.nonzero(paths.jump_flag)
    if len(jrows):
        c = ref_stack_calls(
            model,
            ["jump_x", "jump_xx", "jump_xxx"],
            paths.times[jrows, jnodes],
            left[jrows, jnodes],
            paths.marks[jrows, jnodes],
        )
        C = [np.eye(d) + c["jump_x"], c["jump_xx"], c["jump_xxx"]]
    x_T = values[:, -1]
    phi = [np.asarray(getattr(model, k)(x_T), float) for k in ("payoff_x", "payoff_xx", "payoff_xxx")]
    stores = [np.empty((B, n) + (d,) * (k + 1)) for k in range(3)]
    for p in range(n - 1, -1, -1):
        sel = np.nonzero(jnodes == p + 1)[0]
        if len(sel):
            rows = jrows[sel]
            post = ref_propagate([c_[sel] for c_ in C], [w[rows] for w in phi])
            phi = [w.copy() for w in phi]
            for w, q in zip(phi, post):
                w[rows] = q
        for store, w in zip(stores, phi):
            store[:, p] = w
        phi = ref_propagate([a[:, p] for a in A], phi)
    return stores


def ref_second_moment_arrays(b, b_t, b_x, b_xx):
    bT = np.swapaxes(b, -1, -2)
    dd = 0.5 * b @ bT
    d_t = 0.5 * (b_t @ bT + b @ np.swapaxes(b_t, -1, -2))
    cross = np.einsum("...klj,...ml->...kmj", b_x, b)
    d_x = 0.5 * (cross + np.swapaxes(cross, -3, -2))
    t1 = np.einsum("...klij,...ml->...kmij", b_xx, b)
    t2 = np.einsum("...kli,...mlj->...kmij", b_x, b_x)
    d_xx = 0.5 * (t1 + np.swapaxes(t1, -4, -3) + t2 + np.swapaxes(t2, -4, -3))
    return dd, d_t, d_x, d_xx


def ref_rho_batch(cb, phi, phi1, phi2):
    lead = phi.shape[:2]
    cb = {k: v.reshape((-1,) + v.shape[2:]) for k, v in cb.items()}
    phi, phi1, phi2 = (w.reshape((-1,) + w.shape[2:]) for w in (phi, phi1, phi2))
    a = cb["drift"]
    dd, d_t, d_x, d_xx = ref_second_moment_arrays(
        cb["diffusion"], cb["diffusion_t"], cb["diffusion_x"], cb["diffusion_xx"]
    )
    drift_part = (
        cb["drift_t"]
        + np.einsum("nkj,nj->nk", cb["drift_x"], a)
        + np.einsum("nkij,nij->nk", cb["drift_xx"], dd)
    )
    diff_part = (
        d_t
        + np.einsum("nkmj,nj->nkm", d_x, a)
        + np.einsum("nkmij,nij->nkm", d_xx, dd)
        + 2.0 * np.einsum("nkj,njm->nkm", cb["drift_x"], dd)
    )
    third_part = 2.0 * np.einsum("nkmj,njr->nkmr", d_x, dd)
    rho = 0.5 * (
        ref_contract(drift_part, phi)
        + ref_contract(diff_part, phi1)
        + ref_contract(third_part, phi2)
    )
    return rho.reshape(lead)


def ref_contract(a, b):
    """The (n, t...) products a * b summed over their tensor axes, one
    tensor entry after the other from 0.0 in C order: the order in which
    the rows-last kernel's final contractions add them."""
    products = (a * b).reshape(len(a), -1)
    out = np.zeros(len(a))
    for column in products.T:
        out += column
    return out


def ref_path_batch(model, paths):
    paths = to_rows_first(paths)
    values, left = rows_first_forward.euler_batch(model, paths)
    payoff = np.asarray(model.payoff(values[:, -1]), float)
    names = sorted(set(ctl._SWEEP_CALLBACKS + STEP_DENSITY_CALLBACKS))
    cb = ref_stack_calls(model, names, paths.times[:, :-1], values[:, :-1])
    return payoff, ref_rho_batch(cb, *ref_dual_stores(model, cb, paths, values, left))


# ---------------------------------------------------------------------------


def assert_bits(actual, expected):
    actual, expected = np.ascontiguousarray(actual), np.ascontiguousarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes(), np.max(np.abs(actual - expected))


def rows_last(x):
    """(B, t...) -> (t..., B)."""
    return np.moveaxis(x, 0, -1)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 4),
    B=st.integers(1, 300),
    order=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_propagate_matches_rows_first_oracle(d, B, order, seed):
    rng = np.random.default_rng(seed)
    G = [rng.standard_normal((B,) + (d,) * (k + 2)) for k in range(order)]
    phi = [rng.standard_normal((B,) + (d,) * (k + 1)) for k in range(order)]
    expected = ref_propagate(G, phi)
    actual = propagate(
        [np.ascontiguousarray(rows_last(g)) for g in G],
        [np.ascontiguousarray(rows_last(w)) for w in phi],
    )
    assert len(actual) == order
    for a, e in zip(actual, expected):
        assert_bits(np.moveaxis(a, -1, 0), e)


def dense_d_t_model():
    """test5 whose diffusion_t has a second nonzero entry.

    In test5 each final contraction of ``rho_batch`` sums at most two
    nonzero products, so the order of that sum cannot show.  Here d_t,
    and with it every step's diff_part, has three nonzero entries, so
    diff_part : phi' sums three products and its order shows in the last
    bits; every inner contraction still has at most two nonzero products.
    Only the density reads diffusion_t: paths and duals are test5's.
    """
    base = build_model("test5")

    def diffusion_t(t, x):
        out = base.diffusion_t(t, x).copy()
        out[..., 1, 0] = np.cos(x[..., 1]) / (1.0 + np.asarray(t, float))
        return out

    return replace(base, diffusion_t=diffusion_t)


def wide_support_model():
    """test5 with declared supports wider than its non-zero entries.

    Each diffusion derivative's box then holds two entries along one
    axis, not test5's single one, and drift_xx is undeclared, so its
    full stack of zeros is contracted next to boxes.
    """
    base = build_model("test5")
    return replace(
        base,
        derivative_support={
            "drift_xxx": (),
            "diffusion_x": ((0, 0, 0), (0, 0, 1)),
            "diffusion_xx": ((0, 0, 0, 0), (0, 0, 1, 1)),
            "diffusion_xxx": ((0, 0, 0, 0, 0), (0, 0, 0, 1, 0)),
        },
    )


MODELS = {
    "test5": lambda: build_model("test5"),
    "wide-support": wide_support_model,
    "row-loop": lambda: replace(build_model("test5"), vectorized=False),
    "dense-d_t": dense_d_t_model,
}


@pytest.mark.parametrize(
    "model, n",
    [
        ("test5", 5), ("test5", 40), ("row-loop", 5), ("dense-d_t", 5), ("dense-d_t", 40),
        ("wide-support", 5), ("wide-support", 40),
    ],
)
def test_path_batch_matches_rows_first_oracle(model, n):
    m = MODELS[model]()
    det = uniform_mesh(1.0, n)
    count = 600 if m.vectorized else 60
    kernel = as_vectorized(m)
    groups = setup_groups(kernel, det, 0, count)
    assert len(groups) > 2
    for rows, paths, _ in groups:
        payoff, rho = ctl._path_batch(kernel, paths, rows.tolist(), True)
        ref_payoff, ref_rho = ref_path_batch(kernel, paths)
        assert_bits(payoff, ref_payoff)
        assert_bits(rho, ref_rho)
