"""Property tests of the exact operator identities over random inputs.

Hypothesis draws the bands, amplitudes and seeds of band-limited xi, Q, f
and g; every grid is alias-free for the drawn bands
(``operators.alias_free_grid``), so each identity is a round-off statement.
The draws are derandomized and few, so the suite stays deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sbq import operators as op
from sbq import spectral as sp

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None, database=None)

bands = st.integers(min_value=1, max_value=6)
amplitudes = st.floats(min_value=0.1, max_value=10.0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@PROPERTY
@given(band_xi=bands, band_f=bands, amp_xi=amplitudes, amp_f=amplitudes, seed=seeds)
def test_cancellation_identity(band_xi, band_f, amp_xi, amp_f, seed):
    # <L_xi^2 f, f> + <L_xi f, L_xi f> = 0 for divergence-free xi
    grid = op.alias_free_grid(band_xi, band_f)
    rng = np.random.default_rng(seed)
    xi = sp.random_divergence_free(grid, rng, band_xi, amplitude=amp_xi)
    f = sp.random_field(grid, rng, band_f, amplitude=amp_f)
    scale = max(1.0, sp.sobolev_norm(xi.u1, 1.0) ** 2 + sp.sobolev_norm(xi.u2, 1.0) ** 2) \
        * max(1.0, sp.sobolev_norm(f, 1.0) ** 2)
    assert abs(op.cancellation_residual(xi, f)) <= 1e-10 * scale


@PROPERTY
@given(band_q=bands, band_f=bands, amps=st.lists(amplitudes, min_size=5, max_size=5),
       seed=seeds)
def test_adjoint_defect_identity(band_q, band_f, amps, seed):
    # <Qf, g> + <f, Qg> = <Ef, g> with e = 2c - a_x - b_y
    grid = op.alias_free_grid(band_q, band_f)
    rng = np.random.default_rng(seed)
    q = op.FirstOrderOp(*(sp.random_field(grid, rng, band_q, amplitude=a)
                          for a in amps[:3]))
    f = sp.random_field(grid, rng, band_f, amplitude=amps[3])
    g = sp.random_field(grid, rng, band_f, amplitude=amps[4])
    size = max(sp.sobolev_norm(c, 1.0) for c in (q.a, q.b, q.c))
    scale = max(1.0, size) * sp.l2_norm(f) * sp.l2_norm(g)
    assert abs(op.adjoint_defect(q, f, g)) <= 1e-10 * scale
