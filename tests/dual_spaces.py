"""Dual spaces written as SpaceSpecs, an independent reference for the
dual norm rules of ``spaces``.

``dual_space(space)`` is a space whose primal norm is the dual norm of
``space``: its weighted, product, Sobolev and normalized-measure duals are
each spelled out again as a SpaceSpec, so comparing its ``norm`` with
``spaces.dual_norm`` checks the library's dual rules against a second
derivation of them.
"""

import numpy as np

from bwgan.spaces import (SpaceError, SpaceSpec, dual_exponent, lp_space,
                          sobolev_space, weighted_space)


def dual_space(space: SpaceSpec) -> SpaceSpec:
    """A SpaceSpec whose norm is the dual norm of ``space``.

    Used for double-dual consistency checks; normalized-measure duals are
    expressed as a scalar-weighted normalized space.
    """
    q = dual_exponent(space.p)
    if space.family in ("lp", "sobolev"):
        if space.family == "lp":
            base = lp_space(q)
        else:
            base = sobolev_space(-space.s, q, space.signal_shape,
                                 space.frequency_scale)
        if space.measure == "counting":
            return base
        base.measure = "normalized"
        n = space.size
        if n is None:
            raise SpaceError("normalized lp dual space needs a fixed size; "
                             "use dual_norm directly")
        return weighted_space(base, np.full(n, float(n)))
    if space.family == "weighted":
        return weighted_space(dual_space(space.base), 1.0 / space.weight)
    return SpaceSpec("product", p=q,
                     factors=tuple((dual_space(sub), sz) for sub, sz in space.factors))
