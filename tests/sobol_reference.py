"""Reference Sobol' index that the package's indices are checked against.

``group_index`` reads the index of one variable subset straight off the
coefficients, term by term.  It shares no code with
``pcesobol.sensitivity``.
"""

import numpy as np


def group_index(pce, u):
    """Index of the variable subset ``u``: the squared coefficients of the
    terms whose exact support is ``u``, over the sum of every squared
    coefficient but the constant's."""
    u = set(int(i) for i in u)
    c = pce.coefficients
    rows = [
        k
        for k, alpha in enumerate(pce.active_set.degrees)
        if set(np.flatnonzero(alpha).tolist()) == u
    ]
    return float(np.sum(c[rows] ** 2) / np.sum(c[1:] ** 2))
