"""Machine-speed probe: a fixed mix of the kernel types the solver runs.

On a shared machine one core's speed drifts, by up to half between runs a few
minutes apart and for a minute or more at a time (CPU time drifts with wall
time, so this is not waiting).  Raw wall times of two runs are then not
comparable, however long each run is.  The benchmark times this probe before
and after every unit of work and scales the unit's wall time by
``REFERENCE_S / probe time``: end-to-end times read as seconds on a machine
where one probe takes ``REFERENCE_S``.  The probe does not touch the package,
so a change to the solver moves the scaled time exactly as it moves the wall
time at constant machine speed.
"""

import time

import numpy as np
import scipy.sparse as sparse

# probe time on an idle core of the machine the bounds were set on
# (2-CPU x86_64 VM, OpenBLAS 0.3.31, one BLAS thread)
REFERENCE_S = 0.040


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(20150513)
        self.dense = rng.standard_normal((200, 200))
        self.basis = np.linalg.qr(rng.standard_normal((10000, 40)))[0]
        self.vector = rng.standard_normal(10000)
        line = sparse.diags([np.full(99, -1.2), np.full(100, 2.0),
                             np.full(99, -0.8)], [-1, 0, 1])
        eye = sparse.identity(100)
        self.stencil = (sparse.kron(eye, line) + sparse.kron(line, eye)).tocsr()
        self.small = rng.standard_normal((12, 12))

    def time(self):
        """Wall time of one probe: dense products, Gram-Schmidt against a
        tall basis, sparse matvecs and interpreter-bound small operations."""
        t0 = time.perf_counter()
        d = self.dense
        for _ in range(40):
            d @ d
        B, z = self.basis, self.vector
        for _ in range(60):
            c = B.T @ z
            z - B @ c
        for _ in range(200):
            self.stencil @ z
        h = self.small
        for _ in range(2000):
            np.linalg.norm(h @ h[:, 0])
        return time.perf_counter() - t0
