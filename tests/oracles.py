"""Reference computations that tests compare the package against."""

import numpy as np


def vertex_volume_weights(space) -> np.ndarray:
    """Integrals of the P1 basis functions: w_i = sum |T|/4 over cells at i."""
    w = np.zeros(space.ndof)
    np.add.at(w, space.mesh.cells.ravel(), np.repeat(space.mesh.volumes / 4.0, 4))
    return w
