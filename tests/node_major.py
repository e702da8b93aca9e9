"""The node-major image of a Jacobian, as the package mapped it before
every kernel took C-ordered rows: a test oracle for the cone and the
Gauss-Newton step."""

from gncoder.operators import GaussianConvolutionOperator


def node_major_image(forward, jac):
    """``forward`` of every column of a C-ordered ``(node_count, n*)``
    ``jac``, with the node-major path's bits: one ``F @ jac`` product under
    the 1-D Gaussian, else the transposed view of ``apply_rows`` of
    ``jac.T``."""
    grid = forward.in_grid
    if isinstance(forward, GaussianConvolutionOperator) and grid.dim == 1:
        return forward._factor @ jac / grid.points_per_axis
    return forward.apply_rows(jac.T).T
