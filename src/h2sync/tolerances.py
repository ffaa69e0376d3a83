"""Central numerical tolerances.

Every threshold is relative to problem scale; the factors (1 + ||A||_2)
etc. are applied at the point of use.  Solvers, checks and norms read
`tolerances.DEFAULT.<field>` when called; to try other values, replace
`tolerances.DEFAULT` (e.g. with `dataclasses.replace`).  The synthesis
memos of `conditions.full_report`, `protocol.design` and
`protocol.ProtocolDesign.realize` key on the record in force, so a
replaced `DEFAULT` takes effect on the next call.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # Riccati residual caps, scaled by (1 + ||A||_2)^2
    care_residual: float = 1e-10
    filter_residual: float = 1e-8
    # Lyapunov residual cap, scaled by (1 + ||A||_2) * (1 + ||X||_2)
    lyapunov_residual: float = 1e-10
    # "on the imaginary axis": |Re(lambda)| at most imag_axis * |lambda|,
    # for the Hamiltonian eigenvalues of the Riccati pre-check and the
    # crossings of the H-infinity level set alike
    imag_axis: float = 1e-9
    # rank decisions: singular values below rank_rel * sigma_max are zero
    rank_rel: float = 1e-9
    # closed-left-half-plane margin, scaled by (1 + ||A||_2)
    clhp_margin: float = 1e-9
    # Laplacian zero-eigenvalue detection, scaled by (1 + ||L||_2)
    zero_eig: float = 1e-8
    # relative symmetry error allowed in returned Riccati solutions
    symmetry: float = 1e-12
    # a matrix is accepted as Hurwitz for Lyapunov solves when its
    # spectral abscissa is below -hurwitz_margin
    hurwitz_margin: float = 1e-12
    # invariant-zero candidates with |z| beyond this radius (times
    # 1 + ||A||_2) are classified as numerically infinite: rounding
    # splits the infinite zero structure into huge finite pairs
    zero_infinity_radius: float = 1e4
    # relative accuracy of the H-infinity level set: the returned norm is
    # (1 + hinf_rel) times a measured gain, within hinf_rel of the norm
    hinf_rel: float = 1e-6


DEFAULT = Tolerances()
