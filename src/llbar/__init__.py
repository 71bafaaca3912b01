"""Pseudo-spectral laboratory for the Landau-Lifshitz-Baryakhtar equation
on the periodic torus [0, L)^dim, dim in {1, 2, 3}.

The package verifies the structural identities of the flow u_t = F(u),

    F(u) = -lap^2 u - lap u + 2(1-|u|^2)u + 2 lap(|u|^2 u) - u x lap u,

its mollified regularizations, the energy dissipation law, and the
convergence of the mollification parameter to zero, at desk scale.
"""

__version__ = "0.1.0"
