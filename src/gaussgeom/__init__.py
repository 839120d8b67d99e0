"""Exact verification engine and numeric library for the statistical geometry
of multivariate normal distributions.

The package root exports only ``__version__``; import the submodules
(``gaussgeom.solver``, ``gaussgeom.manifold``, ...) for everything else.  The
root imports none of them; the package depends on numpy and click only.
"""

__version__ = "0.1.0"
