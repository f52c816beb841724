"""bvflow: a numerical laboratory for almost-everywhere flows of BV
vector fields on the torus.

The package verifies, at desk scale, every constructive ingredient of
the two-variable uniqueness argument for such flows: anisotropic
position-dependent mollifiers and their exact normalization, the
rank-one geometry of jump derivatives, the kernel-weighted discrepancy
functional and its decomposition, the 1/(1+gamma) suppression of the
singular contribution, and the resulting Gronwall bookkeeping.

Modules
-------
torus        geometry and tensor quadrature on [0, 1)^N
catalog      explicit fields A..E with closed-form derivative structure
kernels      the mollifier family rho(x, z) = F0(|U(x) z|^2) det U(x)
flow         ensemble integration, densities, flow maps
functionals  the discrepancy functional, its decomposition, bounds
experiments  scenario runner, rate fits, the check battery's entry point
gates        one function per checked invariant, shared by ``bvflow check``
             and the acceptance criteria
cli          command line front end (catalog / run / sweep / check / fit)

Submodules load on first access (PEP 562), so importing the package,
or ``bvflow.cli``, loads no numpy: the CLI caps the thread pools of the
numerical backends before they start.  The numerical submodules import
numpy only; ``scipy.sparse`` loads when a spline flow map first
evaluates.
"""

import importlib

__all__ = ["catalog", "flow", "functionals", "kernels", "torus"]
__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
