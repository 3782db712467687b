"""edgelca: cradle-to-gate carbon footprint estimation for IoT edge
devices, with framework-wide sensitivity analysis and worldwide-deployment
projections.

Library names are imported from the module that defines them, e.g.
`from edgelca.estimator import evaluate_profile`; the package root holds
only `__version__`."""

__version__ = "0.1.0"
