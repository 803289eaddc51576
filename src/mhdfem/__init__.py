"""Structure-preserving finite elements for stationary incompressible
magnetohydrodynamics in magnetic-field/electric-field variables."""

import logging

__version__ = "0.1.0"

# silent unless the application configures logging
logging.getLogger("mhdfem").addHandler(logging.NullHandler())
