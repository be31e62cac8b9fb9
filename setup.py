"""Build script.

The quadruple-scan kernel compiles to a C extension when Cython and a C
compiler are available.  Set CREMLAT_PURE=1 to skip the extension; without
it the package uses the numpy Gromov-product scan in cremlat._delta_py,
which gives identical results.
"""

import os

from setuptools import setup

ext_modules = []
if os.environ.get("CREMLAT_PURE") != "1":
    try:
        from Cython.Build import cythonize
        from setuptools import Extension

        ext_modules = cythonize(
            [Extension("cremlat._delta_cy", ["src/cremlat/_delta_cy.pyx"])],
            compiler_directives={
                "language_level": 3,
                "boundscheck": False,
                "wraparound": False,
            },
        )
    except ImportError:
        ext_modules = []

setup(ext_modules=ext_modules)
