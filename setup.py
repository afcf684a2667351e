"""Build script: compiles the optional fast-kernel extension.

The extension builds from the tracked ``_fast.c`` (regenerate it with
``cython -3`` after editing ``_fast.pyx``), so a C compiler and numpy are
all it needs.  It is optional: if it does not build, the package falls
back to pure numpy at import time (same results, slower).
"""

import numpy
from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "cfdetox.kernels._fast",
            ["src/cfdetox/kernels/_fast.c"],
            include_dirs=[numpy.get_include()],
            # no FP contraction: the compiled kernels must produce the
            # same bits as the numpy fallback
            extra_compile_args=["-O3", "-ffp-contract=off"],
            define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
            optional=True,
        )
    ]
)
