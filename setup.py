"""Legacy setup shim so `pip install -e . --no-use-pep517` works offline
(the sandbox has setuptools but no `wheel` package).

Also declares the optional native propagation kernel (``repro._native``, a
plain C extension over the flat array layout — see DESIGN.md "Native
propagation kernel").  The build is best-effort: on a machine without a C
compiler the extension is skipped with a notice and the package installs
pure-Python, where ``--engine native`` falls back to the counters backend
(loudly — see repro.core.engine.native).  Build it in place for a source
checkout with::

    python setup.py build_ext --inplace
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the native kernel when possible; never fail the install.

    Any compiler/toolchain error degrades to a notice: the pure-Python
    counters backend is complete and decision-identical, the extension is
    purely a speed layer.  ``REPRO_REQUIRE_NATIVE=1`` (checked at *solve* time, not
    here) is the knob for refusing to run without it.
    """

    def run(self):
        try:
            super().run()
        except Exception as exc:  # toolchain missing entirely
            self._skip(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # compile/link failure for this extension
            self._skip(exc)

    def _skip(self, exc):
        print(
            "warning: building the optional native kernel failed (%s); "
            "installing pure-Python. `--engine native` will fall back to "
            "the counters backend." % (exc,)
        )


setup(
    ext_modules=[
        Extension(
            "repro._native",
            sources=["src/repro/_native.c"],
            optional=True,
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
