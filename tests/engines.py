"""Engine legs shared by the cross-engine tests."""

import pytest

from repro.core.engine.config import ENGINES
from repro.core.engine.native import native_available

needs_native = pytest.mark.skipif(
    not native_available(), reason="compiled kernel (repro._native) not built"
)

#: the propagation backends this build runs, for tests that loop over them.
BUILT_BACKENDS = ("counters", "native") if native_available() else ("counters",)

#: every engine name a config accepts, as test legs. The native leg skips
#: loudly without the kernel (tests/conftest.py builds it when it can); an
#: alias leg (see ENGINE_ALIASES) runs the backend it names, so it pins the
#: alias end to end.
ENGINE_LEGS = [
    pytest.param(name, marks=needs_native) if name == "native" else name
    for name in ENGINES
]
