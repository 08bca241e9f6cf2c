"""fastslow._lapack: scipy's compiled LAPACK loaded without scipy.linalg.

The import checks run in fresh interpreters, so the test process's own imports
do not leak into them.  ``scipy.linalg.schur`` is the reference for the real
Schur forms the GQL split takes from these bindings.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings, strategies as st

import fastslow
from fastslow import _lapack
from fastslow.errors import NoDecompositionError, SplitConflictError
from fastslow.gql import spectral_split
from test_gql import PAIR_FAST, PAIR_SLOW, square_matrices

SRC = str(Path(fastslow.__file__).resolve().parents[1])
SMALL_CONFIG = {"nodes": 51, "mesh_points_per_axis": 10, "redim1d_points": 41,
                "redim2d_points": [21, 21]}
HEAVY = ("scipy.linalg", "scipy._lib._array_api", "numpy.f2py")


def _python(code, *args):
    """stdout of ``python -c code args`` with this package's source first on the path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


PIPELINE_THEN_SCIPY = """
import json, sys
import fastslow.cli
from fastslow import _lapack
assert fastslow.cli.main(["pipeline", "--config", sys.argv[1], "--out-dir", sys.argv[2]]) == 0
loaded = sorted(m for m in sys.argv[3:] if m in sys.modules)
import scipy.linalg.lapack
shared = (scipy.linalg.lapack.dgbsv is _lapack.dgbsv
          and sys.modules["scipy.linalg._flapack"] is _lapack._flapack)
print(json.dumps([loaded, shared]))
"""

SCIPY_THEN_FASTSLOW = """
import sys
import scipy.linalg.lapack
ext = sys.modules["scipy.linalg._flapack"]
from fastslow import _lapack
print(scipy.linalg.lapack.dgbsv is _lapack.dgbsv and _lapack._flapack is ext)
"""


def test_a_pipeline_leaves_scipy_linalg_unimported(tmp_path):
    """``import fastslow.cli`` and a whole pipeline load none of scipy.linalg's
    Python layer; a later ``import scipy.linalg`` finds the extension module
    fastslow loaded, not a second one."""
    config = tmp_path / "small.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    out = _python(PIPELINE_THEN_SCIPY, config, tmp_path / "out", *HEAVY)
    loaded, shared = json.loads(out.splitlines()[-1])
    assert loaded == [] and shared


def test_scipy_imported_first_lends_its_extension():
    assert _python(SCIPY_THEN_FASTSLOW).strip() == "True"


SOLVES = """
import hashlib, importlib.machinery, sys
import numpy as np
if sys.argv[1] == "fallback":
    importlib.machinery.EXTENSION_SUFFIXES = []  # the extension file is not found
from fastslow.fasttime import measure_fast_time_pde
from fastslow.gql import build_surrogate, default_sample_states, spectral_split
from fastslow.models import equilibrium, michaelis_menten_model
from fastslow.pde import BoundaryConditions, SolverSettings, integrate_to_steady
taken = "scipy.linalg" in sys.modules
model = michaelis_menten_model()
eq = equilibrium(model, [1.0, 0.5, 0.5], tol=1e-13)
dec = spectral_split(build_surrogate(model, default_sample_states(model, extra=[eq])))
bc = BoundaryConditions(left_state=eq, right_state=np.array([2.0, 0.0, 1.0]))
settings = SolverSettings(node_count=51)
profile = integrate_to_steady(model, bc, settings).profile.states
report = measure_fast_time_pde(dec, model, bc, settings, x0=0.8)
digest = hashlib.sha256()
for a in (dec.Z, dec.Z_tilde, profile, np.array([report.t_enter, report.path_length])):
    digest.update(np.ascontiguousarray(a).tobytes())
print(taken, digest.hexdigest())
"""


def test_without_the_extension_file_the_ordinary_import_gives_the_same_bits():
    """Split, profile (``dgbsv``) and fast-time PDE (``dgttrf``/``dgttrs``)."""
    direct = _python(SOLVES, "direct").split()
    fallback = _python(SOLVES, "fallback").split()
    assert direct[0] == "False" and fallback[0] == "True"
    assert direct[1] == fallback[1]


def test_an_extension_that_fails_to_load_falls_back(monkeypatch, tmp_path):
    """A file that is there but does not load (say, a shared library that only
    scipy's own import locates) also takes the ordinary import."""
    bogus = tmp_path / "_flapack.so"
    bogus.write_bytes(b"not a shared library")
    ext = sys.modules[_lapack._NAME]
    monkeypatch.setattr(_lapack, "_extension_path", lambda: str(bogus))
    monkeypatch.delitem(sys.modules, _lapack._NAME)
    monkeypatch.setattr(sla, "_flapack", ext, raising=False)  # what the ordinary import finds
    assert _lapack._load() is ext


# -- the split's Schur form against scipy.linalg ------------------------------

def _bits(r):
    r = np.asarray(r)
    return r.dtype.str + repr(r.shape) + r.tobytes().hex()


# dgees scales a matrix whose largest entry lies outside [SMLNUM, 1 / SMLNUM]
# (LAPACK's sqrt(safe minimum) / precision) before it factors and reorders it
SMLNUM = np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps


@settings(max_examples=100, deadline=None)
@given(a=square_matrices(), ratio=st.floats(1.01, 4.0))
@example(a=PAIR_FAST, ratio=2.0)
@example(a=PAIR_SLOW, ratio=2.0)
def test_real_schur_is_scipys_bit_for_bit(a, ratio):
    """The real Schur forms ``spectral_split`` takes from ``_lapack`` (a
    workspace query, the unsorted ``dgees``, then ``dtrsen`` on the split's
    ``select``) are ``scipy.linalg.schur(a, output="real")`` and, reordered,
    ``scipy.linalg.schur(a, output="real", sort=...)`` selecting the same
    eigenvalues: the same bits, or an error where scipy raises.  The count
    is ``dtrsen``'s, the size of the selection: scipy's tests the reordered
    eigenvalues again, and those of a near-defective cluster move (a pair at
    5.2e-88 came back at 3.3e-8 in 10 of 24,000 draws).  A matrix that
    ``dgees`` scales is reordered scaled by scipy and unscaled here, so only
    its unsorted form is compared (2 of the 44 such draws differ)."""
    calls = []

    def spy(name):
        binding = getattr(_lapack, name)

        def call(*args, **kwargs):
            result = binding(*args, **kwargs)
            calls.append((name, args, kwargs, result))
            return result
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in ("dgees", "dtrsen"):
            mp.setattr(_lapack, name, spy(name))
        try:
            spectral_split(a, min_gap_ratio=ratio)
        except (NoDecompositionError, SplitConflictError):
            pass
    (query, _, query_kw, _), (name, _, kwargs, (R, _, wr, wi, Q, _, info)) = calls[:2]
    assert (query, name) == ("dgees", "dgees") and query_kw == {"lwork": -1}
    assert kwargs["lwork"] > 0 and "sort_t" not in kwargs
    if info != 0:
        with pytest.raises((ValueError, np.linalg.LinAlgError)):
            sla.schur(a, output="real")
        return
    assert [_bits(r) for r in (R, Q)] == [_bits(r) for r in sla.schur(a, output="real")]
    if len(calls) == 2:  # no gap: the split stops before the reordering
        return
    assert len(calls) == 3 and calls[2][0] == "dtrsen"
    _, (select, _, _), _, (R, Q, _, _, m, _, _, info) = calls[2]
    # a threshold midway between the two sides, for scipy's second test
    mags = np.abs(wr + 1j * wi)
    thresh = np.sqrt(mags[~select].max()) * np.sqrt(mags[select].min())
    sort = lambda re, im: np.abs(re + 1j * im) > thresh  # noqa: E731
    if info != 0:
        with pytest.raises((ValueError, np.linalg.LinAlgError)):
            sla.schur(a, output="real", sort=sort)
        return
    assert m == np.count_nonzero(select)
    expected = sla.schur(a, output="real", sort=sort)[:2]
    if SMLNUM <= np.abs(a).max() <= 1.0 / SMLNUM:
        assert [_bits(r) for r in (R, Q)] == [_bits(r) for r in expected]
