"""fastslow._lapack: scipy's compiled LAPACK loaded without scipy.linalg.

``scipy.linalg`` is the reference here: the Schur and Sylvester wrappers must
return its bits and raise its errors.  The import checks run in fresh
interpreters, so this session's own imports do not leak into them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.linalg._decomp_schur
import scipy.linalg._solvers
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import fastslow
from fastslow import _lapack

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
shared = (scipy.linalg.lapack.sgbsv is _lapack.sgbsv
          and sys.modules["scipy.linalg._flapack"] is _lapack._flapack)
print(json.dumps([loaded, shared]))
"""

SCIPY_THEN_FASTSLOW = """
import sys
import scipy.linalg.lapack
ext = sys.modules["scipy.linalg._flapack"]
from fastslow import _lapack
print(scipy.linalg.lapack.sgbsv is _lapack.sgbsv and _lapack._flapack is ext)
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
    """Split, profile (``sgbsv``) and fast-time PDE (``dgttrf``/``dgttrs``)."""
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


# -- the GQL wrappers against scipy.linalg ------------------------------------

ELEMENTS = st.floats(-10.0, 10.0, allow_subnormal=False)


@st.composite
def square_matrices(draw, min_side=2, max_side=6):
    """Real matrices, often with a rotation block on top: a complex pair."""
    n = draw(st.integers(min_side, max_side))
    a = draw(hnp.arrays(np.float64, (n, n), elements=ELEMENTS))
    if n >= 2 and draw(st.booleans()):
        k = draw(st.integers(0, n - 2))
        re, im = draw(st.floats(-50.0, 50.0)), draw(st.floats(1.0, 50.0))
        a[k:k + 2, k:k + 2] += [[re, im], [-im, re]]
    return a


def _magnitude_threshold(a, k):
    """spectral_split's sort: lead with magnitudes above a geometric mean."""
    mags = np.sort(np.abs(np.linalg.eigvals(a)))
    k = k % (len(mags) - 1)
    thresh = float(np.sqrt(mags[k] * mags[k + 1]))
    return lambda re, im: np.hypot(re, im) > thresh


def _outcome(f, *args):
    """Bytes of every result, or the exception's type and message."""
    try:
        result = f(*args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    results = result if isinstance(result, tuple) else (result,)
    return [np.asarray(r).dtype.str + repr(np.shape(r)) + np.asarray(r).tobytes().hex()
            for r in results]


# eigenvalues 0.5 +- 30i and -0.4, and 0.5 +- 3i and -40: a complex pair
# that leads the sort, and one that trails it
PAIR_FAST = np.array([[0.5, -30.0, 1.0], [30.0, 0.5, 2.0], [0.0, 0.0, -0.4]])
PAIR_SLOW = np.array([[0.5, -3.0, 1.0], [3.0, 0.5, 2.0], [0.0, 0.0, -40.0]])


@settings(max_examples=100, deadline=None)
@given(a=square_matrices(), k=st.integers(0, 4))
@example(a=PAIR_FAST, k=0)
@example(a=PAIR_SLOW, k=1)
def test_real_schur_is_scipys_bit_for_bit(a, k):
    select = _magnitude_threshold(a, k)
    expected = _outcome(lambda: sla.schur(a, output="real", sort=select))
    assert _outcome(lambda: _lapack.real_schur(a, select)) == expected
    assert _outcome(lambda: _lapack.real_schur(a)[:2]) == _outcome(sla.schur, a)


def test_the_examples_have_a_schur_block_on_each_side():
    T, _, sdim = _lapack.real_schur(PAIR_FAST, _magnitude_threshold(PAIR_FAST, 0))
    assert sdim == 2 and T[1, 0] != 0.0
    T, _, sdim = _lapack.real_schur(PAIR_SLOW, _magnitude_threshold(PAIR_SLOW, 1))
    assert sdim == 1 and T[2, 1] != 0.0


@settings(max_examples=100, deadline=None)
@given(a=square_matrices(), k=st.integers(0, 4))
@example(a=PAIR_FAST, k=0)
@example(a=PAIR_SLOW, k=1)
def test_the_split_s_sylvester_solve_is_scipys_bit_for_bit(a, k):
    """R11 X - X R22 = -R12 on a sorted Schur form, as spectral_split solves it."""
    try:
        R, _, n_f = sla.schur(a, output="real", sort=_magnitude_threshold(a, k))
    except np.linalg.LinAlgError:
        return
    if not 0 < n_f < a.shape[0]:
        return
    args = (R[:n_f, :n_f], -R[n_f:, n_f:], -R[:n_f, n_f:])
    assert _outcome(_lapack.solve_sylvester, *args) == _outcome(sla.solve_sylvester, *args)


@settings(max_examples=60, deadline=None)
@given(a=square_matrices(1, 5), b=square_matrices(1, 5), data=st.data())
def test_sylvester_is_scipys_bit_for_bit(a, b, data):
    q = data.draw(hnp.arrays(np.float64, (a.shape[0], b.shape[0]), elements=ELEMENTS))
    assert _outcome(_lapack.solve_sylvester, a, b, q) == _outcome(sla.solve_sylvester, a, b, q)


def _with_info(routine, info):
    """``routine`` with its ``info`` replaced, except on workspace queries."""
    def stub(*args, **kwargs):
        result = routine(*args, **kwargs)
        return result if kwargs.get("lwork") == -1 else result[:-1] + (info,)
    return stub


@pytest.mark.parametrize("info", [-2, 1, 3, 4, 5])
def test_schur_failures_raise_as_scipy_raises(monkeypatch, info):
    """For n = 3: an illegal argument, QR failure, and the two reordering
    failures (n + 1, n + 2)."""
    select = _magnitude_threshold(PAIR_SLOW, 1)
    stub = _with_info(_lapack.dgees, info)
    monkeypatch.setattr(scipy.linalg._decomp_schur, "get_lapack_funcs", lambda names, arrays: (stub,))
    monkeypatch.setattr(_lapack, "dgees", stub)
    expected = _outcome(lambda: sla.schur(PAIR_SLOW, output="real", sort=select))
    assert isinstance(expected, tuple)
    assert _outcome(_lapack.real_schur, PAIR_SLOW, select) == expected


@pytest.mark.parametrize("info", [-3, 1])
def test_sylvester_info_is_handled_as_scipy_handles_it(monkeypatch, info):
    """A negative ``info`` raises; a positive one (perturbed eigenvalues) is
    ignored by both."""
    stub = _with_info(_lapack.dtrsyl, info)
    monkeypatch.setattr(scipy.linalg._solvers, "get_lapack_funcs", lambda names, arrays: (stub,))
    monkeypatch.setattr(_lapack, "dtrsyl", stub)
    args = (PAIR_SLOW[:2, :2], -PAIR_SLOW[2:, 2:], -PAIR_SLOW[:2, 2:])
    expected = _outcome(sla.solve_sylvester, *args)
    assert isinstance(expected, tuple) == (info < 0)
    assert _outcome(_lapack.solve_sylvester, *args) == expected
