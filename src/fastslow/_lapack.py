"""scipy's compiled LAPACK, without scipy.linalg's Python layer.

The package calls five LAPACK routines: ``sgbsv`` (steady band steps),
``dgttrf``/``dgttrs`` (the fast-time implicit stage) and ``dgees``/``dtrsyl``
(the GQL split).  All five live in one compiled extension,
``scipy.linalg._flapack``, which needs only numpy.  ``import scipy.linalg``
costs about 0.15 s and 28 MB more on a 2-vCPU VM, mostly in
``scipy._lib._array_api``, which pulls in ``numpy.f2py`` and ``numpy.testing``.

So the extension file is loaded on its own, under its own name, and entered
in ``sys.modules`` under that name: a later ``import scipy.linalg`` (whose
modules write ``from scipy.linalg import _flapack``) finds this module object
and does not initialise it again, and an earlier one is reused here.  Where
the file is not found, or does not load on its own, the ordinary import is
taken.

:func:`real_schur` and :func:`solve_sylvester` make exactly the LAPACK calls
of ``scipy.linalg.schur(a, output="real", sort=select)`` and
``scipy.linalg.solve_sylvester``, raise the same errors, and so return the
same bits.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

_NAME = "scipy.linalg._flapack"


def _extension_path():
    """The extension's file in the installed scipy, found without importing
    scipy, or None."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    linalg = os.path.join(spec.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(linalg, "_flapack" + suffix)
        if os.path.isfile(path):
            return path
    return None


def _load():
    module = sys.modules.get(_NAME)
    if module is not None:
        return module
    path = _extension_path()
    if path is not None:
        loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
        try:
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(_NAME, path, loader=loader))
            loader.exec_module(module)
        except ImportError:  # e.g. shared libraries that only scipy's own import locates
            pass
        else:
            sys.modules[_NAME] = module  # single-phase init has done so already
            return module
    from scipy.linalg import _flapack
    return _flapack


_flapack = _load()
sgbsv = _flapack.sgbsv
dgttrf = _flapack.dgttrf
dgttrs = _flapack.dgttrs
dgees = _flapack.dgees
dtrsyl = _flapack.dtrsyl


def _unsorted(re, im=None):  # never called: sort_t = 0
    return None


def real_schur(a, select=None):
    """``scipy.linalg.schur(a, output="real", sort=select)`` for a float64
    square matrix: ``(T, Z, sdim)``, with ``sdim = 0`` when ``select`` is None.

    ``select(re, im)`` marks the eigenvalues to lead.  A workspace query comes
    first, then the factorisation, as in scipy.
    """
    a = np.asarray_chkfinite(a)
    lwork = dgees(_unsorted, a, lwork=-1)[-2][0].real.astype(np.int_)
    result = dgees(select or _unsorted, a, lwork=lwork, sort_t=int(select is not None))
    info, n = result[-1], a.shape[0]
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info == n + 1:
        raise np.linalg.LinAlgError("Eigenvalues could not be separated for reordering.")
    if info == n + 2:
        raise np.linalg.LinAlgError("Leading eigenvalues do not satisfy sort condition.")
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return result[0], result[-3], result[1]


def solve_sylvester(a, b, q):
    """``X`` with ``a X + X b = q``, as ``scipy.linalg.solve_sylvester``
    (Bartels-Stewart) computes it for float64 matrices."""
    r, u, _ = real_schur(a)
    s, v, _ = real_schur(b.T)
    f = np.dot(np.dot(u.T, q), v)
    y, scale, info = dtrsyl(r, s, f, tranb="C")
    y = scale * y
    if info < 0:
        raise np.linalg.LinAlgError(f"Illegal value encountered in the {-info} term")
    return np.dot(np.dot(u, y), v.T)
