"""scipy's compiled LAPACK, without scipy.linalg's Python layer.

The package calls six LAPACK routines: ``sgbsv`` (steady band steps),
``dgttrf``/``dgttrs`` (the fast-time implicit stage) and
``dgees``/``dtrsen``/``dtrsyl`` (the GQL split).  All six live in one
compiled extension, ``scipy.linalg._flapack``, which needs only numpy.
``import scipy.linalg`` costs about 0.15 s and 28 MB more on a 2-vCPU VM,
mostly in ``scipy._lib._array_api``, which pulls in ``numpy.f2py`` and
``numpy.testing``.

So the extension file is loaded on its own, under its own name, and entered
in ``sys.modules`` under that name: a later ``import scipy.linalg`` (whose
modules write ``from scipy.linalg import _flapack``) finds this module object
and does not initialise it again, and an earlier one is reused here.  Where
the file is not found, or does not load on its own, the ordinary import is
taken.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

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
dtrsen = _flapack.dtrsen
dtrsyl = _flapack.dtrsyl
