import json
import math
import os
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import segreform
from segreform.exterior import Form


def child_env():
    """os.environ with the imported segreform's source root first on PYTHONPATH,
    less OPENBLAS_NUM_THREADS: importing segreform.cli in this process sets it."""
    src = str(Path(segreform.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env


def load_report_schema():
    """The report JSON schema shipped as segreform package data."""
    with resources.files("segreform").joinpath("report_schema.json").open("r") as fh:
        return json.load(fh)


def validate_report(report_dict):
    """Validate a report dict against the shipped JSON schema (raises on failure)."""
    jsonschema.validate(report_dict, load_report_schema())


def random_form(m, p, q, rng, density=1.0):
    """Random (p,q)-form on C^m with complex standard-normal coefficients."""
    a = np.zeros((math.comb(m, p), math.comb(m, q)), dtype=complex)
    for s, t in np.ndindex(a.shape):  # I outer, J inner, each in lexicographic order
        if rng.uniform() <= density:
            a[s, t] = complex(rng.standard_normal(), rng.standard_normal())
    return Form(m, p, q, a)


def random_hermitian(n, rng, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_spd(n, rng, shift=0.5):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + shift * np.eye(n)


def real_one_one(m, g):
    """The real (1,1)-form sum g[j,k] i dz_j ^ dzbar_k as a raw Form."""
    return Form(m, 1, 1, 1j * np.asarray(g, dtype=complex))


def stderr_units(mean, err, target):
    """Worst gap |mean - target| in standard errors, as the CLI reports it, over the
    coefficients of Forms or the entries of arrays and scalars."""
    mean, err, target = (np.asarray(getattr(x, "a", x)) for x in (mean, err, target))
    return float((np.abs(mean - target) / (np.abs(err) + 1e-12)).max())


def traced_peak(fn, *args, **kwargs):
    """Peak bytes tracemalloc sees allocated while fn(*args, **kwargs) runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
