"""The benchmark's span tracer (perfbench/tracer.py) still wraps the package."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from segreform import cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_attributes():
    """Every attribute of the segreform modules and of their classes, by owner."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "segreform" or name.startswith("segreform.")):
            continue
        out[name] = dict(vars(mod))
        for attr, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == name:
                out[f"{name}.{attr}"] = dict(vars(obj))
    return out


def test_tracer_counts_a_pipeline_and_uninstalls(tmp_path, capsys):
    tracer_module = load_tracer()
    for short in tracer_module.MODULES:  # the CLI imports most layers only when a command runs
        importlib.import_module(f"segreform.{short}")
    before = package_attributes()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        inst = str(tmp_path / "he22.json")
        assert cli.main(["gen", "2", "2", "0", "--he", "1.0", "--out", inst]) == 0
        assert cli.main(["check", "kl", "--in", inst]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    counts = tracer.counts()
    assert counts["exterior.wedge_calls"] > 0
    assert counts["curvature.chern_calls"] > 0
    after = package_attributes()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys()
        for attr, obj in attrs.items():
            assert after[owner][attr] is obj, f"{owner}.{attr} left patched"


def test_traced_counters_see_the_moment_fiber_and_wedge_work(tmp_path, capsys):
    # the counters the benchmark's traced run reports; each names library functions
    # and parameters, so a rename that drops one shows here as a zero
    tracer_module = load_tracer()
    for short in tracer_module.MODULES:
        importlib.import_module(f"segreform.{short}")
    inst = str(tmp_path / "he22.json")
    assert cli.main(["gen", "2", "2", "1", "--he", "1.0", "--out", inst]) == 0
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert cli.main(["verify", "moments", "--r", "2", "--k", "1", "--samples", "100"]) == 0
        assert cli.main(["verify", "pushforward", "--in", inst, "--k", "1",
                         "--samples", "10"]) == 0
        assert cli.main(["check", "lhe", "--in", inst, "--samples", "10"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    counts = tracer.counts()
    for counter in ("moments.wick_terms", "moments.mc_samples", "projective.directions",
                    "exterior.coeffs_out"):
        assert counts[counter] > 0, counter
