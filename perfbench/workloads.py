"""The benchmark's workloads: fixed CLI pipelines over seeded instances.

A pipeline is a workload's fixed list of `segreform` invocations over the
instances generated for one instance seed.  Each workload generates all of
its instance shapes in every pipeline, so its pipelines do the same work
and their times are comparable.  Every pipeline calls into all nine traced
modules, so no layer's self time is zero by construction.  The program
sees only the generated JSON.
"""

from __future__ import annotations


def exact_algebra(seed, mc_seed, path):
    """A Hermite-Einstein projected random (4,4) instance on the exact paths."""
    inst = path("he44.json")
    return [
        ["gen", "4", "4", str(seed), "--he", "1.0", "--out", inst],
        ["verify", "pushforward", "--in", inst],
        ["verify", "identity9", "--in", inst, "--k", "2", "--samples", "3",
         "--seed", str(mc_seed)],
        ["check", "thm12", "--in", inst],
        ["check", "kl", "--in", inst],
    ]


def fiber_mc(seed, mc_seed, path):
    """A random HE (3,3) instance on the sampling paths, and a projectively
    flat (3,3) instance through the l-Hermite-Einstein levels."""
    he, flat = path("he33.json"), path("flat33.json")
    mc = ["--seed", str(mc_seed)]
    return [
        ["gen", "3", "3", str(seed), "--he", "1.0", "--out", he],
        ["verify", "pushforward", "--in", he, "--k", "2", "--samples", "4000", *mc],
        ["verify", "identity8", "--in", he, "--samples", "20", *mc],
        ["verify", "moments", "--r", "3", "--k", "3", "--samples", "1000000", *mc],
        ["gen", "3", "3", str(seed), "--flat", "--he", "1.0", "--out", flat],
        ["check", "lhe", "--in", flat, "--ell", "3", "--samples", "2000", *mc],
        ["check", "remark41", "--in", flat],
    ]


def cli_small(seed, mc_seed, path):
    """Many (2,2) invocations, each dominated by start-up, I/O and reporting."""
    rand, he, flat, strong = (path(f"{kind}22.json") for kind in ("rand", "he", "flat", "strong"))
    s = str(seed)
    return [
        ["gen", "2", "2", s, "--out", rand],
        ["gen", "2", "2", s, "--he", "1.0", "--out", he],
        ["gen", "2", "2", s, "--flat", "--he", "1.0", "--out", flat],
        ["gen", "2", "2", s, "--strong-flat", "--he", "1.0", "--out", strong],
        ["check", "he", "--in", he],
        ["check", "kl", "--in", he],
        ["check", "surface", "--in", strong],
        ["check", "remark41", "--in", flat],
        ["moments", "--r", "2", "--lambdas", "1", "2", "--mus", "2", "1",
         "--samples", "20000", "--seed", str(mc_seed)],
        ["verify", "pushforward", "--in", rand],
        ["verify", "identity9", "--in", rand, "--samples", "3", "--seed", str(mc_seed)],
    ]


WORKLOADS = {
    "exact-algebra": exact_algebra,
    "fiber-mc": fiber_mc,
    "cli-small": cli_small,
}
