"""The one rule for settings: every count and bound of the configs, the
count-taking functions and the instance generators goes through
core.setting, so each refuses the same values with the same message, and an
integral float is used as an int.
"""

import ast
import math
import pathlib
from dataclasses import fields

import numpy as np
import pytest

from lowrank_ncvx import core
from lowrank_ncvx.core import FactorPoint, make_rng
from lowrank_ncvx.direct import AltMinConfig, SvpConfig, altmin_mc, grassmann_step, ppm, svp
from lowrank_ncvx.gd import (
    SolverConfig,
    median_mask,
    project_incoherent,
    project_l1,
    project_sparse_k,
    run_gd,
    sgd_step,
)
from lowrank_ncvx.landscape import (
    SaddleEscapeConfig,
    cubic_step,
    factored_oracle,
    overparam_gd_experiment,
    random_init_gd_experiment,
    rank1_oracle,
    trust_region_step,
)
from lowrank_ncvx.problems import (
    corrupt_outliers,
    estimate_rip,
    factorization_instance,
    gen_blind_deconv,
    gen_identity_sensing,
    gen_joint_alignment,
    gen_matrix_completion,
    gen_matrix_sensing,
    gen_phase_retrieval,
    gen_phase_sync,
    gen_quadratic_sensing,
    gen_rpca,
    instances_equal,
)
from lowrank_ncvx.spectral import (
    Preprocessing,
    factors_from_surrogate,
    init_matrix_completion,
    init_phase_retrieval,
    init_quadratic_sensing,
    init_rpca,
    init_sensing,
    init_sparse_pr,
    qs_estimate_from_surrogate,
    rho_vs_alpha_experiment,
)

# A bool is most likely a misplaced flag (the positional symmetric of
# gen_matrix_completion landing in r); it passes no rule.
_BOOLS = (True, False, np.True_, np.False_)
_BAD_COUNTS = (2.5, -1, math.nan, math.inf, "3") + _BOOLS
_BAD_BOUNDS = (-1.0, math.nan, "1") + _BOOLS


def test_setting_rule():
    assert core.setting("k", 3.0, "count") == 3 and type(core.setting("k", 3.0, "count")) is int
    assert type(core.setting("k", np.float64(0.0), "count")) is int
    assert core.setting("b", math.inf, "positive bound") == math.inf
    assert core.setting("b", 0.0, "bound") == 0.0
    assert core.setting("b", None, "bound", optional=True) is None
    with pytest.raises(ValueError, match="^v must be a number, not the bool True$"):
        core.setting("v", np.True_, "positive count", optional=True)
    for rule, bad, want in (("count", -1, "a nonnegative integer"),
                            ("positive count", 0, "a positive integer"),
                            ("bound", -1e-300, "nonnegative"),
                            ("positive bound", 0.0, "positive")):
        with pytest.raises(ValueError, match=f"^v must be {want}$"):
            core.setting("v", bad, rule)
        with pytest.raises(ValueError, match=f"^v must be {want}$"):
            core.setting("v", None, rule)
        for value in (math.nan, np.ones(2)):
            with pytest.raises(ValueError, match=f"^v must be {want}$"):
                core.setting("v", value, rule)


# (config class, required fields, field, rule) for every count and bound.
_CONFIG_FIELDS = [
    (SolverConfig, {}, "eta", "positive bound"),
    (SolverConfig, {}, "max_iters", "count"),
    (SolverConfig, {}, "grad_tol", "bound"),
    (SolverConfig, {}, "dist_tol", "bound"),
    (SolverConfig, {}, "plateau_tol", "bound"),
    (SolverConfig, {}, "median_factor", "positive bound"),
    (SolverConfig, {}, "batch_k", "positive count"),
    (AltMinConfig, {}, "max_outer", "count"),
    (AltMinConfig, {}, "inner_tol", "positive bound"),
    (AltMinConfig, {}, "splits", "positive count"),
    (AltMinConfig, {}, "lam", "bound"),
    (AltMinConfig, {}, "tol", "bound"),
    (SvpConfig, {"r": 2}, "r", "positive count"),
    (SvpConfig, {"r": 2}, "eta", "positive bound"),
    (SvpConfig, {"r": 2}, "max_iters", "count"),
    (SvpConfig, {"r": 2}, "tol", "bound"),
    (SaddleEscapeConfig, {"eta": 0.1}, "eta", "positive bound"),
    (SaddleEscapeConfig, {"eta": 0.1}, "radius", "positive bound"),
    (SaddleEscapeConfig, {"eta": 0.1}, "trigger", "bound"),
    (SaddleEscapeConfig, {"eta": 0.1}, "max_iters", "count"),
    (SaddleEscapeConfig, {"eta": 0.1}, "grad_tol", "bound"),
]


@pytest.mark.parametrize("cls, base, name, rule", _CONFIG_FIELDS,
                         ids=[f"{c[0].__name__}.{c[2]}" for c in _CONFIG_FIELDS])
def test_config_fields_follow_the_one_rule(cls, base, name, rule):
    def make(value):
        return cls(**{**base, name: value})

    if rule.endswith("count"):
        cfg = make(3.0)
        assert getattr(cfg, name) == 3 and type(getattr(cfg, name)) is int
        bad = _BAD_COUNTS + ((0,) if rule.startswith("positive") else ())
    else:
        assert getattr(make(0.5), name) == 0.5
        bad = _BAD_BOUNDS + ((0.0,) if rule.startswith("positive") else ())
    for value in bad:
        with pytest.raises(ValueError, match=f"^{name} must be "):
            make(value)
    default = next(f.default for f in fields(cls) if f.name == name)
    if default is None:
        assert getattr(make(None), name) is None
    else:
        with pytest.raises(ValueError, match=f"^{name} must be "):
            make(None)


@pytest.fixture(scope="module")
def count_calls():
    # name -> (setting name in the message, call(value) returning a plain
    # value whose repr shows the type the count was used as)
    sync = gen_phase_sync(6, 0.5, seed=1)
    sens = gen_matrix_sensing(4, 4, 2, 30, True, seed=1)
    pr = gen_phase_retrieval(8, 40, seed=13)
    x = init_phase_retrieval(pr).point
    M = np.diag([3.0, 2.0, 1.0])
    qs = gen_quadratic_sensing(6, 2, 40, seed=1)
    mc = gen_matrix_completion(8, 8, 2, 0.6, False, seed=1)
    rpca = gen_rpca(8, 8, 2, 0.7, 0.05, 3.0, seed=1)
    return {
        "ppm": ("max_iters", lambda v: ppm(sync, np.ones(6), max_iters=v)[1].loss),
        "estimate_rip.r": ("r", lambda v: estimate_rip(sens, v, 2, 0)),
        "estimate_rip.trials": ("trials", lambda v: estimate_rip(sens, 1, v, 0)),
        "random_init_gd_experiment": (
            "trials", lambda v: random_init_gd_experiment(8, 80, v, 0, max_iters=2)),
        "factored_oracle": ("r", lambda v: factored_oracle(M, v).grad(np.ones(3 * 2)).tolist()),
        "project_sparse_k": ("k", lambda v: project_sparse_k(np.arange(5.0), v).tolist()),
        "sgd_step": ("batch size", lambda v: sgd_step(pr, x, v, 0.01, make_rng(0)).x.tolist()),
        "init_sensing": ("r", lambda v: init_sensing(sens, v).point.X.tolist()),
        "init_quadratic_sensing": ("r", lambda v: init_quadratic_sensing(qs, v).point.X.tolist()),
        "init_matrix_completion": (
            "r", lambda v: init_matrix_completion(mc, v).point.L.tolist()),
        "init_rpca": ("r", lambda v: init_rpca(rpca, v)[0].point.X.tolist()),
        "init_sparse_pr": ("k", lambda v: init_sparse_pr(pr, k=v)[0].point.x.tolist()),
        "rho_vs_alpha_experiment": (
            "trials", lambda v: rho_vs_alpha_experiment(8, [2.0], Preprocessing.identity(), v, 0)),
        "factors_from_surrogate": (
            "r", lambda v: factors_from_surrogate(M, v, False)[0].L.tolist()),
        "qs_estimate_from_surrogate": (
            "r", lambda v: qs_estimate_from_surrogate(M, 0.5, v).point.X.tolist()),
        "incoherence_mu": ("r", lambda v: core.incoherence_mu(M, v)),
    }


@pytest.mark.parametrize("entry", ["ppm", "estimate_rip.r", "estimate_rip.trials",
                                   "random_init_gd_experiment", "factored_oracle",
                                   "project_sparse_k", "sgd_step", "init_sensing",
                                   "init_quadratic_sensing", "init_matrix_completion",
                                   "init_rpca", "init_sparse_pr", "rho_vs_alpha_experiment",
                                   "factors_from_surrogate", "qs_estimate_from_surrogate",
                                   "incoherence_mu"])
def test_count_arguments_follow_the_one_rule(count_calls, entry):
    name, call = count_calls[entry]
    good = 2 if entry != "ppm" else 3
    assert repr(call(float(good))) == repr(call(good))
    zero = () if entry in ("ppm", "project_sparse_k") else (0,)
    # A missing support size k is refused as one of two support rules
    # (test_sparse_pr_takes_exactly_one_support_rule).
    none = () if entry == "init_sparse_pr" else (None,)
    for value in _BAD_COUNTS + zero + none:
        with pytest.raises(ValueError, match=f"^{name} must "):
            call(value)


def test_a_rank_above_the_matrix_is_refused():
    # r = 4 on a 3 x 3 matrix used to raise IndexError in the surrogate layer
    M = np.diag([3.0, 2.0, 1.0])
    for call, top in ((lambda: factors_from_surrogate(M, 4, True), "n"),
                      (lambda: factors_from_surrogate(M, 4, False), r"min\(n1, n2\)"),
                      (lambda: qs_estimate_from_surrogate(M, 0.5, 4), "n")):
        with pytest.raises(ValueError, match=f"^need 1 <= r <= {top}$"):
            call()
    with pytest.raises(ValueError, match=r"^need 1 <= r <= min\(n1,n2\), got r=4"):
        core.incoherence_mu(M, 4)


def test_sparse_pr_takes_exactly_one_support_rule():
    # k and gamma together used to keep gamma's support and ignore k.
    pr = gen_phase_retrieval(8, 40, seed=13)
    with pytest.raises(ValueError, match="^need a support size k or a diagonal threshold gamma$"):
        init_sparse_pr(pr)
    with pytest.raises(ValueError, match="not both$"):
        init_sparse_pr(pr, k=3, gamma=0.5)


def test_integral_float_counts_run_where_they_used_to_crash():
    # Each of these passed its check before and then raised TypeError where
    # the count met range() or a shape.
    mc = gen_matrix_completion(30, 25, 2, 0.8, False, seed=4)
    L0 = init_matrix_completion(mc, 2).point.L
    _, _, tr = altmin_mc(mc, L0, AltMinConfig(max_outer=3.0))
    assert tr.iters == [1, 2, 3]
    _, _, split = altmin_mc(mc, L0, AltMinConfig(max_outer=2, splits=2.0))
    assert split.iters == [1, 2]
    sens = gen_matrix_sensing(6, 5, 2, 80, False, seed=4)
    _, tr = svp(sens, SvpConfig(r=2.0, max_iters=3.0))
    assert len(tr) == 4 and tr.outcome == "max_iters"
    assert estimate_rip(sens, 1, 2.0, 0).trials == 2
    pr = gen_phase_retrieval(8, 40, seed=2)
    _, tr = run_gd(pr, FactorPoint.vector(np.ones(8)), SolverConfig(eta=0.01, max_iters=3.0))
    assert len(tr) == 4


def test_finite_rules_refuse_inf():
    assert core.setting("b", 0.0, "finite bound") == 0.0
    assert core.setting("b", 2.5, "finite positive bound") == 2.5
    for rule, bad, want in (("finite bound", math.inf, "finite and nonnegative"),
                            ("finite bound", math.nan, "finite and nonnegative"),
                            ("finite positive bound", 0.0, "finite and positive"),
                            ("finite positive bound", -math.inf, "finite and positive")):
        with pytest.raises(ValueError, match=f"^b must be {want}$"):
            core.setting("b", bad, rule)


def test_nan_ridge_is_refused_at_construction():
    # A nan lam used to pass (nan < 0 is False) and reach LAPACK.
    with pytest.raises(ValueError, match="^lam must be nonnegative$"):
        AltMinConfig(lam=math.nan)


def _integer_equality_sites():
    # Comparisons of a value with int() of itself (v != int(v), int(v) == v)
    # in the library, outside the one rule in core.setting.
    sites = []
    for path in sorted(pathlib.Path(core.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(n) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "setting"
                  and path.name == "core.py" for n in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare) or id(node) in inside:
                continue
            sides = [node.left, *node.comparators]
            args = {ast.dump(s.args[0]) for s in sides
                    if isinstance(s, ast.Call) and isinstance(s.func, ast.Name)
                    and s.func.id == "int" and len(s.args) == 1}
            if args & {ast.dump(s) for s in sides}:
                sites.append(f"{path.name}:{node.lineno}")
    return sites


def test_settings_are_checked_in_one_place_and_stay_few():
    assert _integer_equality_sites() == []
    counts = {cls.__name__: len(fields(cls))
              for cls in (SolverConfig, AltMinConfig, SvpConfig, SaddleEscapeConfig)}
    assert counts["SolverConfig"] <= 12
    assert counts["AltMinConfig"] <= 5
    assert counts["SvpConfig"] <= 4
    assert counts["SaddleEscapeConfig"] <= 6


@pytest.fixture(scope="module")
def bound_calls():
    # name -> call(value) of each function whose bound goes through the rule
    pr = gen_phase_retrieval(8, 40, seed=13)
    x = init_phase_retrieval(pr).point
    mc = gen_matrix_completion(12, 10, 2, 0.8, False, seed=5)
    L = np.linalg.qr(init_matrix_completion(mc, 2).point.L)[0]
    oracle = rank1_oracle(np.diag([3.0, 1.0]))
    X = np.ones((6, 2))
    return {
        "mu": lambda v: project_incoherent(X, 1.0, v, 2),
        "bound_matrix_norm": lambda v: project_incoherent(X, v, 1.0, 2),
        "radius": lambda v: project_l1(np.ones(3), v),
        "factor": lambda v: median_mask(pr, x.x, v),
        "eta": lambda v: sgd_step(pr, x, 5, v, make_rng(0)),
        "grassmann eta": lambda v: grassmann_step(mc, L, v),
        "trust-region radius": lambda v: trust_region_step(oracle, np.ones(2), v),
        "lipschitz": lambda v: cubic_step(oracle, np.ones(2), v),
        "small_init_scale": lambda v: overparam_gd_experiment(
            pr, 8, v, SolverConfig(eta=0.01, max_iters=1)),
    }


@pytest.mark.parametrize("entry", ["mu", "bound_matrix_norm", "radius", "factor", "eta",
                                   "grassmann eta", "trust-region radius", "lipschitz",
                                   "small_init_scale"])
def test_bound_arguments_follow_the_one_rule(bound_calls, entry):
    call, name = bound_calls[entry], entry.split()[-1]
    call(0.5)
    for value in _BAD_BOUNDS + (None,):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(value)


# (entry, setting name, rule, call(value)) for every count and bound of the
# generators; a "fraction" is a bound below 1 (p: at most 1).
_PR8 = gen_phase_retrieval(6, 30, 2)
_POS = "positive count"
_GENERATOR_SETTINGS = [
    ("gen_matrix_sensing", "n1", _POS, lambda v: gen_matrix_sensing(v, 3, 1, 10, False, 0)),
    ("gen_matrix_sensing", "n2", _POS, lambda v: gen_matrix_sensing(4, v, 1, 10, False, 0)),
    ("gen_matrix_sensing", "r", _POS, lambda v: gen_matrix_sensing(4, 3, v, 10, False, 0)),
    ("gen_matrix_sensing", "m", _POS, lambda v: gen_matrix_sensing(4, 3, 1, v, False, 0)),
    ("gen_identity_sensing", "n1", _POS, lambda v: gen_identity_sensing(v, 3, 1, 0)),
    ("gen_identity_sensing", "r", _POS, lambda v: gen_identity_sensing(3, 3, v, 0)),
    ("gen_phase_retrieval", "n", _POS, lambda v: gen_phase_retrieval(v, 8, 0)),
    ("gen_phase_retrieval", "m", _POS, lambda v: gen_phase_retrieval(4, v, 0)),
    ("gen_phase_retrieval", "norm", "finite positive bound",
     lambda v: gen_phase_retrieval(4, 8, 0, norm=v)),
    ("gen_quadratic_sensing", "n", _POS, lambda v: gen_quadratic_sensing(v, 1, 8, 0)),
    ("gen_quadratic_sensing", "r", _POS, lambda v: gen_quadratic_sensing(4, v, 8, 0)),
    ("gen_quadratic_sensing", "m", _POS, lambda v: gen_quadratic_sensing(4, 1, v, 0)),
    ("gen_matrix_completion", "n1", _POS,
     lambda v: gen_matrix_completion(v, 4, 1, 0.5, False, 0)),
    ("gen_matrix_completion", "r", _POS,
     lambda v: gen_matrix_completion(4, 4, v, 0.5, True, 0)),
    ("gen_matrix_completion", "p", "closed fraction",
     lambda v: gen_matrix_completion(4, 4, 1, v, False, 0)),
    ("gen_blind_deconv", "K", _POS, lambda v: gen_blind_deconv(v, 2, 4, 0)),
    ("gen_blind_deconv", "N", _POS, lambda v: gen_blind_deconv(2, v, 4, 0)),
    ("gen_blind_deconv", "m", _POS, lambda v: gen_blind_deconv(1, 2, v, 0)),
    ("gen_blind_deconv", "norm", "finite positive bound",
     lambda v: gen_blind_deconv(2, 2, 4, 0, norm=v)),
    ("gen_rpca", "n2", _POS, lambda v: gen_rpca(6, v, 1, 0.5, 0.1, 1.0, 0)),
    ("gen_rpca", "r", _POS, lambda v: gen_rpca(6, 6, v, 0.5, 0.1, 1.0, 0)),
    ("gen_rpca", "p", "closed fraction", lambda v: gen_rpca(6, 6, 1, v, 0.1, 1.0, 0)),
    ("gen_rpca", "alpha_out", "fraction", lambda v: gen_rpca(6, 6, 1, 0.5, v, 1.0, 0)),
    ("gen_rpca", "magnitude", "finite positive bound",
     lambda v: gen_rpca(6, 6, 1, 0.5, 0.1, v, 0)),
    ("gen_phase_sync", "n", _POS, lambda v: gen_phase_sync(v, 0.5, 0)),
    ("gen_phase_sync", "sigma", "finite bound", lambda v: gen_phase_sync(4, v, 0)),
    ("gen_joint_alignment", "n", "count", lambda v: gen_joint_alignment(v, 2, 0.1, 0)),
    ("gen_joint_alignment", "alphabet_m", "count", lambda v: gen_joint_alignment(3, v, 0.1, 0)),
    ("gen_joint_alignment", "noise_flip_prob", "fraction",
     lambda v: gen_joint_alignment(3, 2, v, 0)),
    ("factorization_instance", "r", _POS,
     lambda v: factorization_instance(np.diag([3.0, 2.0, 1.0]), v)),
    ("corrupt_outliers", "alpha_out", "fraction", lambda v: corrupt_outliers(_PR8, v, 1)),
]


@pytest.mark.parametrize("entry, name, rule, call", _GENERATOR_SETTINGS,
                         ids=[f"{e}.{n}" for e, n, *_ in _GENERATOR_SETTINGS])
def test_generator_settings_follow_the_one_rule(entry, name, rule, call):
    if rule.endswith("count"):
        good, bad = 3, _BAD_COUNTS + ((0,) if rule.startswith("positive") else ())
        assert instances_equal(call(float(good)), call(good))
    else:
        good, bad = 0.5, _BAD_BOUNDS
        if rule.startswith("finite"):
            bad += (math.inf,) + ((0.0,) if "positive" in rule else ())
        elif rule.endswith("fraction"):
            bad += (1.5,) + ((1.0,) if rule == "fraction" else ())
        assert instances_equal(call(good), call(np.float64(good)))
    for value in bad + (None,):
        with pytest.raises(ValueError, match=f"^{name} must "):
            call(value)


def test_generators_refuse_what_used_to_give_a_non_finite_y():
    for call in (lambda: gen_phase_retrieval(4, 8, 0, norm=math.nan),
                 lambda: gen_blind_deconv(2, 2, 4, 0, norm=math.nan),
                 lambda: gen_rpca(6, 6, 1, 0.5, 0.1, math.nan, 0),
                 lambda: gen_phase_sync(4, math.nan, 0),
                 lambda: gen_phase_retrieval(4, 8, 0, norm=math.inf),
                 lambda: gen_matrix_sensing(4, 4, 1, 10.5, True, 0)):
        with pytest.raises(ValueError, match=" must be "):
            call()
