"""One rule for every scalar argument of the public API.

A count goes through neurons._integer and a real number through
neurons._finite, so each entry point refuses the same inputs the same way:
a bool, a string, a complex number, an array, a NaN, an infinity, an
integer past the float64 range where a real number is asked for, and a
fraction where an integer is, each with a ValueError that names the
parameter and no warning on the way.  numpy's scalars are taken, with the
values and bits the plain ones give.  A value a caller's target function
returns follows the same rule, and an array a construction is built from
must be finite.  A guard walks qnn's exports so that a new int or float
parameter cannot skip the table.  The CLI's number flags follow the same
rule, as usage errors.
"""

import dataclasses
import inspect
import re
import warnings

import numpy as np
import pytest

import qnn
from qnn import (
    FactoredForm,
    GridSpec,
    MultiPolySpec,
    NetworkSpec,
    PackedNetwork,
    PassthroughNeuron,
    Polynomial,
    RadialPartition,
    TrainConfig,
    bernstein_coeffs,
    bernstein_direct,
    build_deep_radial,
    build_factorization_trainable,
    build_parabola_module,
    build_shallow_radial,
    delta_for_target_error,
    finite_diff_grad,
    make_poly_dataset,
    make_rings_dataset,
    one_hidden_conventional,
    one_hidden_quadratic,
    plateau_interval,
    single_quadratic_net,
)
from qnn.cli import main


def _identity(t):
    return t


_PARTITION = RadialPartition([0.0, 1.0, 2.0], [1.0, -0.5], 0.2)

# callable, arguments it accepts, and its scalar parameters with their rule
TABLE = [
    (GridSpec, dict(lo=0.0, hi=1.0, n=5), {"lo": float, "hi": float, "n": int}),
    (PackedNetwork, dict(net=one_hidden_quadratic(1, 2), X=np.ones((3, 1)), restarts=2),
     {"restarts": int}),
    (PassthroughNeuron, dict(index=1), {"index": int}),
    (RadialPartition, dict(breakpoints=[0.0, 1.0], heights=[1.0], delta=0.2),
     {"delta": float}),
    (TrainConfig, dict(learning_rate=0.1, iterations=5, seed=3, init_scale=0.5, restarts=2),
     {"learning_rate": float, "iterations": int, "seed": int, "init_scale": float,
      "restarts": int}),
    (FactoredForm, dict(scale=2.0, linear_roots=[0.5], quadratic_factors=[(0.0, 1.0)]),
     {"scale": float}),
    (bernstein_coeffs, dict(f=_identity, n=4), {"n": int}),
    (bernstein_direct, dict(f=_identity, n=4, x=[0.25, 0.5]), {"n": int}),
    (build_deep_radial, dict(partition=_PARTITION, input_dim=2), {"input_dim": int}),
    (build_factorization_trainable, dict(degree=5, l1=1, l2=2),
     {"degree": int, "l1": int, "l2": int}),
    (build_parabola_module, dict(a_lo=0.5, a_hi=1.0, b=-1.5, delta=0.2, input_dim=2),
     {"a_lo": float, "a_hi": float, "b": float, "delta": float, "input_dim": int}),
    (build_shallow_radial, dict(f=_identity, r=1.0, R=2.0, L=1.0, delta=0.1, input_dim=2),
     {"r": float, "R": float, "L": float, "delta": float, "input_dim": int}),
    (delta_for_target_error, dict(breakpoints=[0.0, 1.0], heights=[2.0], eps=0.1),
     {"eps": float}),
    (finite_diff_grad, dict(net=single_quadratic_net(1), x=[0.5], step=1e-5), {"step": float}),
    (make_poly_dataset, dict(p=Polynomial([1.0, 2.0]), lo=-1.0, hi=0.0, n=5),
     {"lo": float, "hi": float, "n": int}),
    (make_rings_dataset, dict(n_per_class=3, r_inner=1.0, r_outer=2.0, noise=0.1, seed=4),
     {"n_per_class": int, "r_inner": float, "r_outer": float, "noise": float, "seed": int}),
    (one_hidden_conventional, dict(input_dim=2, width=3), {"input_dim": int, "width": int}),
    (one_hidden_quadratic, dict(input_dim=2, width=3), {"input_dim": int, "width": int}),
    (plateau_interval, dict(a_lo=0.5, a_hi=1.0, delta=0.2),
     {"a_lo": float, "a_hi": float, "delta": float}),
    (single_quadratic_net, dict(input_dim=2), {"input_dim": int}),
]

# int or float parameters of qnn's exports that take no argument of a caller
EXEMPT = {
    # the read-only neuron view of a net's params, whose values may be non-finite
    ("QuadraticNeuron", "b_r"), ("QuadraticNeuron", "b_g"), ("QuadraticNeuron", "c"),
    ("ConventionalNeuron", "b"),
    # the residual the factorizer measured, None for a structural refusal
    ("FactorizationError", "residual"),
    # a switch, read for its truth
    ("factor_polynomial", "pair_real_roots"),
}

# refused for either rule; 10**400 is a valid count, so only a real number
# refuses it, and only a count refuses 2.5
BAD = [True, "1", 1 + 0j, np.array(0.5), np.array([0.5]), np.nan, np.inf, -np.inf]
BAD_BY_RULE = {int: BAD + [2.5], float: BAD + [10**400]}

CASES = [(call, kwargs, name, value)
         for call, kwargs, scalars in TABLE
         for name, rule in scalars.items()
         for value in BAD_BY_RULE[rule]]


@pytest.mark.parametrize(
    "call, kwargs, name, value", CASES,
    ids=[f"{call.__name__}-{name}-{value!r:.12}" for call, _, name, value in CASES])
def test_bad_scalar_refused_by_name(call, kwargs, name, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"\b{name} must be "):
            call(**{**kwargs, name: value})


@pytest.mark.parametrize("field, value", [
    ("linear_roots", ["0.5"]), ("linear_roots", [True]), ("linear_roots", [1j]),
    ("linear_roots", [np.nan]), ("quadratic_factors", [(0.0, "1")]),
    ("quadratic_factors", [(1 + 0j, 1.0)]), ("quadratic_factors", [(0.0, np.inf)]),
])
def test_factored_form_entries_refused_by_name(field, value):
    """Each root and quadratic coefficient follows the scalar rule too."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{field} must be "):
            FactoredForm(1.0, **{field: value})


@pytest.mark.parametrize("field", ["breakpoints", "heights"])
def test_delta_for_target_error_complex_arrays_refused(field):
    """The profile goes through _real, not a float64 cast."""
    args = dict(breakpoints=[0.0, 1.0], heights=[2.0])
    args[field] = np.array(args[field]) + 1j
    with pytest.raises(ValueError, match=f"^{field} must be real"):
        delta_for_target_error(**args)


F_CALLS = [
    (build_shallow_radial, dict(r=0.0, R=1.0, L=1.0, delta=0.1)),
    (bernstein_direct, dict(n=4, x=[0.5])),
    (bernstein_coeffs, dict(n=4)),
]


@pytest.mark.parametrize("value", [True, "1", 1j, np.array(0.5), np.nan, np.inf], ids=repr)
@pytest.mark.parametrize("call, kwargs", F_CALLS, ids=[call.__name__ for call, _ in F_CALLS])
def test_target_function_values_follow_the_rule(call, kwargs, value):
    """A value the caller's f returns is a real number by the scalar rule:
    not parsed, read as 1, cast, or let through as NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^f values must be "):
            call(lambda t: value, **kwargs)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=repr)
@pytest.mark.parametrize("make, field", [
    (lambda v: MultiPolySpec([[1]], [v]), "coefficients"),
    (lambda v: RadialPartition([0.0, 1.0], [v], 0.1), "heights"),
    (lambda v: RadialPartition([0.0, v], [1.0], 0.1), "breakpoints"),
    (lambda v: delta_for_target_error([0.0, 1.0], [v]), "heights"),
    (lambda v: delta_for_target_error([0.0, v], [1.0]), "breakpoints"),
], ids=["multipoly-coefficients", "partition-heights", "partition-breakpoints",
        "delta-heights", "delta-breakpoints"])
def test_non_finite_construction_array_refused(make, field, value):
    """Refused by name, where it made a NaN net, was blamed on delta, or
    gave a delta of nan or 0."""
    with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
        make(value)


def test_non_finite_entry_named_by_its_index():
    """The first non-finite entry is named with its index, not the whole
    array: a million-coefficient Polynomial gave a 5,000,037-character
    message."""
    with pytest.raises(ValueError) as exc:
        Polynomial(np.r_[np.zeros(10**6), np.nan, 1.0, np.inf])
    assert str(exc.value) == "coeffs must be finite, got nan at index 1000000"
    with pytest.raises(ValueError, match=r"^heights must be finite, got -inf at index 2$"):
        RadialPartition([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, -np.inf], 0.1)


def _bits(obj):
    """obj as nested tuples, equal only where every float has equal bits."""
    if isinstance(obj, (NetworkSpec, PackedNetwork)):
        return obj.params.tobytes()
    if dataclasses.is_dataclass(obj):
        return tuple(_bits(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(map(_bits, obj))
    if isinstance(obj, (float, np.ndarray)):
        return np.asarray(obj, dtype=np.float64).tobytes()
    return obj


@pytest.mark.parametrize("call, kwargs, scalars", TABLE,
                         ids=[call.__name__ for call, _, _ in TABLE])
def test_numpy_scalars_accepted_bit_for_bit(call, kwargs, scalars):
    numpy_kwargs = {**kwargs, **{name: (np.int64 if rule is int else np.float64)(kwargs[name])
                                 for name, rule in scalars.items()}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _bits(call(**numpy_kwargs)) == _bits(call(**kwargs))


def _scalar_parameters():
    """(export, parameter) for each parameter of qnn's callable exports
    annotated int or float, bool among them."""
    found = set()
    for export, obj in vars(qnn).items():
        if export.startswith("_") or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # an exception class with the builtin constructor
            continue
        for param in params:
            if {"int", "float", "bool"} & set(re.split(r"[\s|]+", str(param.annotation))):
                found.add((export, param.name))
    return found


def test_every_scalar_parameter_is_in_the_table():
    found = _scalar_parameters()
    tabled = {(call.__name__, name) for call, _, scalars in TABLE for name in scalars}
    assert found - tabled - EXEMPT == set()
    assert EXEMPT <= found  # no stale exemption


@pytest.mark.parametrize("argv, message", [
    (["factor-train", "--restarts", "0"], "argument --restarts: value must be >= 1, got 0"),
    (["width-sweep", "--annuli", "-1"], "argument --annuli: value must be >= 0, got -1"),
    (["factor-train", "--samples", "1"], "argument --samples: value must be >= 2, got 1"),
    (["rings", "--seed", "2.5"], "argument --seed: invalid int value: '2.5'"),
    (["factor-train", "--learning-rate", "1e400"],
     "argument --learning-rate: value must be positive and finite, got inf"),
    (["factor-train", "--hi", "nan"], "argument --hi: value must be finite, got nan"),
])
def test_cli_number_flags_follow_the_rule(argv, message, tmp_path, capsys):
    """A bad flag exits 2 with its usage line and the rule's wording, before
    any run directory is made."""
    out = tmp_path / "runs"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"usage: qnn {argv[0]} " in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("make, problem", [
    (lambda: PackedNetwork(single_quadratic_net(1), np.ones((1, 1)), 10**12),
     r"restarts must be <= 715827882,"),
    (lambda: PackedNetwork(single_quadratic_net(1), np.ones((1, 1)), 10**400),
     r"restarts must be <= 715827882,"),
    (lambda: one_hidden_quadratic(1, 10**400), r"width must be <= 477218588,"),
    (lambda: one_hidden_conventional(3, 10**15), r"width must be <= 286331152,"),
    (lambda: make_rings_dataset(10**400), r"n_per_class must be <= 1073741824,"),
    (lambda: GridSpec(0, 1, 10**400), r"grid n must be <= 4294967296,"),
    (lambda: make_poly_dataset(Polynomial([1.0]), 0.0, 1.0, 10**400), r"n must be <= 4294967296,"),
    (lambda: TrainConfig(iterations=10**13, restarts=2), r"iterations must be <= 2147483648,"),
], ids=["restarts-1e12", "restarts-1e400", "width", "width-d3", "n_per_class", "grid-n",
        "poly-n", "iterations"])
def test_oversized_count_refused_before_allocating(make, problem):
    """A count past network._MAX_ENTRIES entries is refused by name before
    anything is allocated.  At 10**12 restarts numpy raised MemoryError for
    43.7 TiB; at 10**400 the executor and one_hidden_quadratic raised a bare
    OverflowError, make_rings_dataset an unnamed ValueError, and GridSpec
    accepted it and failed in points(); 10**13 iterations failed in train
    with MemoryError for a 72.8 TiB loss history."""
    with pytest.raises(ValueError, match=f"^{problem}"):
        make()


def test_grid_count_bound_is_inclusive():
    """GridSpec holds n lazily, so the largest count is accepted unmade."""
    assert GridSpec(0, 1, 2**32).n == 2**32
    with pytest.raises(ValueError, match="grid n must be <= "):
        GridSpec(0, 1, 2**32 + 1)
