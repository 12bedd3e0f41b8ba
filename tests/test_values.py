"""The package's value classes: equality, hashing, repr, immutability,
replacement, copying and pickling.

Every value class compares, hashes and prints its constructor fields alone,
refuses assignment and deletion, and builds copies (``replace``,
``copy``, ``pickle``) through its constructor, so a copy is validated and
derives its own tables.
"""

import copy
import math
import pickle

import pytest

from vihpm.diagnostics import ConvergenceReport
from vihpm.kernel import CorrectionKernel
from vihpm.problems import (
    BoundaryCondition,
    InvalidProblemError,
    ProblemSpec,
    RhsTerm,
    builtin,
    with_settings,
)
from vihpm.reporting import ErrorRow, ErrorTable
from vihpm.series import ExpPoly, ExpTerm, Series, _Value, expand_exppoly
from vihpm.solver import SolveResult, solve

from ring_helpers import replace


def small_spec():
    return ProblemSpec(
        order=2,
        domain_end=1,
        terms=[RhsTerm(ExpPoly((ExpTerm(0.0, (1.0,)),)), (0,))],
        bcs=[BoundaryCondition(0.0, 0, 1.0), BoundaryCondition(1.0, 0, 2.0)],
        truncation=4,
    )


ONE = "ExpPoly(terms=(ExpTerm(rate=0.0, poly=(1.0,)),))"
ROW = "ErrorRow(x=0.5, exact=None, approx=1.25, abs_error=None)"

# name -> (factory, exact repr, a valid change of one field)
CASES = {
    "Series": (
        lambda: Series([1, 2.5]),
        "Series(coeffs=(1.0, 2.5))",
        {"coeffs": (3.0,)},
    ),
    "ExpTerm": (
        lambda: ExpTerm(2, [1, -0.5]),
        "ExpTerm(rate=2.0, poly=(1.0, -0.5))",
        {"rate": -1.0},
    ),
    "ExpPoly": (
        lambda: ExpPoly([ExpTerm(0.0, (1.0,))]),
        ONE,
        {"terms": ()},
    ),
    "CorrectionKernel": (
        lambda: CorrectionKernel(3, 9),
        "CorrectionKernel(order=3, truncation=9)",
        {"truncation": 12},
    ),
    "BoundaryCondition": (
        lambda: BoundaryCondition(1, 2.0, 3),
        "BoundaryCondition(point=1.0, derivative_order=2, value=3.0)",
        {"value": -1.0},
    ),
    "RhsTerm": (
        lambda: RhsTerm(ExpPoly((ExpTerm(0.0, (1.0,)),)), [1, 0]),
        f"RhsTerm(coeff={ONE}, factors=(1, 0))",
        {"factors": (0,)},
    ),
    "ProblemSpec": (
        small_spec,
        f"ProblemSpec(order=2, domain_end=1.0, terms=(RhsTerm(coeff={ONE}, "
        "factors=(0,)),), bcs=(BoundaryCondition(point=0.0, derivative_order=0, "
        "value=1.0), BoundaryCondition(point=1.0, derivative_order=0, value=2.0)), "
        "exact=None, truncation=4, iterations=1)",
        {"truncation": 6},
    ),
    "SolveResult": (
        lambda: SolveResult(
            constants=(0.5,),
            solution=Series((1.0,)),
            newton_iterations=2,
            bc_residual_norm=0.0,
            converged=True,
        ),
        "SolveResult(constants=(0.5,), solution=Series(coeffs=(1.0,)), "
        "newton_iterations=2, bc_residual_norm=0.0, converged=True)",
        {"converged": False},
    ),
    "ConvergenceReport": (
        lambda: ConvergenceReport(
            deltas=(1.0, 0.5),
            gamma_estimates=(0.5,),
            gamma_max=0.5,
            contraction_ok=True,
            banach_bound_ok=True,
            fixed_point_reached=False,
        ),
        "ConvergenceReport(deltas=(1.0, 0.5), gamma_estimates=(0.5,), "
        "gamma_max=0.5, contraction_ok=True, banach_bound_ok=True, "
        "fixed_point_reached=False)",
        {"gamma_max": 0.25},
    ),
    "ErrorRow": (
        lambda: ErrorRow(x=0.5, exact=None, approx=1.25, abs_error=None),
        ROW,
        {"exact": 1.0},
    ),
    "ErrorTable": (
        lambda: ErrorTable(
            rows=(ErrorRow(x=0.5, exact=None, approx=1.25, abs_error=None),),
            max_abs_error=None,
        ),
        f"ErrorTable(rows=({ROW},), max_abs_error=None)",
        {"max_abs_error": 0.0},
    ),
}

# what each class keeps beside its fields
DERIVED = {
    "ExpPoly": ("_expansion",),
    "ProblemSpec": ("_origin", "_origin_head", "_off_origin", "_unknown_degrees"),
    "SolveResult": ("iterates",),
}

# each class's fields in declaration order, as its repr lists them
FIELDS = {
    "Series": ("coeffs",),
    "ExpTerm": ("rate", "poly"),
    "ExpPoly": ("terms",),
    "CorrectionKernel": ("order", "truncation"),
    "BoundaryCondition": ("point", "derivative_order", "value"),
    "RhsTerm": ("coeff", "factors"),
    "ProblemSpec": (
        "order", "domain_end", "terms", "bcs", "exact", "truncation", "iterations"
    ),
    "SolveResult": (
        "constants", "solution", "newton_iterations", "bc_residual_norm", "converged"
    ),
    "ConvergenceReport": (
        "deltas",
        "gamma_estimates",
        "gamma_max",
        "contraction_ok",
        "banach_bound_ok",
        "fixed_point_reached",
    ),
    "ErrorRow": ("x", "exact", "approx", "abs_error"),
    "ErrorTable": ("rows", "max_abs_error"),
}


def field_names(value):
    return FIELDS[type(value).__name__]


def field_values(value):
    return tuple(getattr(value, name) for name in field_names(value))


names = pytest.mark.parametrize("name", sorted(CASES))
duplicates = pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)

@names
def test_exact_repr(name):
    make, text, _ = CASES[name]
    value = make()
    assert repr(value) == text
    assert text == f"{name}(" + ", ".join(
        f"{field}={getattr(value, field)!r}" for field in FIELDS[name]
    ) + ")"


@names
def test_equality_and_hash(name):
    make, _, change = CASES[name]
    a, b = make(), make()
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(field_values(a))
    other = replace(a, **change)
    assert other != a and not other == a
    # another type is not equal, even with the same field values
    assert a.__eq__(field_values(a)) is NotImplemented
    assert a.__eq__(object()) is NotImplemented
    assert a != field_values(a)


@names
def test_slots_are_the_fields_then_the_derived_tables(name):
    cls = type(CASES[name][0]())
    assert cls.__slots__ == (*FIELDS[name], *DERIVED.get(name, ()))


@names
def test_assignment_and_deletion_raise(name):
    make = CASES[name][0]
    value = make()
    for attr in [*field_names(value), *DERIVED.get(name, ()), "unrelated"]:
        with pytest.raises(AttributeError):
            setattr(value, attr, 0)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert value == make()


@names
def test_replace_changes_one_field(name):
    make, _, change = CASES[name]
    value = make()
    (field, new), = change.items()
    moved = replace(value, **change)
    assert getattr(moved, field) == new
    for other in field_names(value):
        if other != field:
            assert getattr(moved, other) == getattr(value, other)
    assert replace(value) == value
    with pytest.raises(TypeError):
        replace(value, no_such_field=1)


@names
@duplicates
def test_copies_are_equal(name, duplicate):
    value = CASES[name][0]()
    twin = duplicate(value)
    assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
    assert type(twin) is type(value)
    # the copy derives its own tables, equal to the original's
    for attr in DERIVED.get(name, ()):
        if attr == "_expansion":
            assert expand_exppoly(twin, 8) == expand_exppoly(value, 8)
        else:
            assert getattr(twin, attr) == getattr(value, attr)


@duplicates
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_copied_builtins_solve_alike(n, duplicate):
    spec = builtin(n)
    twin = duplicate(spec)
    assert twin == spec
    assert twin.unknown_degrees() == spec.unknown_degrees()
    assert twin.off_origin_conditions() == spec.off_origin_conditions()
    assert solve(twin) == solve(spec)
    result = solve(spec)
    assert duplicate(result) == result


# the classes that check nothing and build through _Value's constructor
shared = pytest.mark.parametrize(
    "name", ["ConvergenceReport", "ErrorRow", "ErrorTable", "SolveResult"]
)

# what a written-out signature rejects: (fields, values) -> (args, kwargs)
MISTAKES = {
    "missing-by-position": lambda f, v: (v[:-1], {}),
    "missing-by-keyword": lambda f, v: ((), dict(zip(f[1:], v[1:]))),
    "unknown": lambda f, v: (v, {"no_such_field": 0}),
    "first-twice": lambda f, v: (v[:1], dict(zip(f, v))),
    "last-twice": lambda f, v: (v, {f[-1]: v[-1]}),
    "too-many-positional": lambda f, v: ((*v, v[0]), {}),
}


@shared
def test_shared_constructor_takes_positions_keywords_and_both(name):
    value = CASES[name][0]()
    cls, fields, values = type(value), FIELDS[name], field_values(value)
    assert cls.__init__ is _Value.__init__ or name == "SolveResult"
    for split in range(len(fields) + 1):
        built = cls(*values[:split], **dict(zip(fields[split:], values[split:])))
        assert built == value and repr(built) == repr(value)
        # stored as given
        assert all(getattr(built, f) is v for f, v in zip(fields, values))


@shared
@pytest.mark.parametrize("mistake", MISTAKES)
def test_shared_constructor_rejects_what_a_signature_would(name, mistake):
    value = CASES[name][0]()
    args, kwargs = MISTAKES[mistake](FIELDS[name], field_values(value))
    with pytest.raises(TypeError, match=f"^{name}\\(\\)"):
        type(value)(*args, **kwargs)


def test_solve_result_iterates_is_keyword_only_and_not_a_field():
    value = CASES["SolveResult"][0]()
    values = field_values(value)
    iterates = (Series((1.0,)), Series((2.0,)))
    kept = SolveResult(*values, iterates=iterates)
    assert kept.iterates is iterates and value.iterates is None
    assert kept == value and hash(kept) == hash(value) and repr(kept) == repr(value)
    assert "iterates" not in SolveResult._fields
    with pytest.raises(TypeError, match="SolveResult"):
        SolveResult(*values, iterates)
    for twin in (
        replace(kept),
        replace(kept, converged=False),
        copy.copy(kept),
        pickle.loads(pickle.dumps(kept)),
    ):
        assert twin.iterates is None


class TestReplaceValidates:
    def test_series(self):
        with pytest.raises(ValueError, match="finite"):
            replace(Series((1.0,)), coeffs=(math.inf,))
        assert replace(Series((1.0,)), coeffs=[2, 3]).coeffs == (2.0, 3.0)

    def test_exp_term(self):
        with pytest.raises(ValueError, match="finite"):
            replace(ExpTerm(0.0, (1.0,)), rate=math.nan)

    def test_kernel(self):
        with pytest.raises(ValueError, match="truncation"):
            replace(CorrectionKernel(3, 9), truncation=2)

    def test_boundary_condition(self):
        with pytest.raises(ValueError, match="derivative order"):
            replace(BoundaryCondition(0.0, 1, 0.0), derivative_order=0.5)
        moved = replace(BoundaryCondition(0.0, 1, 0.0), derivative_order=2.0)
        assert moved.derivative_order == 2 and type(moved.derivative_order) is int

    def test_problem_spec_revalidates(self):
        with pytest.raises(InvalidProblemError, match="below operator order"):
            replace(builtin(1), truncation=3)
        with pytest.raises(InvalidProblemError, match="expected 7 boundary conditions"):
            replace(builtin(1), bcs=builtin(1).bcs[:6])

    def test_problem_spec_recomputes_its_tables(self):
        spec = builtin(1)
        pinned = tuple(BoundaryCondition(0.0, j, 1.0) for j in range(7))
        moved = replace(spec, bcs=pinned)
        assert moved.unknown_degrees() == () and moved.unknown_count() == 0
        assert moved.off_origin_conditions() == ()
        assert moved.origin_conditions() == pinned
        assert moved._origin_head == tuple(1.0 / math.factorial(j) for j in range(7))
        assert spec.unknown_degrees() == (4, 5, 6)

    def test_with_settings_is_a_replace(self):
        spec = builtin(2)
        assert with_settings(spec, truncation=20) == replace(spec, truncation=20)
        assert with_settings(spec) is spec


class TestDerivedStateIsNotAField:
    def test_an_extended_expansion(self):
        used = ExpPoly((ExpTerm(0.5, (1.0, 2.0)),))
        fresh = ExpPoly((ExpTerm(0.5, (1.0, 2.0)),))
        expand_exppoly(used, 20)
        assert max(used._expansion) == 20 and len(fresh._expansion) == 0
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)

    @pytest.mark.parametrize("name", sorted(DERIVED))
    def test_repr_names_no_derived_table(self, name):
        text = repr(CASES[name][0]())
        for attr in DERIVED[name]:
            assert attr not in text

    def test_specs_with_the_same_fields_are_equal(self):
        a, b = builtin(4), builtin(4)
        # solving extends the expansions a's coefficients own
        solve(with_settings(a, truncation=30))
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
