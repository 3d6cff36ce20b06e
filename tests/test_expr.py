import dis
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import expr as ex
from sdelab.expr import (
    Const,
    Coord,
    DomainError,
    ExprSyntaxError,
    Max,
    NonDifferentiableError,
    differentiate,
    eval_expr,
    evaluate,
    parse_expr,
    to_source,
)


def test_parse_atomic_coordinate():
    t = parse_expr("x1", 2)
    assert t == Coord(0)


def test_parse_remark_drift():
    # drift of the conservative-but-dual-non-conservative 1-D example
    t = parse_expr("0.5 + 0.5*exp(-x1)", 1)
    assert eval_expr(t, [0.0]) == pytest.approx(1.0)
    assert eval_expr(t, [math.log(2.0)]) == pytest.approx(0.75)


def test_parse_recurrence_candidate():
    t = parse_expr("ln(max(norm2(x), 9)) + 2", 2)
    assert eval_expr(t, [1.0, 0.0]) == pytest.approx(math.log(9) + 2)
    assert eval_expr(t, [4.0, 3.0]) == pytest.approx(math.log(25) + 2)


def test_parse_errors_carry_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x1 + @", 2)
    assert err.value.offset == 5
    with pytest.raises(ExprSyntaxError):
        parse_expr("x3", 2)  # out-of-range coordinate
    with pytest.raises(ExprSyntaxError):
        parse_expr("sinh(x1)", 1)  # unknown function
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1^(1/0)", 1)  # exponent divides by zero
    with pytest.raises(ExprSyntaxError):
        parse_expr("(" * 5000 + "x1" + ")" * 5000, 1)  # deeper than the recursion limit


def test_whitespace_insensitive():
    assert parse_expr(" x1+2* x2 ", 2) == parse_expr("x1 + 2 * x2", 2)


def test_norm2_eval():
    t = parse_expr("norm2(x)", 2)
    assert eval_expr(t, [3.0, 4.0]) == 25.0
    assert eval_expr(parse_expr("exp(-norm2(x))", 2), [0.0, 0.0]) == 1.0


def test_piecewise_bound_function_branches_agree():
    # bounded witness for the dual-non-conservativeness certificate:
    # both branch expressions take the value 27 at the junction y = 3
    lo = parse_expr("x1^2 * (6 - x1)", 1)
    hi = parse_expr("54 - 81/x1", 1)
    assert eval_expr(lo, [3.0]) == pytest.approx(27.0)
    assert eval_expr(hi, [3.0]) == pytest.approx(27.0)
    psi = parse_expr("max(x1^2 * (6 - x1), 54 - 81/x1)", 1)
    assert eval_expr(psi, [3.0]) == pytest.approx(27.0)
    assert eval_expr(psi, [1.0]) == pytest.approx(5.0)
    assert eval_expr(psi, [6.0]) == pytest.approx(54 - 81 / 6)


def test_derivative_polynomial():
    t = parse_expr("x1^2", 2)
    d = differentiate(t, 0)
    assert d == parse_expr("2*x1", 2) or eval_expr(d, [3.0, 0.0]) == 6.0


def test_derivative_exp():
    t = parse_expr("exp(2*x1)", 1)
    d = differentiate(t, 0)
    for x in (-1.0, 0.0, 0.7):
        assert eval_expr(d, [x]) == pytest.approx(2 * math.exp(2 * x), rel=1e-12)


def test_derivative_erf():
    # d/dx1 erf(x1^2) = 2/sqrt(pi) exp(-x1^4) 2 x1, and nothing along x2
    t = parse_expr("erf(x1^2)", 2)
    assert differentiate(t, 1) == Const(0.0)
    d = differentiate(t, 0)
    for x in (-1.3, -0.4, 0.0, 0.7, 2.0):
        want = 2.0 / math.sqrt(math.pi) * math.exp(-(x**4)) * 2.0 * x
        assert eval_expr(d, [x, 0.5]) == pytest.approx(want, rel=1e-14)
    assert eval_expr(t, [0.8, 0.0]) == pytest.approx(math.erf(0.64), rel=1e-15)


def test_gradient_of_log_candidate_fd():
    # gradient of ln(max(norm2(x), 9)) + 2 matches 2x/|x|^2 outside radius 3
    t = parse_expr("ln(max(norm2(x), 9)) + 2", 2)
    g = [differentiate(t, k, piecewise=True) for k in range(2)]
    h = 1e-4
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.uniform(3.5, 8.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        r2 = float(x @ x)
        for k in range(2):
            sym = eval_expr(g[k], x)
            assert sym == pytest.approx(2 * x[k] / r2, abs=1e-10)
            xp = x.copy()
            xm = x.copy()
            xp[k] += h
            xm[k] -= h
            fd = (eval_expr(t, xp) - eval_expr(t, xm)) / (2 * h)
            assert sym == pytest.approx(fd, abs=1e-7)


def test_max_requires_piecewise_flag():
    t = parse_expr("max(x1, 0)", 1)
    with pytest.raises(NonDifferentiableError):
        differentiate(t, 0)
    d = differentiate(t, 0, piecewise=True)
    assert eval_expr(d, [2.0]) == 1.0
    assert eval_expr(d, [-2.0]) == 0.0
    # tie-break: first argument wins at the kink
    assert eval_expr(d, [0.0]) == 1.0


def test_min_tie_break_first_argument():
    t = parse_expr("min(x1, 2*x1)", 1)
    d = differentiate(t, 0, piecewise=True)
    assert eval_expr(d, [0.0]) == 1.0  # tie at 0, first branch
    assert eval_expr(d, [1.0]) == 1.0  # min is x1 for x>0
    assert eval_expr(d, [-1.0]) == 2.0


def test_domain_errors_report_node():
    t = parse_expr("ln(x1)", 1)
    with pytest.raises(DomainError) as err:
        eval_expr(t, [-1.0])
    assert "ln" in str(err.value)
    with pytest.raises(DomainError):
        eval_expr(parse_expr("1/x1", 1), [0.0])


def test_vectorized_matches_scalar():
    t = parse_expr("exp(-norm2(x)) + x1*x2 - sqrt(1 + x2^2)", 2)
    pts = np.random.default_rng(3).normal(size=(64, 2))
    vec = evaluate(t, pts)
    for i in range(len(pts)):
        assert vec[i] == pytest.approx(eval_expr(t, pts[i]), rel=1e-14)


# --- compiled programs -------------------------------------------------------


def _in_order_norm2(pts):
    """Reference norm2: the squared columns added one after the other."""
    s = pts[:, 0] * pts[:, 0]
    for k in range(1, pts.shape[1]):
        s = s + pts[:, k] * pts[:, k]
    return s


def _tree_walk(e, pts):
    """Reference: recursive evaluation, one numpy operation per visited node."""
    binary = {ex.Add: np.add, ex.Sub: np.subtract, ex.Mul: np.multiply, ex.Div: np.divide,
              ex.Max: np.maximum, ex.Min: np.minimum}
    unary = {ex.Exp: np.exp, ex.Ln: np.log, ex.Sqrt: np.sqrt, ex.Erf: scipy.special.erf}
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Coord):
        return pts[:, e.axis]
    if isinstance(e, ex.Norm2):
        return _in_order_norm2(pts)
    if isinstance(e, ex.Pow):
        return np.power(_tree_walk(e.base, pts), e.exponent)
    if isinstance(e, ex.SelGe):
        a, b = _tree_walk(e.a, pts), _tree_walk(e.b, pts)
        return np.where(a >= b, _tree_walk(e.then, pts), _tree_walk(e.orelse, pts))
    if type(e) in unary:
        return unary[type(e)](_tree_walk(e.arg, pts))
    return binary[type(e)](_tree_walk(e.left, pts), _tree_walk(e.right, pts))


def _program_sets():
    from sdelab import cli
    from sdelab.calculus import default_bump_library

    for name in cli.BUILTIN_NAMES:
        cs, _ = cli.build_problem(cli.load_config(name))
        yield pytest.param(cs.d, list(cs.G), id=name)
    bump = default_bump_library((-3.0, -3.0), (3.0, 3.0), 2)[2].expr
    grads = ex.gradient(bump, 2, piecewise=True)
    hess = [differentiate(g, j, piecewise=True) for g in grads for j in range(2)]
    yield pytest.param(2, [bump] + grads + hess, id="bump_hessian")
    primitive = parse_expr("0.8862269254527579*(1 + erf(x1))", 1)
    slope = differentiate(primitive, 0)
    yield pytest.param(1, [primitive, slope, differentiate(slope, 0)], id="gaussian_primitive")


@pytest.mark.parametrize("d, exprs", list(_program_sets()))
def test_program_set_matches_members_alone(d, exprs):
    # sharing subterms across a set changes no value: byte-equal to each
    # member compiled on its own and to a recursive tree walk, at random
    # points and at the origin
    pts = np.random.default_rng(7).normal(scale=2.0, size=(500, d))
    pts[0] = 0.0
    together = ex.Program(exprs)(pts)
    alone = np.stack([evaluate(e, pts) for e in exprs], axis=-1)
    with np.errstate(all="ignore"):
        walked = np.stack([np.broadcast_to(_tree_walk(e, pts), (500,)) for e in exprs], axis=-1)
    assert together.shape == (500, len(exprs))
    assert together.tobytes() == alone.tobytes() == walked.tobytes()
    assert ex.Program(exprs)(pts[3]).tobytes() == alone[3].tobytes()


def test_program_keeps_signed_zero_constants_apart():
    # Const(0.0) == Const(-0.0) as dataclasses; hash-consing must not merge them
    exprs = [parse_expr("max(x1, 0)", 1), parse_expr("max(x1, -0)", 1)]
    assert exprs[0] == exprs[1]
    out = ex.Program(exprs)(np.array([[-1.0]]))
    assert out[0, 0] == 0.0 and out[0, 1] == 0.0
    assert list(np.signbit(out[0])) == [False, True]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_norm2_sums_in_order_bit_equal_to_einsum(d):
    # the generated function sums norm2 in order in every d; in d <= 2 einsum
    # does too, so those bytes are the ones einsum gave
    rng = np.random.default_rng(d)
    fn = ex.Program(ex.Norm2())
    for magnitude in (1e-200, 1e-10, 1.0, 1e10, 1e200):
        pts = magnitude * rng.standard_normal((2000, d)) * np.exp(rng.standard_normal((2000, d)))
        with np.errstate(all="ignore"):
            got = fn(pts)
            assert got.tobytes() == _in_order_norm2(pts).tobytes()
            if d <= 2:
                assert got.tobytes() == np.einsum("ij,ij->i", pts, pts).tobytes()
        # one point as Python floats sums in the same order
        assert repr([fn.function(d)(*row)[0] for row in pts[:50].tolist()]) == repr(got[:50].tolist())


def test_program_releases_temporaries():
    # each temporary is deleted after its last use; outputs and arguments stay
    prog = ex.Program([parse_expr("exp(x1*x2) + x1*x2", 2), parse_expr("x1*x2", 2)])
    fn = prog.function(2)
    assert fn.__code__.co_varnames[:2] == ("x1", "x2")
    # x1*x2 is an output; exp(x1*x2) is the one temporary
    deleted = [i.argval for i in dis.get_instructions(fn) if i.opname == "DELETE_FAST"]
    assert len(deleted) == 1
    assert repr(fn(0.5, 2.0)) == repr((np.exp(1.0) + 1.0, 1.0))


def test_program_constant_division_follows_numpy():
    # constant-only nodes divide like numpy arrays (inf/nan), not like Python floats
    out = ex.Program([parse_expr("1/0", 1), parse_expr("x1 + 0/(1 - 1)", 1)])(np.array([[2.0]]))
    assert np.isposinf(out[0, 0]) and np.isnan(out[0, 1])


# --- random smooth expression corpus ---------------------------------------

_SMOOTH_LEAVES = ["x1", "x2", "1.5", "0.25", "-2.0"]
_SMOOTH_WRAP = [
    "exp({a}/(1 + norm2(x)))",
    "ln(2 + ({a})^2)",
    "sqrt(1 + ({a})^2)",
    "({a}) * ({b})",
    "({a}) + ({b})",
    "({a}) - ({b})",
    "({a}) / (2 + ({b})^2)",
    "({a})^3",
    "({a})^2",
]


def _random_smooth_source(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return str(rng.choice(_SMOOTH_LEAVES))
    tpl = rng.choice(_SMOOTH_WRAP)
    return tpl.format(
        a=_random_smooth_source(rng, depth - 1), b=_random_smooth_source(rng, depth - 1)
    )


def test_randomized_derivative_vs_central_difference():
    # property from the module contract: |symbolic - central difference|
    # <= 1e-6 * (1 + |value|) at h = 1e-5 over a randomized smooth corpus
    rng = np.random.default_rng(2024)
    h = 1e-5
    checked = 0
    while checked < 300:
        src = _random_smooth_source(rng)
        t = parse_expr(src, 2)
        x = rng.uniform(-2, 2, size=2)
        try:
            v = eval_expr(t, x)
        except DomainError:
            continue
        if abs(v) > 1e6:
            continue
        for k in range(2):
            d = differentiate(t, k)
            sym = eval_expr(d, x)
            xp = x.copy()
            xm = x.copy()
            xp[k] += h
            xm[k] -= h
            fd = (eval_expr(t, xp) - eval_expr(t, xm)) / (2 * h)
            assert abs(sym - fd) <= 1e-6 * (1 + abs(v)), (src, k, sym, fd)
        checked += 1


# --- hypothesis: printer round trip -----------------------------------------


def _exprs(dim=2):
    leaves = st.one_of(
        st.floats(
            min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
        ).map(lambda v: Const(float(v))),
        st.integers(min_value=0, max_value=dim - 1).map(Coord),
        st.just(ex.Norm2()),
    )

    def extend(inner):
        return st.one_of(
            st.tuples(inner, inner).map(lambda ab: ex.Add(*ab)),
            st.tuples(inner, inner).map(lambda ab: ex.Sub(*ab)),
            st.tuples(inner, inner).map(lambda ab: ex.Mul(*ab)),
            st.tuples(inner, inner).map(lambda ab: ex.Div(*ab)),
            st.tuples(inner, inner).map(lambda ab: ex.Max(*ab)),
            st.tuples(inner, inner).map(lambda ab: ex.Min(*ab)),
            inner.map(ex.Exp),
            inner.map(ex.Ln),
            inner.map(ex.Sqrt),
            inner.map(ex.Erf),
            st.tuples(inner, st.sampled_from([2.0, 3.0, 0.5, -1.0, 1.5])).map(
                lambda be: ex.Pow(*be)
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_exprs())
def test_printer_round_trip(tree):
    assert parse_expr(to_source(tree), 2) == tree


def test_negative_zero_reprints_as_a_literal():
    tree = ex.Pow(Const(-0.0), 2.0)
    once = to_source(tree)
    assert once == "(-0.0)^2.0"
    assert to_source(parse_expr(once, 2)) == once


def test_printer_spelling_of_every_node_type():
    # report.json echoes these strings, so they are pinned exactly
    x1, x2 = Coord(0), Coord(1)
    cases = [
        (Const(-2.5), "(-2.5)"),
        (Const(-0.0), "(-0.0)"),
        (ex.Add(x1, Const(1.0)), "(x1 + 1.0)"),
        (ex.Sub(x1, x2), "(x1 - x2)"),
        (ex.Mul(Const(2.0), x2), "(2.0 * x2)"),
        (ex.Div(x1, x2), "(x1 / x2)"),
        (ex.Pow(x1, -1.5), "x1^(-1.5)"),
        (ex.Pow(ex.Pow(x1, 2.0), 0.5), "(x1^2.0)^0.5"),
        (ex.Exp(x1), "exp(x1)"),
        (ex.Ln(x2), "ln(x2)"),
        (ex.Sqrt(ex.Norm2()), "sqrt(norm2(x))"),
        (ex.Erf(ex.Mul(Const(2.0), x1)), "erf((2.0 * x1))"),
        (Max(x1, x2), "max(x1, x2)"),
        (ex.Min(x1, Const(0.0)), "min(x1, 0.0)"),
        (ex.SelGe(x1, x2, Const(1.0), Const(-1.0)), "selge(x1, x2, 1.0, (-1.0))"),
    ]
    for tree, text in cases:
        assert to_source(tree) == text
        assert parse_expr(text, 2) == tree
    assert math.copysign(1.0, parse_expr("(-0.0)", 2).value) == -1.0


@settings(max_examples=100, deadline=None)
@given(_exprs())
def test_reprint_is_stable(tree):
    once = to_source(tree)
    assert to_source(parse_expr(once, 2)) == once


@settings(max_examples=200, deadline=None)
@given(_exprs(), st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
def test_program_on_floats_matches_arrays(tree, point):
    # one point as Python floats gives the bits of that point in a batch:
    # every node calls the numpy ufunc, and a zero divisor does not raise
    prog = ex.Program([tree, ex.Div(Const(1.0), ex.Sub(Coord(0), Coord(0)))])
    pts = np.array([point, [0.5, -1.5]])
    with np.errstate(all="ignore"):
        floats = prog.function(2)(*point)
        arrays = prog(pts)[0]
    assert repr([float(v) for v in floats]) == repr(arrays.tolist())
