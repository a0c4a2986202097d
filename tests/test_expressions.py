import json
import random
import sys
from fractions import Fraction

import pytest

from weyltype import format_element, parse_and_eval
from weyltype.cli import run_command
from weyltype.errors import DimensionError, ExprSyntaxError, NotMember
from weyltype.expressions import MAX_NESTING, MAX_POWER
from weyltype.sampling import random_element


class TestParseAst:
    """The parser evaluates as it reads: each rule yields the Element it denotes."""

    def test_product_of_generators(self, desk):
        out = parse_and_eval("x[(1,0)] * d1^2", desk)
        assert out == desk.x((1, 0)) * desk.d(1, 2)

    def test_sum_with_scalar_and_bracket(self, desk):
        out = parse_and_eval("3/2 * x[(0,1);(2,0)] + [d1, x[(1,0)]]", desk)
        scaled = desk.scalar(Fraction(3, 2)) * desk.x((0, 1), (2, 0))
        assert out == scaled + desk.d(1).bracket(desk.x((1, 0)))

    def test_wrong_vector_length(self, desk):
        with pytest.raises(DimensionError):
            parse_and_eval("x[(1)]", desk)

    def test_empty_vector_is_zero(self, desk):
        assert parse_and_eval("x[();(1,0)]", desk) == desk.x((0, 0), (1, 0))

    def test_paren_node(self, desk):
        assert parse_and_eval("(d1)", desk) == desk.d(1)

    def test_bare_scalar_terms(self, desk):
        assert parse_and_eval("0", desk) == desk.zero()
        assert parse_and_eval("-3/2", desk) == desk.scalar(Fraction(-3, 2))

    def test_subtraction_folds_into_scalar(self, desk):
        out = parse_and_eval("d1 - 2 * d2", desk)
        assert out == desk.d(1) + desk.scalar(-2) * desk.d(2)

    def test_derivation_index_range(self, desk):
        with pytest.raises(DimensionError):
            parse_and_eval("d3", desk)

    def test_syntax_error_position_and_expected(self, desk):
        with pytest.raises(ExprSyntaxError) as err:
            parse_and_eval("x[(1,0)] * * d1", desk)
        assert err.value.position == 11
        assert err.value.expected

    def test_trailing_garbage_rejected(self, desk):
        with pytest.raises(ExprSyntaxError):
            parse_and_eval("d1 d2", desk)

    def test_unknown_character_rejected(self, desk):
        with pytest.raises(ExprSyntaxError):
            parse_and_eval("d1 + q", desk)

    def test_negative_polynomial_index_rejected(self, desk):
        with pytest.raises(ExprSyntaxError):
            parse_and_eval("x[(1,0);(-1,0)]", desk)

    def test_unterminated_vector(self, desk):
        with pytest.raises(ExprSyntaxError):
            parse_and_eval("x[(1,0", desk)

    def test_x_without_bracket(self, desk):
        with pytest.raises(ExprSyntaxError):
            parse_and_eval("x + d1", desk)

    def test_d_without_index(self, desk):
        with pytest.raises(ExprSyntaxError):
            parse_and_eval("d + d1", desk)

    def test_empty_input(self, desk):
        with pytest.raises(ExprSyntaxError):
            parse_and_eval("", desk)

    def test_zero_denominator_rejected(self, desk):
        with pytest.raises(ExprSyntaxError):
            parse_and_eval("1/0 * d1", desk)

    def test_off_lattice_point_reported_before_later_errors(self, desk):
        # the parser reaches the x[...] first; tokenizer errors still win
        for src in ("x[(1/3,0)] * * d1", "x[(1/3,0)] + d3", "x[(1/3,0)] + x[(1)]"):
            with pytest.raises(NotMember):
                parse_and_eval(src, desk)
        with pytest.raises(ExprSyntaxError):
            parse_and_eval("x[(1/3,0)] + q", desk)


class TestNesting:
    @pytest.mark.parametrize("opener, closer", [("(", ")"), ("[d1, ", "]")])
    def test_bound_is_accepted(self, desk, opener, closer):
        # d1 grades x^{(1,0)} by 1, so each [d1, .] level keeps it fixed
        src = opener * MAX_NESTING + "x[(1,0)]" + closer * MAX_NESTING
        assert parse_and_eval(src, desk) == desk.x((1, 0))

    @pytest.mark.parametrize("opener, closer", [("(", ")"), ("[d1, ", "]")])
    def test_deeper_input_is_a_syntax_error_at_the_opener(self, desk, opener, closer):
        for depth in (MAX_NESTING + 1, 10_000):
            src = opener * depth + "d1" + closer * depth
            with pytest.raises(ExprSyntaxError) as err:
                parse_and_eval(src, desk)
            assert err.value.position == len(opener) * MAX_NESTING


class TestPowerBound:
    def test_bound_is_accepted(self, desk):
        src = f"d1^{MAX_POWER} * x[(1,0)]"
        assert parse_and_eval(src, desk) == desk.d(1, MAX_POWER) * desk.x((1, 0))

    def test_higher_power_is_a_syntax_error_at_its_token(self, desk):
        for power in (MAX_POWER + 1, 10 ** 30):
            with pytest.raises(ExprSyntaxError) as err:
                parse_and_eval(f"x[(1,0)] * d2^{power} * x[(1,0)]", desk)
            assert err.value.position == len("x[(1,0)] * d2^")
            assert str(err.value) == (f"line 1, column 15: expected a power of at most "
                                      f"{MAX_POWER}, found {power}")


_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _INT_DIGITS, reason="int() has no digit limit in this interpreter")
class TestNumberLength:
    """A number longer than the interpreter's digit limit for int() is a
    syntax error at its token, in every place a number is read."""

    LONG = "9" * (_INT_DIGITS + 700)
    CASES = {"power": "d1^" + LONG, "scalar": LONG + " * d1",
             "denominator": "1/" + LONG + " * d1", "index": "d" + LONG}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_parse_error_at_the_token(self, desk, name):
        src = self.CASES[name]
        with pytest.raises(ExprSyntaxError) as err:
            parse_and_eval(src, desk)
        assert err.value.position == src.index(self.LONG)
        assert err.value.args[0] == (f"expected a number of at most {_INT_DIGITS} digits, "
                                     f"found {len(self.LONG)} digits")

    @pytest.mark.parametrize("name", ("power", "scalar"))
    def test_cli_exits_2_with_a_parse_error(self, tmp_path, capsys, name):
        config = tmp_path / "desk.json"
        config.write_text(json.dumps({"ell1": 1, "ell2": 1,
                                      "gamma_generators": [["1", "0"], ["0", "1"],
                                                           ["1/2", "1/2"]]}))
        assert run_command(["eval", "--json", "--config", str(config), self.CASES[name]]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("parse error: line 1, column ")
        assert json.loads(captured.out)["error"] == captured.err.strip()

    def test_the_limit_itself_is_accepted(self, desk):
        nines = "9" * _INT_DIGITS
        assert parse_and_eval(nines + " * d1", desk) == desk.d(1, coeff=int(nines))


def test_non_decimal_digits_are_not_numbers(desk):
    # str.isdigit accepts superscripts, which int() refuses
    with pytest.raises(ExprSyntaxError) as err:
        parse_and_eval("d1\u00b2", desk)
    assert err.value.position == 2


class TestEval:
    def test_normal_ordering_example(self, w10):
        out = parse_and_eval("d1 * x[();(1)]", w10)
        assert out == w10.x_poly(1) * w10.d(1) + w10.one()

    def test_bracket_grading(self, w01):
        out = parse_and_eval("[d1, x[(1)]]", w01)
        assert out == w01.x((1,))

    def test_zero_scalar_product(self, desk):
        assert parse_and_eval("0 * d1", desk).is_zero

    def test_products_fold_left_to_right(self, desk):
        lhs = parse_and_eval("d1 * x[(1,0);()] * d2", desk)
        rhs = (desk.d(1) * desk.x((1, 0))) * desk.d(2)
        assert lhs == rhs

    def test_paren_grouping(self, w01):
        out = parse_and_eval("d1 * (x[(1)] + x[(2)])", w01)
        assert out == w01.d(1) * (w01.x((1,)) + w01.x((2,)))

    def test_scalar_fraction(self, desk):
        out = parse_and_eval("-5/3", desk)
        assert out == desk.scalar(Fraction(-5, 3))

    def test_non_lattice_point_propagates(self, desk):
        from weyltype.errors import NotMember
        with pytest.raises(NotMember):
            parse_and_eval("x[(1/3,0)]", desk)


class TestPrinter:
    def test_zero(self, desk):
        assert format_element(desk.zero()) == "0"

    def test_unit_monomial_prints_as_scalar(self, desk):
        assert format_element(desk.one()) == "1"
        assert format_element(desk.scalar(Fraction(-3, 2))) == "-3/2"

    def test_single_derivation(self, desk):
        assert format_element(desk.d(1)) == "d1"
        assert format_element(desk.d(2, 3)) == "d2^3"

    def test_x_factor_always_carries_polynomial_part(self, desk):
        assert format_element(desk.x((1, 0))) == "x[(1,0);(0,0)]"

    def test_negative_leading_coefficient(self, desk):
        assert format_element(-desk.d(1)) == "-1 * d1"
        assert format_element(desk.scalar(2) - desk.d(1)) == "2 - d1"

    def test_canonical_term_order(self, desk):
        e = desk.d(2) + desk.d(1, 2) + desk.x((0, 1))
        # lattice coordinates sort first, then polynomial part, then level
        assert format_element(e) == "d2 + d1^2 + x[(0,1);(0,0)]"

    def test_eval_round_trip_identity(self, desk):
        assert format_element(parse_and_eval("d1", desk)) == "d1"


class TestRoundTrip:
    def test_random_elements(self, desk):
        rng = random.Random(31)
        for _ in range(60):
            e = random_element(desk, rng)
            assert parse_and_eval(format_element(e), desk) == e

    def test_rendering_deterministic(self, desk):
        def render(seed):
            rng = random.Random(seed)
            return [format_element(random_element(desk, rng)) for _ in range(40)]

        assert render(7) == render(7)

    def test_round_trip_other_signatures(self, w10, w01, z2):
        rng = random.Random(32)
        for sig in (w10, w01, z2):
            for _ in range(20):
                e = random_element(sig, rng)
                assert parse_and_eval(format_element(e), sig) == e

