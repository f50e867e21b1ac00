"""Tests for the Modelica-subset compiler: lexer, parser, flattening, driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FmuFormatError, ModelicaSemanticError, ModelicaSyntaxError
from repro.fmi import load_fmu
from repro.modelica import compile_fmu, compile_model, parse_model
from repro.modelica.ast_nodes import BinaryOp, FunctionCall, Identifier, NumberLiteral
from repro.modelica.codegen import evaluate_constant, render_expression
from repro.modelica.lexer import tokenize
from repro.modelica.parser import Parser

SIMPLE_MODEL = """
model decay "first order decay"
  parameter Real a(min=0, max=10) = 2.0 "rate";
  Real x(start=5.0);
equation
  der(x) = -a * x;
end decay;
"""

HEAT_PUMP = """
model heatpump
  parameter Real A = -0.444;
  parameter Real B(min=0, max=20) = 13.78;
  parameter Real C = 7.8;
  parameter Real D = 0;
  parameter Real E = -4.444;
  input Real u(min=0, max=1);
  output Real y;
  Real x(start=20.0);
equation
  der(x) = A*x + B*u + E;
  y = C*x + D*u;
end heatpump;
"""


class TestLexer:
    def test_tokenizes_keywords_idents_numbers(self):
        tokens = tokenize("model m parameter Real a = 1.5e2; end m;")
        kinds = [t.kind for t in tokens]
        assert kinds[0] == "keyword"
        assert "number" in kinds
        assert tokens[-1].kind == "eof"

    def test_comments_are_skipped(self):
        tokens = tokenize("// comment\nmodel /* block */ m end m;")
        values = [t.value for t in tokens if t.kind != "eof"]
        assert values == ["model", "m", "end", "m", ";"]

    def test_unterminated_string_raises(self):
        with pytest.raises(ModelicaSyntaxError):
            tokenize('model m "unterminated')

    def test_unknown_character_raises(self):
        with pytest.raises(ModelicaSyntaxError):
            tokenize("model m ? end m;")

    def test_line_numbers_tracked(self):
        tokens = tokenize("model m\n  Real x;\nend m;")
        real_token = next(t for t in tokens if t.value == "Real")
        assert real_token.line == 2


class TestParser:
    def test_parses_components_and_equations(self):
        model = parse_model(SIMPLE_MODEL)
        assert model.name == "decay"
        assert model.description == "first order decay"
        assert [c.name for c in model.components] == ["a", "x"]
        assert model.component("a").prefix == "parameter"
        assert model.component("a").description == "rate"
        assert len(model.equations) == 1

    def test_modifiers_parsed(self):
        model = parse_model(SIMPLE_MODEL)
        modifiers = model.component("a").modifiers
        assert set(modifiers) == {"min", "max"}
        assert isinstance(modifiers["min"], NumberLiteral)

    def test_expression_precedence(self):
        model = parse_model(HEAT_PUMP)
        equation = model.equations[0]
        assert isinstance(equation.lhs, FunctionCall)
        # A*x + B*u + E parses left-associatively as ((A*x + B*u) + E).
        assert isinstance(equation.rhs, BinaryOp) and equation.rhs.op == "+"

    def test_mismatched_end_name_rejected(self):
        with pytest.raises(ModelicaSyntaxError):
            parse_model("model a Real x; equation der(x) = -x; end b;")

    def test_empty_source_rejected(self):
        with pytest.raises(ModelicaSyntaxError):
            parse_model("   ")

    def test_missing_semicolon_rejected(self):
        with pytest.raises(ModelicaSyntaxError):
            parse_model("model m Real x equation der(x) = -x; end m;")

    def test_power_operator(self):
        model = parse_model(
            "model p parameter Real k = 2; Real x(start=1); equation der(x) = -k * x ^ 2; end p;"
        )
        rhs = model.equations[0].rhs
        assert isinstance(rhs, BinaryOp)


class TestCodegen:
    def test_render_maps_power_operator(self):
        model = parse_model(
            "model p Real x(start=1); equation der(x) = -x ^ 2; end p;"
        )
        text = render_expression(model.equations[0].rhs, {"x"})
        assert "**" in text

    def test_render_rejects_unknown_identifier(self):
        with pytest.raises(ModelicaSemanticError):
            render_expression(Identifier("ghost"), known_names=set())

    def test_constant_folding(self):
        expr = parse_model(
            "model c constant Real a = 2 + 3 * 4; Real x(start=1); equation der(x) = -x; end c;"
        ).component("a").value
        assert evaluate_constant(expr, {}) == pytest.approx(14.0)

    def test_constant_folding_division_by_zero(self):
        model = parse_model(
            "model c constant Real a = 1 / 0; Real x(start=1); equation der(x) = -x; end c;"
        )
        with pytest.raises(ModelicaSemanticError):
            evaluate_constant(model.component("a").value, {})


class TestFlattenAndCompile:
    def test_compile_simple_model(self):
        archive = compile_model(SIMPLE_MODEL)
        assert archive.model_name == "decay"
        assert archive.ode_system.state_names == ["x"]
        assert archive.model_description.variable("a").minimum == pytest.approx(0.0)

    def test_compiled_model_simulates_decay(self):
        model = load_fmu(compile_model(SIMPLE_MODEL))
        result = model.simulate(start_time=0.0, stop_time=2.0, output_step=0.1)
        assert result.final("x") == pytest.approx(5.0 * np.exp(-2.0 * 2.0), rel=1e-3)

    def test_heat_pump_variables_classified(self):
        archive = compile_model(HEAT_PUMP)
        md = archive.model_description
        assert [v.name for v in md.parameters] == ["A", "B", "C", "D", "E"]
        assert [v.name for v in md.inputs] == ["u"]
        assert [v.name for v in md.outputs] == ["y"]
        assert archive.ode_system.inputs == ["u"]

    def test_output_without_equation_rejected(self):
        source = "model bad output Real y; Real x(start=1); equation der(x) = -x; end bad;"
        with pytest.raises(ModelicaSemanticError):
            compile_model(source)

    def test_model_without_states_rejected(self):
        source = "model bad parameter Real a = 1; output Real y; equation y = a; end bad;"
        with pytest.raises(ModelicaSemanticError):
            compile_model(source)

    def test_duplicate_state_equation_rejected(self):
        source = (
            "model bad Real x(start=1); equation der(x) = -x; der(x) = -2*x; end bad;"
        )
        with pytest.raises(ModelicaSemanticError):
            compile_model(source)

    def test_algebraic_local_in_derivative_rejected_at_compile_time(self):
        # z is an output of the FMU, and equations may reference only
        # states, inputs, parameters and time: the model fails to compile
        # instead of being stored and failing at simulate time.
        source = (
            "model bad parameter Real k = 0.5; Real x(start=1); Real z; "
            "equation der(x) = -k*z; z = 2*x; end bad;"
        )
        with pytest.raises(FmuFormatError, match="references 'z'"):
            compile_model(source)

    def test_constants_folded_into_parameters(self):
        source = (
            "model c constant Real k = 4; Real x(start=1); equation der(x) = -k * x; end c;"
        )
        archive = compile_model(source)
        assert archive.ode_system.parameters["k"] == pytest.approx(4.0)

    def test_compile_fmu_writes_file(self, tmp_path):
        path = compile_fmu(SIMPLE_MODEL, output_path=tmp_path / "decay.fmu")
        assert path.exists()
        model = load_fmu(path)
        assert model.model_name == "decay"

    def test_compile_fmu_from_mo_file(self, tmp_path):
        mo = tmp_path / "decay.mo"
        mo.write_text(SIMPLE_MODEL)
        archive = compile_fmu(str(mo))
        assert archive.model_name == "decay"

    def test_missing_mo_file_raises(self):
        from repro.errors import ModelicaError

        with pytest.raises(ModelicaError):
            compile_model("/nonexistent/path/model.mo")

    def test_source_preserved_in_archive(self):
        archive = compile_model(SIMPLE_MODEL)
        assert "model decay" in archive.source
