"""CPL parser: paper Listing 4 grammar and Listing 5 examples."""

from __future__ import annotations

import pytest

from repro.cpl import ast, parse, parse_predicate
from repro.errors import CPLSyntaxError


def only(program):
    assert len(program.statements) == 1
    return program.statements[0]


class TestCommands:
    def test_load(self):
        cmd = only(parse("load 'cloudsettings' '/path/to/settings'"))
        assert isinstance(cmd, ast.LoadCmd)
        assert cmd.alias == "cloudsettings"
        assert cmd.location == "/path/to/settings"
        assert cmd.scope == ""

    def test_load_with_scope(self):
        cmd = only(parse("load 'ini' 'x.ini' as 'Fabric'"))
        assert cmd.scope == "Fabric"

    def test_include(self):
        cmd = only(parse("include 'type_checks.cpl'"))
        assert isinstance(cmd, ast.IncludeCmd)
        assert cmd.path == "type_checks.cpl"

    def test_let(self):
        cmd = only(parse("let UniqueCIDR := unique & cidr"))
        assert isinstance(cmd, ast.LetCmd)
        assert cmd.name == "UniqueCIDR"
        assert isinstance(cmd.predicate, ast.And)

    def test_get(self):
        cmd = only(parse("get $Fabric.Timeout"))
        assert isinstance(cmd, ast.GetCmd)
        assert cmd.domain == ast.DomainRef("Fabric.Timeout")


class TestSpecStatements:
    def test_simple(self):
        spec = only(parse("$OSBuildPath -> path & exists"))
        assert isinstance(spec, ast.SpecStatement)
        assert spec.domain == ast.DomainRef("OSBuildPath")
        final = spec.steps[-1]
        assert isinstance(final, ast.PredicateStep)
        assert isinstance(final.predicate, ast.And)

    def test_relop_statement_sugar(self):
        # Figure 4 style: $k1 <= $k2
        spec = only(parse("$k1 <= $k2"))
        assert isinstance(spec, ast.SpecStatement)
        pred = spec.steps[0].predicate
        assert isinstance(pred, ast.RelPred)
        assert pred.op == "<="
        assert pred.operand == ast.DomainRef("k2")

    def test_union_domain_statement(self):
        spec = only(parse("$s.k1, $s.k2 -> ip & unique"))
        assert isinstance(spec.domain, ast.UnionDomain)
        assert len(spec.domain.members) == 2

    def test_inline_compartment_domain(self):
        spec = only(parse("#[Datacenter] $Machinepool.FillFactor# -> consistent"))
        assert isinstance(spec.domain, ast.CompartmentDomain)
        assert spec.domain.compartment == "Datacenter"
        assert spec.domain.inner == ast.DomainRef("Machinepool.FillFactor")

    def test_prefix_transform_domain(self):
        spec = only(parse("lower($OSPath) -> endswith('.xml')"))
        assert isinstance(spec.domain, ast.TransformDomain)
        assert spec.domain.name == "lower"

    def test_arithmetic_domain(self):
        spec = only(parse("$a + $b -> [0, 10]"))
        assert isinstance(spec.domain, ast.BinOpDomain)
        assert spec.domain.op == "+"

    def test_multiplication_domain(self):
        spec = only(parse("$Listen * $Ratio -> [0, 10]"))
        assert isinstance(spec.domain, ast.BinOpDomain)
        assert spec.domain.op == "*"

    def test_spec_records_text_and_line(self):
        program = parse("// hi\n$a -> int")
        spec = program.statements[0]
        assert spec.line == 2
        assert "$a -> int" in spec.text

    def test_missing_final_predicate_raises(self):
        with pytest.raises(CPLSyntaxError):
            parse("$a -> split(',')")

    def test_predicate_midpipeline_raises(self):
        with pytest.raises(CPLSyntaxError):
            parse("$a -> int -> nonempty")


class TestPredicates:
    def pred(self, text):
        return parse_predicate(text)

    def test_precedence_and_over_or(self):
        pred = self.pred("a | b & c")
        assert isinstance(pred, ast.Or)
        assert isinstance(pred.right, ast.And)

    def test_parens(self):
        pred = self.pred("(a | b) & c")
        assert isinstance(pred, ast.And)
        assert isinstance(pred.left, ast.Or)

    def test_not(self):
        pred = self.pred("~nonempty | @UniqueCIDR")
        assert isinstance(pred, ast.Or)
        assert isinstance(pred.left, ast.Not)
        assert isinstance(pred.right, ast.MacroRef)

    def test_quantified(self):
        pred = self.pred("exists nonempty")
        assert isinstance(pred, ast.Quantified)
        assert pred.quantifier == "exists"

    def test_exists_as_primitive_when_terminal(self):
        pred = self.pred("path & exists")
        assert isinstance(pred.right, ast.PrimitiveCall)
        assert pred.right.name == "exists"

    def test_range(self):
        pred = self.pred("[5, 15]")
        assert isinstance(pred, ast.RangePred)
        assert pred.low == ast.Literal(5)

    def test_range_with_domains(self):
        pred = self.pred("[$StartIP, $EndIP]")
        assert pred.low == ast.DomainRef("StartIP")

    def test_negative_number_operand(self):
        pred = self.pred("[-5, 5]")
        assert pred.low == ast.Literal(-5)

    def test_set(self):
        pred = self.pred("{'compute', 'storage'}")
        assert isinstance(pred, ast.SetPred)
        assert len(pred.members) == 2

    def test_set_with_domain_member(self):
        pred = self.pred("{$MachinePool.Name}")
        assert pred.members == (ast.DomainRef("MachinePool.Name"),)

    def test_relation(self):
        pred = self.pred("== 'LoadBalancerGateway'")
        assert isinstance(pred, ast.RelPred)
        assert pred.op == "=="

    def test_primitive_with_args(self):
        pred = self.pred("match('UtilityFabric')")
        assert isinstance(pred, ast.PrimitiveCall)
        assert pred.args == (ast.Literal("UtilityFabric"),)

    def test_if_predicate(self):
        pred = self.pred("if (nonempty) int else bool")
        assert isinstance(pred, ast.IfPred)
        assert pred.otherwise is not None

    def test_context_relation(self):
        pred = self.pred("$_ == $UfcName")
        assert isinstance(pred, ast.RelPred)
        assert pred.operand == ast.DomainRef("UfcName")


class TestBlocks:
    def test_namespace(self):
        block = only(parse("namespace r.s {\n$k1 -> int\n$k2 -> bool\n}"))
        assert isinstance(block, ast.NamespaceBlock)
        assert block.names == ("r.s",)
        assert len(block.body) == 2

    def test_multiple_namespaces(self):
        block = only(parse("namespace a, b.c {\n$k -> int\n}"))
        assert block.names == ("a", "b.c")

    def test_compartment(self):
        block = only(parse("compartment Cluster {\n$ProxyIP -> [$StartIP, $EndIP]\n}"))
        assert isinstance(block, ast.CompartmentBlock)
        assert block.name == "Cluster"

    def test_nested_blocks(self):
        block = only(parse(
            "compartment DC {\n compartment Cluster {\n $k -> int\n }\n}"
        ))
        inner = block.body[0]
        assert isinstance(inner, ast.CompartmentBlock)


class TestIfStatements:
    def test_if_with_quantified_condition(self):
        stmt = only(parse(
            "if (exists $RoutingEntry.Gateway == 'LoadBalancerGateway')\n"
            "  $LoadBalancerSet.Device -> nonempty"
        ))
        assert isinstance(stmt, ast.IfStatement)
        condition = stmt.condition.spec
        final = condition.steps[-1].predicate
        assert isinstance(final, ast.Quantified)
        assert len(stmt.then) == 1
        assert stmt.otherwise == ()

    def test_if_else_blocks(self):
        stmt = only(parse(
            "if ($CloudName -> ~match('UtilityFabric')) {\n"
            "  $Fabric::$CloudName.TenantName -> nonempty\n"
            "} else {\n"
            "  $Fabric::$CloudName.TenantName -> ~nonempty\n"
            "}"
        ))
        assert isinstance(stmt, ast.IfStatement)
        assert len(stmt.then) == 1
        assert len(stmt.otherwise) == 1


class TestPipelines:
    def test_transform_chain(self):
        spec = only(parse("$T -> split(':') -> at(0) -> $_ == $UfcName"))
        assert isinstance(spec.steps[0], ast.TransformStep)
        assert spec.steps[0].name == "split"
        assert isinstance(spec.steps[1], ast.TransformStep)
        assert isinstance(spec.steps[2], ast.PredicateStep)

    def test_foreach(self):
        spec = only(parse("$M -> foreach($Pool::$_.VipRanges) -> nonempty"))
        step = spec.steps[0]
        assert isinstance(step, ast.ForeachStep)
        assert step.domain.notation == "Pool::$_.VipRanges"

    def test_conditional_transform(self):
        spec = only(parse("$V -> if (nonempty) split('-') -> [0, 10]"))
        step = spec.steps[0]
        assert isinstance(step, ast.CondStep)
        assert isinstance(step.then, ast.TransformStep)

    def test_tuple_step_vs_range(self):
        spec = only(parse("$V -> split('-') -> [at(0), at(1)] -> exists [$lo, $hi]"))
        assert isinstance(spec.steps[1], ast.TupleStep)
        final = spec.steps[2].predicate
        assert isinstance(final, ast.Quantified)
        assert isinstance(final.operand, ast.RangePred)

    def test_full_listing5_parses(self):
        source = """
        load 'cloudsettings' '/path/to/settings'
        let UniqueCIDR := unique & cidr
        $Cluster.MachinePool -> {$MachinePool.Name}
        $Fabric.AlertFailNodesThreshold -> int & nonempty
        & [5,15]
        #[Datacenter] $Machinepool.FillFactor# -> consistent
        compartment Cluster {
          $ProxyIP -> [$StartIP, $EndIP]
          $IPv6Prefix -> ~nonempty | @UniqueCIDR
        }
        if (exists $RoutingEntry.Gateway == 'LoadBalancerGateway')
          $LoadBalancerSet.Device -> nonempty
        if ($CloudName -> ~match('UtilityFabric')) {
          $Fabric::$CloudName.TenantName
            -> split(':') -> at(0) -> $_ == $UfcName
        } else {
          $Fabric::$CloudName.TenantName -> ~nonempty
        }
        $MachinePoolName -> foreach($MachinePool::$_.LoadBalancer.VipRanges)
          -> if (nonempty) split('-')
          -> [at(0), at(1)] -> exists [$StartIP, $EndIP]
        """
        program = parse(source)
        assert len(program.statements) == 9

    def test_unicode_listing5_forms(self):
        program = parse("$Fabric.K → int & [5,15]\n∃ $a.b == 'x'\n")
        assert len(program.statements) == 2


class TestErrors:
    def test_dangling_arrow(self):
        with pytest.raises(CPLSyntaxError):
            parse("$a ->")

    def test_unknown_transform_in_pipeline(self):
        with pytest.raises(CPLSyntaxError):
            parse("$a -> frobnicate($b) -> int")

    def test_unclosed_block(self):
        with pytest.raises(CPLSyntaxError):
            parse("compartment C {\n$a -> int\n")

    def test_context_var_as_statement_domain(self):
        with pytest.raises(CPLSyntaxError):
            parse("$_ -> int")

    def test_error_carries_position(self):
        with pytest.raises(CPLSyntaxError) as info:
            parse("$a -> int\n$b ->")
        assert info.value.line == 2
