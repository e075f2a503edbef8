"""Tests for dependence analysis on reference kernels."""

from fractions import Fraction

import pytest

from repro.deps import DependenceGraph, compute_dependences
from repro.ir import Kernel
from repro.ir.examples import elementwise_chain, matmul, running_example, transpose_add
from repro.solver.problem import LinExpr, var


def rels_of(kernel):
    return compute_dependences(kernel)


def find(relations, kind=None, source=None, target=None, tensor=None):
    out = []
    for r in relations:
        if kind and r.kind != kind:
            continue
        if source and r.source.name != source:
            continue
        if target and r.target.name != target:
            continue
        if tensor and r.tensor_name != tensor:
            continue
        out.append(r)
    return out


class TestRunningExample:
    @pytest.fixture(scope="class")
    def relations(self):
        return rels_of(running_example(8))

    def test_flow_x_to_y_on_b(self, relations):
        flows = find(relations, kind="flow", source="X", target="Y", tensor="B")
        assert len(flows) == 1
        assert flows[0].level == 0  # X's nest entirely precedes Y's

    def test_self_flow_y_on_c(self, relations):
        # C[i][j] is read and written by Y across k iterations.
        self_flows = find(relations, kind="flow", source="Y", target="Y", tensor="C")
        assert len(self_flows) >= 1

    def test_no_reverse_dependence(self, relations):
        assert not find(relations, source="Y", target="X")

    def test_kinds_present(self, relations):
        kinds = {r.kind for r in relations}
        assert "flow" in kinds
        # Y both reads and writes C at the same iteration set -> anti and
        # output self-dependences across the k loop as well.
        assert "output" in kinds
        assert "anti" in kinds

    def test_input_deps_off_by_default(self, relations):
        # Two reads of one tensor (Y reads B, C and D across k) order nothing.
        assert all(r.source_access.is_write or r.target_access.is_write
                   for r in relations)

    def test_flow_b_relation_content(self, relations):
        rel = find(relations, kind="flow", source="X", target="Y", tensor="B")[0]
        poly = rel.polyhedron
        # Equal i and equal k between X's write and Y's read of B.
        point = {
            "i__s": Fraction(2), "k__s": Fraction(3),
            "i__t": Fraction(2), "j__t": Fraction(0), "k__t": Fraction(3),
            "N": Fraction(8),
        }
        assert poly.contains(point)
        bad = dict(point)
        bad["k__t"] = Fraction(4)
        assert not poly.contains(bad)


class TestSatisfactionQueries:
    @pytest.fixture(scope="class")
    def flow_b(self):
        relations = rels_of(running_example(8))
        return find(relations, kind="flow", source="X", target="Y", tensor="B")[0]

    def test_identity_weak(self, flow_b):
        # phi = i for both: equal i on the relation -> weakly satisfied.
        phi = var("i")
        assert flow_b.weakly_satisfied_by(phi, phi)
        assert not flow_b.strongly_satisfied_by(phi, phi)

    def test_zero_distance(self, flow_b):
        phi = var("i")
        assert flow_b.zero_distance_on(phi, phi)

    def test_strong_satisfaction_by_constants(self, flow_b):
        # Schedule X at 0 and Y at 1 (outer scalar dimension).
        assert flow_b.strongly_satisfied_by(LinExpr(const=0), LinExpr(const=1))

    def test_violation(self, flow_b):
        # Schedule X after Y: violates even weak satisfaction.
        assert not flow_b.weakly_satisfied_by(LinExpr(const=1), LinExpr(const=0))

    def test_k_is_not_zero_distance(self, flow_b):
        # phi_X = k, phi_Y = j: distances vary -> not coincident.
        assert not flow_b.zero_distance_on(var("k"), var("j"))


class TestSelfDependenceLevels:
    def test_matmul_reduction_level(self):
        relations = rels_of(matmul(6))
        self_rels = find(relations, source="S", target="S", tensor="C")
        assert self_rels, "matmul must carry a self-dependence on C"
        # The loop carrying the dependence is k, the third iterator; in the
        # interleaved order (b0, i, b1, j, b2, k, b3) that is entry 5.
        levels = {r.level for r in self_rels}
        assert levels == {5}

    def test_elementwise_chain_is_pipeline(self):
        relations = rels_of(elementwise_chain(6, length=3))
        flows = find(relations, kind="flow")
        pairs = {(r.source.name, r.target.name) for r in flows}
        assert ("S0", "S1") in pairs and ("S1", "S2") in pairs
        assert ("S0", "S2") not in pairs  # no shared tensor

    def test_transpose_add(self):
        relations = rels_of(transpose_add(6))
        flows = find(relations, kind="flow", source="T", target="E", tensor="B")
        assert len(flows) == 1


class TestDependenceGraph:
    def test_chain_components(self):
        kernel = elementwise_chain(4, length=3)
        graph = DependenceGraph(kernel.statements, rels_of(kernel))
        comps = graph.topological_components()
        assert comps == [["S0"], ["S1"], ["S2"]]

    def test_self_edges_ignored(self):
        kernel = matmul(4)
        graph = DependenceGraph(kernel.statements, rels_of(kernel))
        assert graph.strongly_connected_components() == [["S"]]

    def test_component_of(self):
        kernel = running_example(4)
        graph = DependenceGraph(kernel.statements, rels_of(kernel))
        assert graph.component_of("X") == ["X"]
        with pytest.raises(KeyError):
            graph.component_of("nope")

    def test_cycle_detection(self):
        # Build an artificial mutual dependence: P writes U reads V,
        # Q writes V reads U -> in a loop-carried way both directions exist.
        kernel = Kernel("cycle", params={"N": 4})
        kernel.add_tensor("U", (4,))
        kernel.add_tensor("V", (4,))
        kernel.add_statement("P", [("i", 0, "N")],
                             writes=[("U", ["i"])], reads=[("V", ["i"])])
        kernel.add_statement("Q", [("i", 0, "N")],
                             writes=[("V", ["i"])], reads=[("U", ["i"])])
        relations = rels_of(kernel)
        # P -> Q flow on U (P before Q textually); Q -> P anti on V
        # (P reads V before Q writes it).
        graph = DependenceGraph(kernel.statements, relations)
        # anti dependence Q<-P means edge P->Q; flow P->Q as well: no cycle
        # unless both directions appear.
        comps = graph.strongly_connected_components()
        assert all(len(c) >= 1 for c in comps)

    def test_unknown_statement_rejected(self):
        k1 = running_example(4)
        k2 = elementwise_chain(4)
        with pytest.raises(ValueError):
            DependenceGraph(k1.statements, rels_of(k2))


class TestSemanticGroundTruth:
    def test_relation_pairs_match_bruteforce(self):
        """Every relation pair corresponds to a genuine conflict in original
        order, and every brute-force conflict is covered by some relation."""
        kernel = running_example(3)
        relations = rels_of(kernel)
        n = Fraction(3)

        # Brute-force conflicts on tensor B between X and Y.
        x = kernel.statement("X")
        y = kernel.statement("Y")
        expected = set()
        for xs in x.iteration_points(kernel.params):
            for ys in y.iteration_points(kernel.params):
                if xs["i"] == ys["i"] and xs["k"] == ys["k"]:
                    expected.add((xs["i"], xs["k"], ys["i"], ys["j"], ys["k"]))

        flow = find(relations, kind="flow", source="X", target="Y", tensor="B")[0]
        covered = set()
        for i_s in range(3):
            for k_s in range(3):
                for i_t in range(3):
                    for j_t in range(3):
                        for k_t in range(3):
                            point = {
                                "i__s": Fraction(i_s), "k__s": Fraction(k_s),
                                "i__t": Fraction(i_t), "j_t": Fraction(0),
                                "j__t": Fraction(j_t), "k__t": Fraction(k_t),
                                "N": n,
                            }
                            point = {d: point[d] for d in flow.polyhedron.dims}
                            if flow.polyhedron.contains(point):
                                covered.add((Fraction(i_s), Fraction(k_s),
                                             Fraction(i_t), Fraction(j_t),
                                             Fraction(k_t)))
        assert covered == expected
