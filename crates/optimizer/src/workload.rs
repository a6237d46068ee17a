//! Sample query workloads.
//!
//! The optimizer's objective weighs each operator by "the probability that a
//! lineage query in the workload accesses operator i", computed from a sample
//! workload the user expects to run (§VII).  Because a strategy that serves
//! backward queries may be useless for forward queries, the workload also
//! records the direction mix per operator.

use std::collections::HashMap;

use subzero::model::Direction;
use subzero::query::QuerySpec;
use subzero_engine::paths;
use subzero_engine::{OpId, Workflow};

/// Per-operator workload statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpWorkload {
    /// Probability that a query in the workload traverses this operator.
    pub access_probability: f64,
    /// Fraction of the traversals that are backward (the rest are forward).
    pub backward_fraction: f64,
    /// Average number of query cells flowing into the operator's step.
    pub avg_query_cells: f64,
}

impl OpWorkload {
    /// Fraction of traversals that are forward.
    pub fn forward_fraction(&self) -> f64 {
        1.0 - self.backward_fraction
    }
}

/// A sample lineage query workload, summarised per operator.
#[derive(Clone, Debug, Default)]
pub struct QueryWorkload {
    per_op: HashMap<OpId, OpWorkload>,
}

impl QueryWorkload {
    /// An empty workload (the optimizer falls back to black-box everywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Summarises a set of weighted declarative [`QuerySpec`]s against a
    /// workflow: each spec's operator traversal is derived from the DAG
    /// (exactly as the query session will derive it at execution time, with
    /// multi-path fan-out at joins) and every traversed operator receives
    /// the spec's weight once.  Specs whose endpoints the DAG does not
    /// connect contribute nothing.
    pub fn from_specs(workflow: &Workflow, specs: &[(QuerySpec, f64)]) -> Self {
        let total_weight: f64 = specs.iter().map(|(_, w)| *w).sum();
        let mut per_op: HashMap<OpId, (f64, f64, f64, f64)> = HashMap::new();
        for (spec, w) in specs {
            let plan = match spec.direction {
                Direction::Backward => {
                    let paths::ArrayNode::Output(op) = spec.from else {
                        continue;
                    };
                    paths::backward_plan(workflow, op, &spec.to)
                }
                Direction::Forward => {
                    let paths::ArrayNode::Output(op) = spec.to else {
                        continue;
                    };
                    paths::forward_plan(workflow, &spec.from, op)
                }
            };
            let Ok(plan) = plan else { continue };
            for op in plan.ops() {
                let entry = per_op.entry(op).or_insert((0.0, 0.0, 0.0, 0.0));
                entry.0 += w;
                if spec.direction == Direction::Backward {
                    entry.1 += w;
                }
                entry.2 += spec.cells.len() as f64 * w;
                entry.3 += w;
            }
        }
        let mut out = QueryWorkload::new();
        for (op, (weight, bw, cells, hits)) in per_op {
            out.per_op.insert(
                op,
                OpWorkload {
                    access_probability: if total_weight > 0.0 {
                        weight / total_weight
                    } else {
                        0.0
                    },
                    backward_fraction: if weight > 0.0 { bw / weight } else { 0.0 },
                    avg_query_cells: if hits > 0.0 { cells / hits } else { 0.0 },
                },
            );
        }
        out
    }

    /// Uniform workload: every listed operator is accessed with probability 1
    /// with the given backward fraction and query size.
    pub fn uniform(
        ops: impl IntoIterator<Item = OpId>,
        backward_fraction: f64,
        avg_query_cells: f64,
    ) -> Self {
        let mut out = QueryWorkload::new();
        for op in ops {
            out.per_op.insert(
                op,
                OpWorkload {
                    access_probability: 1.0,
                    backward_fraction,
                    avg_query_cells,
                },
            );
        }
        out
    }

    /// The workload statistics for one operator (zero if never accessed).
    pub fn for_op(&self, op: OpId) -> OpWorkload {
        self.per_op.get(&op).copied().unwrap_or_default()
    }

    /// Operators that appear in the workload.
    pub fn ops(&self) -> Vec<OpId> {
        let mut v: Vec<OpId> = self.per_op.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Sets (or overrides) one operator's workload statistics.
    pub fn set(&mut self, op: OpId, workload: OpWorkload) {
        self.per_op.insert(op, workload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use subzero_array::{Array, ArrayRef, Coord, Shape};
    use subzero_engine::{LineageSink, Operator};

    struct Id;
    impl Operator for Id {
        fn name(&self) -> &str {
            "id"
        }
        fn output_shape(&self, s: &[Shape]) -> Shape {
            s[0]
        }
        fn run(
            &self,
            inputs: &[ArrayRef],
            _m: &[subzero_engine::LineageMode],
            _s: &mut dyn LineageSink,
        ) -> Array {
            (*inputs[0]).clone()
        }
    }

    /// src -> 0 -> 1: a two-operator chain.
    fn chain() -> Workflow {
        let mut b = subzero_engine::Workflow::builder("chain");
        let first = b.add_source(Arc::new(Id), "src");
        b.add_unary(Arc::new(Id), first);
        b.build().unwrap()
    }

    #[test]
    fn from_specs_derives_ops_from_the_dag() {
        // src -> a -> {b, c} -> d (diamond): a backward spec from d to the
        // source must weight all four operators once each.
        let mut b = subzero_engine::Workflow::builder("w");
        let a = b.add_source(Arc::new(Id), "src");
        let b1 = b.add_unary(Arc::new(Id), a);
        let c = b.add_unary(Arc::new(Id), a);
        let d = b.add_binary(
            Arc::new(subzero_engine::ops::Elementwise2::new(
                subzero_engine::ops::BinaryKind::Mean,
            )),
            b1,
            c,
        );
        let wf = b.build().unwrap();
        let spec = QuerySpec::backward_to_source(vec![Coord::d2(0, 0)], d, "src");
        let w = QueryWorkload::from_specs(&wf, &[(spec, 1.0)]);
        assert_eq!(w.ops(), vec![0, 1, 2, 3]);
        for op in 0..4 {
            assert!((w.for_op(op).access_probability - 1.0).abs() < 1e-9);
            assert!((w.for_op(op).backward_fraction - 1.0).abs() < 1e-9);
        }
        // A disconnected spec contributes nothing but keeps the total weight.
        let bad = QuerySpec::forward_from_source(vec![Coord::d2(0, 0)], "nope", d);
        let w = QueryWorkload::from_specs(&wf, &[(bad, 1.0)]);
        assert!(w.ops().is_empty());
    }

    #[test]
    fn from_specs_computes_probabilities_and_direction_mix() {
        let wf = chain();
        // Backward through both operators; forward through operator 1 only.
        let q_back = QuerySpec::backward_to_source(vec![Coord::d2(0, 0)], 1, "src");
        let cells = vec![Coord::d2(0, 0), Coord::d2(0, 1)];
        let q_fwd = QuerySpec::forward(cells, paths::ArrayNode::Output(0), 1);
        let w = QueryWorkload::from_specs(&wf, &[(q_back, 1.0), (q_fwd, 1.0)]);

        let op0 = w.for_op(0);
        assert!((op0.access_probability - 0.5).abs() < 1e-9);
        assert!((op0.backward_fraction - 1.0).abs() < 1e-9);
        assert!((op0.avg_query_cells - 1.0).abs() < 1e-9);

        let op1 = w.for_op(1);
        assert!((op1.access_probability - 1.0).abs() < 1e-9);
        assert!((op1.backward_fraction - 0.5).abs() < 1e-9);
        assert!((op1.avg_query_cells - 1.5).abs() < 1e-9);
        assert!((op1.forward_fraction() - 0.5).abs() < 1e-9);

        assert_eq!(w.for_op(9), OpWorkload::default());
        assert_eq!(w.ops(), vec![0, 1]);
    }

    #[test]
    fn weighted_queries_shift_probabilities() {
        let wf = chain();
        let q_a = QuerySpec::backward_to_source(vec![Coord::d2(0, 0)], 0, "src");
        let q_b = QuerySpec::backward(vec![Coord::d2(0, 0)], 1, paths::ArrayNode::Output(0));
        let w = QueryWorkload::from_specs(&wf, &[(q_a, 3.0), (q_b, 1.0)]);
        assert!((w.for_op(0).access_probability - 0.75).abs() < 1e-9);
        assert!((w.for_op(1).access_probability - 0.25).abs() < 1e-9);
    }

    #[test]
    fn uniform_workload() {
        let mut w = QueryWorkload::uniform(0..3, 0.5, 100.0);
        assert_eq!(w.ops(), vec![0, 1, 2]);
        assert_eq!(w.for_op(2).avg_query_cells, 100.0);
        w.set(
            5,
            OpWorkload {
                access_probability: 0.1,
                backward_fraction: 1.0,
                avg_query_cells: 4.0,
            },
        );
        assert_eq!(w.ops(), vec![0, 1, 2, 5]);
    }

    #[test]
    fn empty_workload_is_all_zero() {
        let w = QueryWorkload::new();
        assert!(w.ops().is_empty());
        assert_eq!(w.for_op(0).access_probability, 0.0);
    }
}
