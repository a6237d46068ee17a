//! Deriving lineage-query traversals from the workflow DAG.
//!
//! A lineage query names *where it starts* (cells of some array) and *where
//! it should end* (another array); which operators lie between the two is a
//! property of the workflow specification, not something the caller should
//! hand-assemble.  This module derives it:
//!
//! * [`backward_plan`] / [`forward_plan`] build a [`TracePlan`] — the pruned
//!   sub-DAG between the two endpoints, as an ordered edge list.  At a DAG
//!   join the plan *fans out over every path* and the executor unions the
//!   per-branch intermediates before descending further, so each operator on
//!   the sub-DAG is traversed exactly once no matter how many paths cross it.
//! * [`backward_paths`] / [`forward_paths`] enumerate the individual
//!   root-to-destination paths as explicit `(operator, input index)` step
//!   vectors — the legacy single-path query format.  Because every step of a
//!   lineage query distributes over unions of query cells, executing a
//!   [`TracePlan`] is equivalent to running each enumerated path separately
//!   and unioning the answers (the parity tests assert exactly this).

use std::collections::HashMap;
use std::fmt;

use crate::workflow::{InputSource, OpId, Workflow};

/// One traversal step: operator `op` crossed through its `input_idx`'th
/// input edge.
pub type Edge = (OpId, usize);

/// An array of the workflow: either the output of an operator or a named
/// external input.  Both query endpoints are arrays.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ArrayNode {
    /// The output array of an operator.
    Output(OpId),
    /// A named external input array.
    External(String),
}

impl ArrayNode {
    /// The output of operator `op`.
    pub fn output(op: OpId) -> Self {
        ArrayNode::Output(op)
    }

    /// The external array named `name`.
    pub fn external(name: impl Into<String>) -> Self {
        ArrayNode::External(name.into())
    }
}

impl fmt::Display for ArrayNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrayNode::Output(op) => write!(f, "output of operator {op}"),
            ArrayNode::External(name) => write!(f, "external array '{name}'"),
        }
    }
}

/// Errors detected while deriving a traversal from the DAG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathError {
    /// An endpoint referenced an operator id not present in the workflow.
    UnknownOperator(OpId),
    /// An endpoint referenced an external array the workflow does not read.
    UnknownSource(String),
    /// No directed path connects the endpoints in the requested direction.
    NoPath {
        /// The array the traversal starts from.
        from: ArrayNode,
        /// The array the traversal should reach.
        to: ArrayNode,
    },
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::UnknownOperator(op) => write!(f, "no operator with id {op}"),
            PathError::UnknownSource(name) => {
                write!(f, "workflow reads no external array named '{name}'")
            }
            PathError::NoPath { from, to } => {
                write!(f, "no workflow path from {from} to {to}")
            }
        }
    }
}

impl std::error::Error for PathError {}

/// The pruned, ordered traversal between two arrays of one workflow.
///
/// `edges` lists every `(operator, input index)` edge on *any* path between
/// the endpoints, ordered so that an executor visiting them in sequence has
/// always fully accumulated an operator's intermediate before crossing it
/// (reverse-topological for backward traversals, topological for forward
/// ones).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TracePlan {
    /// The array the query cells start on.
    pub from: ArrayNode,
    /// The array the answer cells land on.
    pub to: ArrayNode,
    /// The traversal edges, in execution order.
    pub edges: Vec<Edge>,
}

impl TracePlan {
    /// The distinct operators the plan traverses, in execution order.
    pub fn ops(&self) -> Vec<OpId> {
        let mut out = Vec::new();
        for &(op, _) in &self.edges {
            if !out.contains(&op) {
                out.push(op);
            }
        }
        out
    }
}

fn check_op(wf: &Workflow, op: OpId) -> Result<(), PathError> {
    wf.node(op)
        .map(|_| ())
        .map_err(|_| PathError::UnknownOperator(op))
}

fn check_end(wf: &Workflow, end: &ArrayNode) -> Result<(), PathError> {
    match end {
        ArrayNode::Output(op) => check_op(wf, *op),
        ArrayNode::External(name) => {
            if wf.external_inputs().contains(&name.as_str()) {
                Ok(())
            } else {
                Err(PathError::UnknownSource(name.clone()))
            }
        }
    }
}

/// Whether `src` is the destination array `to`.
fn is_dest(src: &InputSource, to: &ArrayNode) -> bool {
    match (src, to) {
        (InputSource::Operator(q), ArrayNode::Output(t)) => q == t,
        (InputSource::External(n), ArrayNode::External(t)) => n == t,
        _ => false,
    }
}

/// Per-operator flag: does any input chain of `op` lead to `to`?
/// Computed in one topological pass.
fn reaches_backward(wf: &Workflow, to: &ArrayNode) -> HashMap<OpId, bool> {
    let mut reaches: HashMap<OpId, bool> = HashMap::new();
    for &op in wf.topo_order() {
        let node = wf.node(op).expect("topo ids are valid");
        let hit = node.inputs.iter().any(|src| {
            is_dest(src, to)
                || matches!(src, InputSource::Operator(q)
                    if reaches.get(q).copied().unwrap_or(false))
        });
        reaches.insert(op, hit);
    }
    reaches
}

/// Derives the backward traversal from the output of `from` to the array
/// `to`.
///
/// The plan's edges are in reverse-topological order restricted to operators
/// that both (a) receive query cells flowing down from `from` and (b) lie on
/// some chain reaching `to`; each included edge either lands on `to` itself
/// or descends into another plan operator.
pub fn backward_plan(wf: &Workflow, from: OpId, to: &ArrayNode) -> Result<TracePlan, PathError> {
    check_op(wf, from)?;
    check_end(wf, to)?;
    let reaches = reaches_backward(wf, to);
    if !reaches.get(&from).copied().unwrap_or(false) {
        return Err(PathError::NoPath {
            from: ArrayNode::Output(from),
            to: to.clone(),
        });
    }
    // Walk ops in reverse topo order; an op joins the plan when query cells
    // reach it (it is `from`, or a plan edge descends into its output).
    let mut on_plan: HashMap<OpId, bool> = HashMap::new();
    on_plan.insert(from, true);
    let mut edges = Vec::new();
    for &op in wf.topo_order().iter().rev() {
        if !on_plan.get(&op).copied().unwrap_or(false) {
            continue;
        }
        let node = wf.node(op).expect("topo ids are valid");
        for (idx, src) in node.inputs.iter().enumerate() {
            if is_dest(src, to) {
                edges.push((op, idx));
            } else if let InputSource::Operator(q) = src {
                if reaches.get(q).copied().unwrap_or(false) {
                    edges.push((op, idx));
                    on_plan.insert(*q, true);
                }
            }
        }
    }
    Ok(TracePlan {
        from: ArrayNode::Output(from),
        to: to.clone(),
        edges,
    })
}

/// Derives one backward plan per external array reachable from `from` — the
/// full-workflow trace.  Sources are returned in the order the workflow
/// declares them.
pub fn backward_source_plans(
    wf: &Workflow,
    from: OpId,
) -> Result<Vec<(String, TracePlan)>, PathError> {
    check_op(wf, from)?;
    let mut out = Vec::new();
    for name in wf.external_inputs() {
        match backward_plan(wf, from, &ArrayNode::external(name)) {
            Ok(plan) => out.push((name.to_string(), plan)),
            Err(PathError::NoPath { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

/// Whether `src` is the forward-traversal origin array `from`.
fn is_origin(src: &InputSource, from: &ArrayNode) -> bool {
    is_dest(src, from)
}

/// Derives the forward traversal from the array `from` to the output of
/// `to`: edges in topological order over operators that are both fed
/// (transitively) by `from` and feed (transitively) into `to`.
pub fn forward_plan(wf: &Workflow, from: &ArrayNode, to: OpId) -> Result<TracePlan, PathError> {
    check_end(wf, from)?;
    check_op(wf, to)?;
    // fed[op]: does `from` flow into some input chain of op?
    let mut fed: HashMap<OpId, bool> = HashMap::new();
    for &op in wf.topo_order() {
        let node = wf.node(op).expect("topo ids are valid");
        let hit = node.inputs.iter().any(|src| {
            is_origin(src, from)
                || matches!(src, InputSource::Operator(q)
                    if fed.get(q).copied().unwrap_or(false))
        });
        fed.insert(op, hit);
    }
    if !fed.get(&to).copied().unwrap_or(false) {
        return Err(PathError::NoPath {
            from: from.clone(),
            to: ArrayNode::Output(to),
        });
    }
    // leads[op]: does op's output flow into `to` (or is it `to`)?
    let mut leads: HashMap<OpId, bool> = HashMap::new();
    for &op in wf.topo_order().iter().rev() {
        let hit = op == to
            || wf
                .consumers(op)
                .iter()
                .any(|(c, _)| leads.get(c).copied().unwrap_or(false));
        leads.insert(op, hit);
    }
    let on_plan = |op: OpId| {
        fed.get(&op).copied().unwrap_or(false) && leads.get(&op).copied().unwrap_or(false)
    };
    let mut edges = Vec::new();
    for &op in wf.topo_order() {
        if !on_plan(op) {
            continue;
        }
        let node = wf.node(op).expect("topo ids are valid");
        for (idx, src) in node.inputs.iter().enumerate() {
            let carries =
                is_origin(src, from) || matches!(src, InputSource::Operator(q) if on_plan(*q));
            if carries {
                edges.push((op, idx));
            }
        }
    }
    Ok(TracePlan {
        from: from.clone(),
        to: ArrayNode::Output(to),
        edges,
    })
}

/// Enumerates every individual backward path from the output of `from` to
/// `to` as explicit step vectors, ordered from `from` toward `to`.
/// Exponential in pathological DAGs; meant for parity tests, which check a
/// plan's answer against the union of per-path answers — executors should
/// use [`backward_plan`].
pub fn backward_paths(
    wf: &Workflow,
    from: OpId,
    to: &ArrayNode,
) -> Result<Vec<Vec<Edge>>, PathError> {
    let plan = backward_plan(wf, from, to)?;
    let reaches = reaches_backward(wf, to);
    let mut out = Vec::new();
    let mut stack = Vec::new();
    fn dfs(
        wf: &Workflow,
        op: OpId,
        to: &ArrayNode,
        reaches: &HashMap<OpId, bool>,
        stack: &mut Vec<Edge>,
        out: &mut Vec<Vec<Edge>>,
    ) {
        let node = wf.node(op).expect("plan ids are valid");
        for (idx, src) in node.inputs.iter().enumerate() {
            stack.push((op, idx));
            if is_dest(src, to) {
                out.push(stack.clone());
            } else if let InputSource::Operator(q) = src {
                if reaches.get(q).copied().unwrap_or(false) {
                    dfs(wf, *q, to, reaches, stack, out);
                }
            }
            stack.pop();
        }
    }
    dfs(wf, from, to, &reaches, &mut stack, &mut out);
    debug_assert!(!out.is_empty(), "plan existed: {plan:?}");
    Ok(out)
}

/// Enumerates every individual forward path from the array `from` to the
/// output of `to` as explicit step vectors.  See [`backward_paths`] for the
/// intended use.
pub fn forward_paths(
    wf: &Workflow,
    from: &ArrayNode,
    to: OpId,
) -> Result<Vec<Vec<Edge>>, PathError> {
    let plan = forward_plan(wf, from, to)?;
    let plan_ops = plan.ops();
    let mut out = Vec::new();
    // DFS over plan operators, extending paths toward `to`.
    fn dfs(
        wf: &Workflow,
        op: OpId,
        to: OpId,
        plan_ops: &[OpId],
        stack: &mut Vec<Edge>,
        out: &mut Vec<Vec<Edge>>,
    ) {
        if op == to {
            out.push(stack.clone());
            return;
        }
        for (consumer, idx) in wf.consumers(op) {
            if plan_ops.contains(&consumer) {
                stack.push((consumer, idx));
                dfs(wf, consumer, to, plan_ops, stack, out);
                stack.pop();
            }
        }
    }
    // Start edges: every plan operator reading `from` directly.
    for &op in &plan_ops {
        let node = wf.node(op).expect("plan ids are valid");
        for (idx, src) in node.inputs.iter().enumerate() {
            if is_origin(src, from) {
                let mut stack = vec![(op, idx)];
                dfs(wf, op, to, &plan_ops, &mut stack, &mut out);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::{LineageMode, LineageSink};
    use crate::operator::Operator;
    use std::sync::Arc;
    use subzero_array::{Array, ArrayRef, Shape};

    struct Dummy(String, usize);

    impl Dummy {
        fn arc(name: &str, inputs: usize) -> Arc<dyn Operator> {
            Arc::new(Dummy(name.to_string(), inputs))
        }
    }

    impl Operator for Dummy {
        fn name(&self) -> &str {
            &self.0
        }
        fn num_inputs(&self) -> usize {
            self.1
        }
        fn output_shape(&self, input_shapes: &[Shape]) -> Shape {
            input_shapes[0]
        }
        fn run(&self, inputs: &[ArrayRef], _m: &[LineageMode], _s: &mut dyn LineageSink) -> Array {
            (*inputs[0]).clone()
        }
    }

    /// ext -> a -> {b, c} -> d  (diamond), plus a stray sink e off c.
    fn diamond() -> Workflow {
        let mut b = Workflow::builder("diamond");
        let a = b.add_source(Dummy::arc("a", 1), "ext");
        let b1 = b.add_unary(Dummy::arc("b", 1), a);
        let c = b.add_unary(Dummy::arc("c", 1), a);
        let d = b.add_binary(Dummy::arc("d", 2), b1, c);
        let _e = b.add_unary(Dummy::arc("e", 1), c);
        let _ = d;
        b.build().unwrap()
    }

    #[test]
    fn backward_plan_fans_out_over_diamond_joins() {
        let wf = diamond();
        let plan = backward_plan(&wf, 3, &ArrayNode::external("ext")).unwrap();
        // d descends into both b and c, which both descend into a, which
        // lands on ext; the stray sink e is pruned.
        let mut edges = plan.edges.clone();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 0), (1, 0), (2, 0), (3, 0), (3, 1)]);
        // Edges are reverse-topological: d's edges precede b's and c's.
        let pos = |e: Edge| plan.edges.iter().position(|&x| x == e).unwrap();
        assert!(pos((3, 0)) < pos((1, 0)));
        assert!(pos((3, 1)) < pos((2, 0)));
    }

    #[test]
    fn backward_plan_to_operator_output_stops_there() {
        let wf = diamond();
        let plan = backward_plan(&wf, 3, &ArrayNode::output(0)).unwrap();
        // Stops at a's output: a itself is not traversed.
        let mut edges = plan.edges.clone();
        edges.sort_unstable();
        assert_eq!(edges, vec![(1, 0), (2, 0), (3, 0), (3, 1)]);
    }

    #[test]
    fn backward_paths_enumerate_each_branch() {
        let wf = diamond();
        let mut paths = backward_paths(&wf, 3, &ArrayNode::external("ext")).unwrap();
        paths.sort();
        assert_eq!(
            paths,
            vec![vec![(3, 0), (1, 0), (0, 0)], vec![(3, 1), (2, 0), (0, 0)],]
        );
    }

    #[test]
    fn forward_plan_and_paths_mirror_backward() {
        let wf = diamond();
        let plan = forward_plan(&wf, &ArrayNode::external("ext"), 3).unwrap();
        let mut edges = plan.edges.clone();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 0), (1, 0), (2, 0), (3, 0), (3, 1)]);
        // Topological: a's edge precedes b's and c's, which precede d's.
        let pos = |e: Edge| plan.edges.iter().position(|&x| x == e).unwrap();
        assert!(pos((0, 0)) < pos((1, 0)) && pos((1, 0)) < pos((3, 0)));
        assert!(pos((2, 0)) < pos((3, 1)));
        let mut paths = forward_paths(&wf, &ArrayNode::external("ext"), 3).unwrap();
        paths.sort();
        assert_eq!(
            paths,
            vec![vec![(0, 0), (1, 0), (3, 0)], vec![(0, 0), (2, 0), (3, 1)],]
        );
        // Forward from a's output: a itself is not traversed.
        let plan = forward_plan(&wf, &ArrayNode::output(0), 4).unwrap();
        assert_eq!(plan.edges, vec![(2, 0), (4, 0)]);
    }

    #[test]
    fn source_plans_cover_each_external() {
        let mut b = Workflow::builder("two-src");
        let x = b.add_source(Dummy::arc("x", 1), "left");
        let y = b.add_source(Dummy::arc("y", 1), "right");
        let _m = b.add_binary(Dummy::arc("m", 2), x, y);
        let wf = b.build().unwrap();
        let plans = backward_source_plans(&wf, 2).unwrap();
        let names: Vec<&str> = plans.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["left", "right"]);
        assert_eq!(plans[0].1.edges, vec![(2, 0), (0, 0)]);
        assert_eq!(plans[1].1.edges, vec![(2, 1), (1, 0)]);
        // y cannot reach "left".
        assert!(matches!(
            backward_plan(&wf, 1, &ArrayNode::external("left")),
            Err(PathError::NoPath { .. })
        ));
    }

    #[test]
    fn endpoint_errors() {
        let wf = diamond();
        assert_eq!(
            backward_plan(&wf, 99, &ArrayNode::external("ext")).unwrap_err(),
            PathError::UnknownOperator(99)
        );
        assert_eq!(
            backward_plan(&wf, 3, &ArrayNode::external("nope")).unwrap_err(),
            PathError::UnknownSource("nope".to_string())
        );
        assert!(matches!(
            forward_plan(&wf, &ArrayNode::output(3), 0),
            Err(PathError::NoPath { .. })
        ));
        assert!(PathError::UnknownOperator(7).to_string().contains('7'));
        assert!(ArrayNode::external("ext").to_string().contains("ext"));
    }

    #[test]
    fn same_upstream_at_two_inputs_yields_two_edges() {
        let mut b = Workflow::builder("double");
        let a = b.add_source(Dummy::arc("a", 1), "ext");
        let _sq = b.add_binary(Dummy::arc("sq", 2), a, a);
        let wf = b.build().unwrap();
        let plan = backward_plan(&wf, 1, &ArrayNode::external("ext")).unwrap();
        assert_eq!(plan.edges, vec![(1, 0), (1, 1), (0, 0)]);
        let paths = backward_paths(&wf, 1, &ArrayNode::external("ext")).unwrap();
        assert_eq!(paths.len(), 2);
    }
}
