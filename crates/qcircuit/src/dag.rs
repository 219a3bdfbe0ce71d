//! Gate dependency DAG.
//!
//! Two gates depend on each other when they share a qubit; the DAG is the
//! transitive structure of those per-qubit chains. Both the routing passes
//! (SABRE's front layer, paper §5.3.2) and the DAG-compacting pass (§5.1.3)
//! are built on this view.

use crate::circuit::Circuit;

/// Dependency DAG over the gate indices of a [`Circuit`].
#[derive(Debug, Clone)]
pub struct Dag {
    /// `preds[i]` = indices of gates that must run before gate `i`.
    preds: Vec<Vec<usize>>,
    /// `succs[i]` = indices of gates that depend on gate `i`.
    succs: Vec<Vec<usize>>,
    num_gates: usize,
}

impl Dag {
    /// Builds the DAG of a circuit from its per-qubit gate chains.
    pub fn build(c: &Circuit) -> Self {
        let n = c.len();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        let mut last: Vec<Option<usize>> = vec![None; c.num_qubits()];
        for (i, g) in c.gates().iter().enumerate() {
            for q in g.qubits() {
                if let Some(p) = last[q] {
                    if !preds[i].contains(&p) {
                        preds[i].push(p);
                        succs[p].push(i);
                    }
                }
                last[q] = Some(i);
            }
        }
        Self { preds, succs, num_gates: n }
    }

    /// Number of gates (nodes).
    pub fn len(&self) -> usize {
        self.num_gates
    }

    /// True when the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.num_gates == 0
    }

    /// Predecessors of gate `i`.
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// Successors of gate `i`.
    pub fn succs(&self, i: usize) -> &[usize] {
        &self.succs[i]
    }

    /// Gates whose predecessors are all marked `done` and are not
    /// themselves done — SABRE's *front layer*.
    pub fn front_layer(&self, done: &[bool]) -> Vec<usize> {
        (0..self.num_gates)
            .filter(|&i| !done[i] && self.preds[i].iter().all(|&p| done[p]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    fn sample() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0)); // 0
        c.push(Gate::Cx(0, 1)); // 1 (after 0)
        c.push(Gate::Cx(1, 2)); // 2 (after 1)
        c.push(Gate::X(0)); // 3 (after 1)
        c
    }

    #[test]
    fn structure() {
        let d = Dag::build(&sample());
        assert_eq!(d.preds(0), &[] as &[usize]);
        assert_eq!(d.preds(1), &[0]);
        assert_eq!(d.preds(2), &[1]);
        assert_eq!(d.preds(3), &[1]);
        assert_eq!(d.succs(1), &[2, 3]);
    }

    #[test]
    fn front_layer_advances() {
        let d = Dag::build(&sample());
        let mut done = vec![false; 4];
        assert_eq!(d.front_layer(&done), vec![0]);
        done[0] = true;
        assert_eq!(d.front_layer(&done), vec![1]);
        done[1] = true;
        assert_eq!(d.front_layer(&done), vec![2, 3]);
    }

    #[test]
    fn empty_circuit() {
        let d = Dag::build(&Circuit::new(2));
        assert!(d.is_empty());
    }

    #[test]
    fn duplicate_pred_collapsed() {
        // A gate sharing two qubits with its predecessor lists it once.
        let mut c = Circuit::new(2);
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Cx(1, 0));
        let d = Dag::build(&c);
        assert_eq!(d.preds(1), &[0]);
    }
}
