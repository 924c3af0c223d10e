//! Interpretability: converting tree ensembles to DNF formulas and
//! counting atoms (§6.3).
//!
//! The paper measures interpretability as inversely proportional to the
//! number of *atoms* in a model's DNF form (Singh et al.). A decision tree
//! converts to a DNF by collecting, for every leaf predicting *match*, the
//! conjunction of threshold predicates along its root-to-leaf path;
//! overlapping atoms across conjunctions are counted with repetition. A
//! forest's DNF is the disjunction over its trees.

use mlcore::forest::RandomForest;
use mlcore::rules::Dnf;
use mlcore::tree::{DecisionTree, Node};
use std::fmt::Write as _;

/// One predicate along a tree path: `feature <= threshold` (when
/// `greater == false`) or `feature > threshold`.
#[derive(Debug, Clone, PartialEq)]
pub struct PathAtom {
    /// Feature index tested.
    pub feature: usize,
    /// Split threshold.
    pub threshold: f64,
    /// `true` when the path takes the `>` branch.
    pub greater: bool,
}

/// All root-to-match-leaf paths of a tree, as conjunctions of
/// [`PathAtom`]s.
pub fn tree_match_paths(tree: &DecisionTree) -> Vec<Vec<PathAtom>> {
    let mut out = Vec::new();
    let mut path = Vec::new();
    walk(tree.root(), &mut path, &mut out);
    out
}

fn walk(node: &Node, path: &mut Vec<PathAtom>, out: &mut Vec<Vec<PathAtom>>) {
    match node {
        Node::Leaf { label, .. } => {
            if *label {
                out.push(path.clone());
            }
        }
        Node::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            path.push(PathAtom {
                feature: *feature,
                threshold: *threshold,
                greater: false,
            });
            walk(left, path, out);
            path.pop();
            path.push(PathAtom {
                feature: *feature,
                threshold: *threshold,
                greater: true,
            });
            walk(right, path, out);
            path.pop();
        }
    }
}

/// Number of DNF atoms of one tree: total predicates along all match
/// paths, counted with repetition (paper §6.3).
pub fn tree_atom_count(tree: &DecisionTree) -> usize {
    tree_match_paths(tree).iter().map(Vec::len).sum()
}

/// Number of DNF atoms of a forest: sum over its trees.
pub fn forest_atom_count(forest: &RandomForest) -> usize {
    forest.trees().iter().map(tree_atom_count).sum()
}

/// Whether a tree's DNF form agrees with the tree on an input — used by
/// property tests; the DNF predicts match iff some match path holds.
pub fn tree_dnf_predict(paths: &[Vec<PathAtom>], x: &[f64]) -> bool {
    paths.iter().any(|conj| {
        conj.iter().all(|a| {
            if a.greater {
                x[a.feature] > a.threshold
            } else {
                x[a.feature] <= a.threshold
            }
        })
    })
}

/// Pretty-print a learned rule DNF with feature descriptions, in the
/// paper's §6.3 listing style.
pub fn dnf_to_string(dnf: &Dnf, descs: &[impl std::fmt::Display]) -> String {
    if dnf.clauses().is_empty() {
        return "(empty rule: predicts non-match)".to_owned();
    }
    let mut s = String::new();
    for (ri, clause) in dnf.clauses().iter().enumerate() {
        if ri > 0 {
            s.push_str("\n∨\n");
        }
        let _ = write!(s, "Rule {}: ", ri + 1);
        for (ai, &atom) in clause.atoms().iter().enumerate() {
            if ai > 0 {
                s.push_str("\n  ∧ ");
            }
            let _ = write!(s, "{}", descs[atom]);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcore::data::TrainSet;
    use mlcore::tree::TreeConfig;
    use mlcore::Classifier;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_tree() -> (DecisionTree, Vec<Vec<f64>>, Vec<bool>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for _ in 0..4 {
                    xs.push(vec![f64::from(a), f64::from(b)]);
                    ys.push((a ^ b) == 1);
                }
            }
        }
        let set = TrainSet::new(&xs, &ys);
        let tree = TreeConfig::default().train(&set, &mut StdRng::seed_from_u64(1));
        (tree, xs, ys)
    }

    #[test]
    fn dnf_agrees_with_tree() {
        let (tree, xs, _) = xor_tree();
        let paths = tree_match_paths(&tree);
        for x in &xs {
            assert_eq!(tree.predict(x), tree_dnf_predict(&paths, x));
        }
    }

    #[test]
    fn atom_count_positive_for_nontrivial_tree() {
        let (tree, _, _) = xor_tree();
        let atoms = tree_atom_count(&tree);
        assert!(atoms >= 2, "xor tree needs at least 2 atoms, got {atoms}");
        // Match paths for XOR: two leaves, each at depth ≥ 2.
        assert_eq!(tree_match_paths(&tree).len(), 2);
    }

    #[test]
    fn pure_negative_tree_has_zero_atoms() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![false, false];
        let set = TrainSet::new(&xs, &ys);
        let tree = TreeConfig::default().train(&set, &mut StdRng::seed_from_u64(1));
        assert_eq!(tree_atom_count(&tree), 0);
    }

    #[test]
    fn dnf_pretty_print() {
        use mlcore::rules::{Conjunction, Dnf};
        let dnf = Dnf::new(vec![
            Conjunction::new(vec![0, 1]),
            Conjunction::new(vec![2]),
        ]);
        let descs = vec!["A", "B", "C"];
        let s = dnf_to_string(&dnf, &descs);
        assert!(s.contains("Rule 1: A"));
        assert!(s.contains("∧ B"));
        assert!(s.contains("Rule 2: C"));
        assert!(s.contains("∨"));
        assert_eq!(
            dnf_to_string(&Dnf::empty(), &descs),
            "(empty rule: predicts non-match)"
        );
    }
}
