//! Workflow DAGs: multi-stage serverless applications.
//!
//! A workflow is a DAG of stages; each stage invokes one function with a
//! fan-out width (parallel tasks). A stage becomes ready when all its
//! predecessors complete; the workflow completes when every stage does.
//! This models the composition mechanisms of §2.1 (chaining, fan-out /
//! fan-in, and arbitrary combinations).

use crate::types::FunctionId;

/// One execution stage of a workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// The function this stage invokes.
    pub function: FunctionId,
    /// Number of parallel tasks (fan-out width within the stage).
    pub tasks: u32,
    /// Indices of stages that must complete before this one starts.
    pub deps: Vec<usize>,
}

impl Stage {
    /// Creates a stage.
    ///
    /// # Panics
    ///
    /// Panics if `tasks == 0`.
    pub fn new(function: FunctionId, tasks: u32, deps: Vec<usize>) -> Self {
        assert!(tasks >= 1, "a stage needs at least one task");
        Stage {
            function,
            tasks,
            deps,
        }
    }
}

/// A validated workflow DAG.
///
/// # Examples
///
/// ```
/// use aqua_faas::{FunctionId, WorkflowDag};
///
/// let dag = WorkflowDag::fan_out_in(
///     "resize",
///     FunctionId(0), // splitter
///     FunctionId(1), // parallel workers
///     4,
///     FunctionId(2), // aggregator
/// );
/// assert_eq!(dag.num_stages(), 3);
/// assert_eq!(dag.stage(1).tasks, 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkflowDag {
    name: String,
    stages: Vec<Stage>,
}

impl WorkflowDag {
    /// Creates a DAG from stages.
    ///
    /// # Panics
    ///
    /// Panics if the stage list is empty, a dependency points forward or to
    /// itself (stages must be topologically ordered), or any dependency
    /// index is out of bounds.
    pub fn new(name: impl Into<String>, stages: Vec<Stage>) -> Self {
        assert!(!stages.is_empty(), "workflow needs at least one stage");
        for (i, s) in stages.iter().enumerate() {
            for &d in &s.deps {
                assert!(d < i, "stage {i} depends on non-earlier stage {d}");
            }
        }
        WorkflowDag {
            name: name.into(),
            stages,
        }
    }

    /// A linear chain: each function depends on the previous one.
    ///
    /// # Panics
    ///
    /// Panics if `functions` is empty.
    pub fn chain(name: impl Into<String>, functions: Vec<FunctionId>) -> Self {
        assert!(!functions.is_empty(), "chain needs at least one function");
        let stages = functions
            .into_iter()
            .enumerate()
            .map(|(i, f)| Stage::new(f, 1, if i == 0 { vec![] } else { vec![i - 1] }))
            .collect();
        WorkflowDag::new(name, stages)
    }

    /// Fan-out/fan-in: `splitter → width × worker → aggregator`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn fan_out_in(
        name: impl Into<String>,
        splitter: FunctionId,
        worker: FunctionId,
        width: u32,
        aggregator: FunctionId,
    ) -> Self {
        WorkflowDag::new(
            name,
            vec![
                Stage::new(splitter, 1, vec![]),
                Stage::new(worker, width, vec![0]),
                Stage::new(aggregator, 1, vec![1]),
            ],
        )
    }

    /// The workflow's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Stage by index.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn stage(&self, i: usize) -> &Stage {
        &self.stages[i]
    }

    /// Iterates over stages in topological order.
    pub fn stages(&self) -> impl Iterator<Item = &Stage> {
        self.stages.iter()
    }

    /// Stages with no dependencies (entry points).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.stages.len())
            .filter(|&i| self.stages[i].deps.is_empty())
            .collect()
    }

    /// For each stage, the stages that depend on it.
    pub fn dependents(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.stages.len()];
        for (i, s) in self.stages.iter().enumerate() {
            for &d in &s.deps {
                out[d].push(i);
            }
        }
        out
    }

    /// Total task count across all stages (invocations per workflow run).
    pub fn total_tasks(&self) -> u32 {
        self.stages.iter().map(|s| s.tasks).sum()
    }

    /// The distinct functions used by this workflow.
    pub fn functions(&self) -> Vec<FunctionId> {
        let mut fns: Vec<FunctionId> = self.stages.iter().map(|s| s.function).collect();
        fns.sort_unstable();
        fns.dedup();
        fns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_links_consecutively() {
        let dag = WorkflowDag::chain("c", vec![FunctionId(0), FunctionId(1), FunctionId(2)]);
        assert_eq!(dag.num_stages(), 3);
        assert_eq!(dag.stage(0).deps, Vec::<usize>::new());
        assert_eq!(dag.stage(2).deps, vec![1]);
        assert_eq!(dag.roots(), vec![0]);
        assert_eq!(dag.total_tasks(), 3);
    }

    #[test]
    fn fan_out_in_shape() {
        let dag = WorkflowDag::fan_out_in("f", FunctionId(0), FunctionId(1), 8, FunctionId(2));
        assert_eq!(dag.stage(1).tasks, 8);
        assert_eq!(dag.dependents()[0], vec![1]);
        assert_eq!(dag.dependents()[1], vec![2]);
        assert_eq!(dag.total_tasks(), 10);
    }

    #[test]
    fn functions_deduplicated() {
        let dag = WorkflowDag::chain("c", vec![FunctionId(1), FunctionId(1), FunctionId(0)]);
        assert_eq!(dag.functions(), vec![FunctionId(0), FunctionId(1)]);
    }

    #[test]
    fn diamond_dag_valid() {
        let dag = WorkflowDag::new(
            "diamond",
            vec![
                Stage::new(FunctionId(0), 1, vec![]),
                Stage::new(FunctionId(1), 2, vec![0]),
                Stage::new(FunctionId(2), 3, vec![0]),
                Stage::new(FunctionId(3), 1, vec![1, 2]),
            ],
        );
        assert_eq!(dag.roots(), vec![0]);
        assert_eq!(dag.dependents()[0], vec![1, 2]);
        assert_eq!(dag.stage(3).deps, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "non-earlier")]
    fn forward_dependency_rejected() {
        let _ = WorkflowDag::new(
            "bad",
            vec![
                Stage::new(FunctionId(0), 1, vec![1]),
                Stage::new(FunctionId(1), 1, vec![]),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_workflow_rejected() {
        let _ = WorkflowDag::new("empty", vec![]);
    }
}
