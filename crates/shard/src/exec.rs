//! Chained execution of the sharded stages.
//!
//! A [`ShardedExecutor`] owns one bound `fpsa_sim::Executor` per fabric and
//! runs a sample by piping each stage's output buffer into the next stage's
//! input. Because a stage boundary carries exactly the activation buffer the
//! unsharded executor holds at the cut node (see the crate docs), chaining
//! is bit-identical to the single-fabric run — there is no arithmetic at the
//! boundary in the float domains, and the integer boundary round-trip is the
//! identity on in-range codes.

use fpsa_sim::exec::{ExecArena, ExecError, Executor};

/// Pre-bound stage executors, chained in pipeline order.
#[derive(Debug)]
pub struct ShardedExecutor {
    stages: Vec<Executor>,
}

impl ShardedExecutor {
    /// Chain bound stage executors (produced by
    /// `fpsa_shard::ShardedModel::executor`).
    pub fn new(stages: Vec<Executor>) -> Self {
        assert!(!stages.is_empty(), "a sharded pipeline needs >= 1 stage");
        ShardedExecutor { stages }
    }

    /// Number of chained stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The element count the first stage's input node expects.
    pub fn input_len(&self) -> Option<usize> {
        self.stages[0].input_len()
    }

    /// The bound stage executors, in pipeline order.
    pub fn stages(&self) -> &[Executor] {
        &self.stages
    }

    /// Consume the chain, yielding the stage executors — the form
    /// `fpsa_serve::ShardedEngine::start` takes (each stage becomes a worker
    /// pool of the pipeline-parallel engine).
    pub fn into_stages(self) -> Vec<Executor> {
        self.stages
    }

    /// Reusable per-stage scratch for [`ShardedExecutor::run_into`].
    pub fn arenas(&self) -> Vec<ExecArena> {
        self.stages.iter().map(|_| ExecArena::new()).collect()
    }

    /// Execute one sample through every stage, returning the final logits.
    ///
    /// # Errors
    ///
    /// The first stage's input-length mismatch or any stage's execution
    /// error.
    pub fn run(&self, input: &[f32]) -> Result<Vec<f32>, ExecError> {
        let mut value = self.stages[0].run(input)?;
        for stage in &self.stages[1..] {
            value = stage.run(&value)?;
        }
        Ok(value)
    }

    /// Execute one sample reusing per-stage arenas (the allocation-free hot
    /// path; bit-identical to [`ShardedExecutor::run`]).
    ///
    /// # Errors
    ///
    /// Mirrors [`ShardedExecutor::run`]. `out` is cleared and refilled.
    ///
    /// # Panics
    ///
    /// Panics if `arenas` does not have one arena per stage (use
    /// [`ShardedExecutor::arenas`]).
    pub fn run_into(
        &self,
        input: &[f32],
        arenas: &mut [ExecArena],
        out: &mut Vec<f32>,
    ) -> Result<(), ExecError> {
        assert_eq!(arenas.len(), self.stages.len(), "one arena per stage");
        let mut value = input.to_vec();
        for (stage, arena) in self.stages.iter().zip(arenas.iter_mut()) {
            out.clear();
            stage.run_into(&value, arena, out)?;
            std::mem::swap(&mut value, out);
        }
        std::mem::swap(&mut value, out);
        Ok(())
    }

    /// Execute a batch of samples, preserving order.
    ///
    /// # Errors
    ///
    /// The first per-sample error, if any.
    pub fn run_batch(&self, inputs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, ExecError> {
        inputs.iter().map(|x| self.run(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{FabricBudget, ShardCompiler};
    use fpsa_nn::params::mlp_graph;
    use fpsa_nn::GraphParameters;
    use fpsa_sim::Precision;

    fn sample(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| ((seed + i as u64) % 13) as f32 * 0.07)
            .collect()
    }

    #[test]
    fn run_into_matches_run_bit_for_bit() {
        let graph = mlp_graph("arena", &[48, 32, 16, 4]);
        let params = GraphParameters::seeded(&graph, 9);
        let sharded = ShardCompiler::fpsa(FabricBudget::with_pes(1))
            .compile_into_stages(&graph, 3)
            .unwrap();
        let exec = sharded.executor(&params, &Precision::Float).unwrap();
        assert_eq!(exec.stage_count(), 3);
        assert_eq!(exec.input_len(), Some(48));
        let mut arenas = exec.arenas();
        let mut out = Vec::new();
        for seed in 0..4 {
            let x = sample(48, seed);
            let want = exec.run(&x).unwrap();
            exec.run_into(&x, &mut arenas, &mut out).unwrap();
            assert_eq!(out, want);
        }
    }

    #[test]
    fn batch_execution_preserves_order() {
        let graph = mlp_graph("batch", &[32, 24, 4]);
        let params = GraphParameters::seeded(&graph, 5);
        let sharded = ShardCompiler::fpsa(FabricBudget::with_pes(1))
            .compile_into_stages(&graph, 2)
            .unwrap();
        let exec = sharded.executor(&params, &Precision::Float).unwrap();
        let inputs: Vec<Vec<f32>> = (0..5).map(|i| sample(32, i)).collect();
        let batch = exec.run_batch(&inputs).unwrap();
        for (x, got) in inputs.iter().zip(&batch) {
            assert_eq!(got, &exec.run(x).unwrap());
        }
    }
}
