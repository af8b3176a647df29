//! WordCount (HiBench micro benchmark; paper Fig. 4b).
//!
//! Random dictionary text is tokenized and counted. The map-side combiner
//! collapses each task's output to at most one entry per dictionary word,
//! so the intermediate data is bounded (~1000 entries) no matter how many
//! shards are processed: the serial portion is dominated by the constant
//! reducer setup and the paper measures `IN(n) ≈ 1` — a benign It/IIt
//! scaling type.

use std::sync::Arc;

use ipso_mapreduce::{
    InputSplit, JobCostModel, JobSpec, Mapper, OutputScaling, Reducer, ScalingSweep,
};
use ipso_sim::SimRng;

use crate::datagen::random_lines;

/// Nominal HDFS shard per map task (the paper's maximal block size).
pub const SHARD_BYTES: u64 = 128 * 1024 * 1024;
/// Lines of sample text actually executed per task.
const SAMPLE_LINES: usize = 250;
/// Words per generated line.
const WORDS_PER_LINE: usize = 8;

/// Tokenizing mapper with a summing combiner.
///
/// Keys are interned `Arc<str>` handles into the generated dictionary:
/// emitting a token hashes it into the dictionary set and clones a
/// pointer instead of allocating a fresh `String` per token, and every
/// downstream clone of the key (grouping, combining, merging) stays
/// allocation-free. Tokens outside the dictionary — impossible for
/// [`random_lines`] text, but allowed by the API — fall back to a
/// one-off allocation.
#[derive(Debug, Clone)]
pub struct WordCountMapper {
    /// The dictionary, as a hash set for O(1) interning.
    dict: std::collections::HashSet<Arc<str>>,
}

impl WordCountMapper {
    /// Builds the mapper, interning the generated dictionary.
    pub fn new() -> WordCountMapper {
        let dict = crate::datagen::unix_dictionary()
            .iter()
            .map(|word| Arc::from(word.as_str()))
            .collect();
        WordCountMapper { dict }
    }

    /// The shared handle for `word`: a clone of the dictionary entry, or
    /// a fresh allocation for out-of-dictionary tokens.
    fn intern(&self, word: &str) -> Arc<str> {
        match self.dict.get(word) {
            Some(entry) => Arc::clone(entry),
            None => Arc::from(word),
        }
    }
}

impl Default for WordCountMapper {
    fn default() -> WordCountMapper {
        WordCountMapper::new()
    }
}

impl Mapper for WordCountMapper {
    type Input = String;
    type Key = Arc<str>;
    type Value = u64;

    fn map(&self, line: &String, emit: &mut dyn FnMut(Arc<str>, u64)) {
        for word in line.split_whitespace() {
            emit(self.intern(word), 1);
        }
    }

    fn combine(&self, _key: &Arc<str>, values: &mut Vec<u64>) {
        let sum = values.iter().sum();
        values.clear();
        values.push(sum);
    }

    fn output_scaling(&self) -> OutputScaling {
        OutputScaling::Saturating
    }
}

/// Count-summing reducer.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordCountReducer;

impl Reducer for WordCountReducer {
    type Key = Arc<str>;
    type Value = u64;
    type Output = (String, u64);

    fn reduce(&self, key: &Arc<str>, values: &[u64], emit: &mut dyn FnMut((String, u64))) {
        emit((key.to_string(), values.iter().sum()));
    }
}

/// Cost calibration: WordCount is CPU-bound on the map side (JVM
/// tokenization of a 128 MB block takes ~13 s, matching 2019-era Hadoop)
/// with negligible reduce-side data.
pub fn cost_model() -> JobCostModel {
    JobCostModel {
        map_rate: 10.0e6,
        shuffle_rate: 200.0e6,
        merge_rate: 200.0e6,
        reduce_rate: 200.0e6,
        seq_init: 2.0,
        serial_setup: 1.0,
    }
}

/// The job spec at scale-out degree `n`.
pub fn job_spec(n: u32) -> JobSpec {
    let mut spec = JobSpec::emr("wordcount", n);
    spec.cost = cost_model();
    spec
}

/// The `n` fixed-time splits: one 128 MB shard of dictionary text per
/// task, sampled down for execution.
pub fn make_splits(n: u32, seed: u64) -> Vec<InputSplit<String>> {
    (0..n)
        .map(|task| {
            let mut rng = SimRng::seed_from(seed ^ (u64::from(task) << 20) ^ 0x57c0);
            let lines = random_lines(SAMPLE_LINES, WORDS_PER_LINE, &mut rng);
            let bytes: u64 = lines.iter().map(|l| l.len() as u64 + 1).sum();
            InputSplit::new(lines, bytes, SHARD_BYTES)
        })
        .collect()
}

/// Runs the full paper sweep for WordCount.
pub fn sweep(ns: &[u32]) -> ScalingSweep {
    ScalingSweep::run(
        ns,
        &WordCountMapper::new(),
        &WordCountReducer,
        job_spec,
        |n| make_splits(n, 1),
        |n| make_splits(n, 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_exact() {
        use ipso_mapreduce::run_sequential;
        let splits = make_splits(2, 7);
        let expected: u64 = splits.iter().map(|s| s.records.len() as u64 * 8).sum();
        let run = run_sequential(
            &job_spec(2),
            &WordCountMapper::new(),
            &WordCountReducer,
            &splits,
        );
        let total: u64 = run.output.iter().map(|(_, c)| c).sum();
        assert_eq!(total, expected);
        // Every key is a dictionary word.
        let dict: std::collections::HashSet<&String> =
            crate::datagen::unix_dictionary().iter().collect();
        assert!(run.output.iter().all(|(w, _)| dict.contains(w)));
    }

    #[test]
    fn dictionary_tokens_are_interned() {
        let mapper = WordCountMapper::new();
        let word = crate::datagen::unix_dictionary()[0].clone();
        let line = format!("{word} {word}");
        let mut keys = Vec::new();
        mapper.map(&line, &mut |k, _| keys.push(k));
        assert_eq!(keys.len(), 2);
        // Same handle, not merely the same text.
        assert!(Arc::ptr_eq(&keys[0], &keys[1]));
        assert_eq!(&*keys[0], word.as_str());
        // Out-of-dictionary tokens still come through, just unshared.
        let mut fallback = Vec::new();
        mapper.map(&"n0t-a-w0rd".to_string(), &mut |k, _| fallback.push(k));
        assert_eq!(&*fallback[0], "n0t-a-w0rd");
    }

    #[test]
    fn intermediate_data_saturates() {
        use ipso_mapreduce::run_scale_out;
        let mapper = WordCountMapper::new();
        let r4 = run_scale_out(&job_spec(4), &mapper, &WordCountReducer, &make_splits(4, 1));
        let r8 = run_scale_out(&job_spec(8), &mapper, &WordCountReducer, &make_splits(8, 1));
        // Reduce input grows at most linearly in tasks with a tiny
        // per-task bound (1000 dictionary entries).
        assert!(r8.reduce_input_bytes < 2 * r4.reduce_input_bytes + 1024);
        assert!(r8.reduce_input_bytes < 8 * 1000 * 20);
    }

    #[test]
    fn speedup_is_near_gustafson() {
        let sweep = sweep(&[1, 2, 4, 8, 16, 32]);
        let curve = sweep.speedup_curve().unwrap();
        let s32 = curve.points().last().unwrap().speedup;
        let eta = sweep.measurements()[0].seq_parallel_work
            / (sweep.measurements()[0].seq_parallel_work + sweep.measurements()[0].seq_serial_work);
        let gustafson = eta * 32.0 + (1.0 - eta);
        // Close to Gustafson's prediction — the benign case. The gap
        // (straggler E[max] and job-setup excess) matches the slight
        // shortfall visible in the paper's Fig. 4b data points.
        assert!(
            (s32 - gustafson).abs() / gustafson < 0.3,
            "S(32) = {s32}, Gustafson = {gustafson}"
        );
        // And growth stays near-linear.
        let s16 = curve.points()[4].speedup;
        assert!(s32 / s16 > 1.6, "S(32)/S(16) = {}", s32 / s16);
    }

    #[test]
    fn internal_scaling_is_flat() {
        use ipso::estimate::{estimate_factors, FactorShape};
        let sweep = sweep(&[1, 2, 4, 8, 12, 16]);
        let est = estimate_factors(&sweep.measurements()).unwrap();
        // IN(n) ≈ 1 as in the paper (constant, or linear with a tiny
        // slope relative to the intercept).
        match est.internal.shape {
            FactorShape::Constant => {}
            FactorShape::Linear => {
                let at16 = est.internal.factor.eval(16.0) / est.internal.factor.eval(1.0);
                assert!(at16 < 1.6, "IN(16) = {at16}");
            }
            other => panic!("unexpected IN shape {other:?}"),
        }
    }
}
