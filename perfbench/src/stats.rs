//! Order statistics over samples.

use std::collections::BTreeMap;

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; `0.0`
/// for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Interquartile mean: the mean of the middle half of the samples. A
/// host that stalls the benchmark for a while costs it the lowest
/// quarter of samples, not the result, and when the host's speed drifts
/// between levels the result moves in proportion to the time spent at
/// each, where a median jumps from one level to the other.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = sorted.len() / 4;
    let middle = &sorted[q..sorted.len() - q];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Completions in each whole one-second window of a timed phase of
/// `seconds`, from completion times in nanoseconds since it started.
pub fn window_counts(completions_ns: &[u64], seconds: f64) -> Vec<f64> {
    let mut counts = vec![0.0; (seconds.floor() as usize).max(1)];
    for &ns in completions_ns {
        if let Some(c) = counts.get_mut((ns / 1_000_000_000) as usize) {
            *c += 1.0;
        }
    }
    counts
}

/// Geometric mean, over operation classes (a mix query, the writes, a
/// preset), of each class's median. A mix's overall median sits on the
/// boundary between two classes and jumps from one to the other as the
/// host's speed drifts; each class's own median moves smoothly.
pub fn class_median_gmean<K: Ord>(samples: impl IntoIterator<Item = (K, f64)>) -> f64 {
    let mut classes: BTreeMap<K, Vec<f64>> = BTreeMap::new();
    for (k, v) in samples {
        classes.entry(k).or_default().push(v);
    }
    if classes.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = classes.values().map(|v| median(v).max(1e-9).ln()).sum();
    (log_sum / classes.len() as f64).exp()
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        // A stalled quarter and a spiking quarter do not move it.
        assert_eq!(interquartile_mean(&[1.0, 10.0, 10.0, 100.0]), 10.0);
        assert_eq!(interquartile_mean(&[4.0, 2.0, 3.0]), 3.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn class_median_gmean_weights_every_class_once() {
        // Class 0's median is 2, class 1's is 8: the result is 4, however
        // many samples each class has.
        let samples = [(0, 1.0), (0, 2.0), (0, 3.0), (1, 8.0)];
        assert!((class_median_gmean(samples) - 4.0).abs() < 1e-9);
    }
}
