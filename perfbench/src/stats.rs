//! Sample statistics shared by every workload: medians, the tail-percentile
//! rule, block medians, and the open-loop segment accounting of the `serve`
//! workload.

/// Percentiles the tail metric may report, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending). Infinite
/// samples sort last and are returned as they are.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Nearest rank of percentile `p` in `n` samples, `ceil(p/100 · n)`, with
/// the product rounded first so that e.g. 99.9 % of 10 000 is rank 9990.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 * 1e6).round() / 1e6).ceil() as usize
}

/// Sorts a sample ascending (infinities last).
pub fn sorted(sample: &[f64]) -> Vec<f64> {
    let mut s = sample.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of a sample (nearest rank).
pub fn median(sample: &[f64]) -> f64 {
    percentile(&sorted(sample), 50.0)
}

/// The highest percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// samples strictly beyond its rank, or the median when the sample is too
/// small for any of them.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n.saturating_sub(rank(p, n)) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// One line with a sample's median, upper percentiles and maximum.
pub fn ladder(name: &str, sample: &[f64]) -> String {
    let s = sorted(sample);
    let cells: Vec<String> =
        [50.0, 90.0, 95.0, 99.0, 99.9, 100.0].iter().map(|&p| format!("p{p} {:.3}", percentile(&s, p))).collect();
    format!("{name} (n={}): {}", s.len(), cells.join(", "))
}

/// One line with percentile `p` of each of `blocks` equal stretches of
/// `[0, span)`, in time order, to show how a run drifts.
pub fn block_line(name: &str, samples: &[(f64, f64)], span: f64, blocks: usize, p: f64) -> String {
    let blocks = blocks.max(1);
    let mut per_block = vec![Vec::new(); blocks];
    for &(t, v) in samples {
        per_block[block_of(t, span, blocks)].push(v);
    }
    let cells: Vec<String> = per_block.iter().map(|b| format!("{:.3}", percentile(&sorted(b), p))).collect();
    format!("{name} p{p} by block ({blocks} blocks): {}", cells.join(" "))
}

/// A timing sample summarised as median plus rule-chosen tail.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile [`Summary::tail`] is.
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
}

impl Summary {
    /// Summarises `sample` under the tail rule.
    pub fn of(sample: &[f64]) -> Self {
        let s = sorted(sample);
        let tail_pct = tail_percentile(s.len());
        Summary { n: s.len(), p50: percentile(&s, 50.0), tail_pct, tail: percentile(&s, tail_pct) }
    }

    /// Summarises `(time, value)` samples taken over `[0, span)` block by
    /// block: the span is cut into `blocks` equal stretches, and the
    /// stretches are summarised as by [`Summary::of_blocks`].
    pub fn blocked(samples: &[(f64, f64)], span: f64, blocks: usize) -> Self {
        let blocks = blocks.max(1);
        let mut per_block = vec![Vec::new(); blocks];
        for &(t, v) in samples {
            per_block[block_of(t, span, blocks)].push(v);
        }
        Self::of_blocks(&per_block)
    }

    /// Summarises a sample in consecutive chunks of `per_chunk` samples
    /// (the remainder joins the last chunk), as by [`Summary::of_blocks`].
    pub fn chunked(sample: &[f64], per_chunk: usize) -> Self {
        let chunks = (sample.len() / per_chunk.max(1)).max(1);
        let per_block: Vec<Vec<f64>> = (0..chunks)
            .map(|c| {
                let hi = if c + 1 == chunks { sample.len() } else { (c + 1) * per_chunk };
                sample[c * per_chunk..hi].to_vec()
            })
            .collect();
        Self::of_blocks(&per_block)
    }

    /// Each block gets its median and its tail at the percentile the
    /// smallest block supports under the tail rule; the summary is the
    /// median of each over blocks. A noisy stretch of a shared machine then
    /// moves a few blocks, not the result.
    fn of_blocks(per_block: &[Vec<f64>]) -> Self {
        let per_block: Vec<Vec<f64>> = per_block.iter().map(|b| sorted(b)).collect();
        let tail_pct = tail_percentile(per_block.iter().map(Vec::len).min().unwrap_or(0));
        let p50s: Vec<f64> = per_block.iter().map(|b| percentile(b, 50.0)).collect();
        let tails: Vec<f64> = per_block.iter().map(|b| percentile(b, tail_pct)).collect();
        Summary { n: per_block.iter().map(Vec::len).sum(), p50: median(&p50s), tail_pct, tail: median(&tails) }
    }
}

/// Which of `blocks` equal stretches of `[0, span)` time `t` falls in.
fn block_of(t: f64, span: f64, blocks: usize) -> usize {
    ((t / span) * blocks as f64).floor().clamp(0.0, (blocks - 1) as f64) as usize
}


/// How one open-loop segment ended.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// Its skeleton was decoded `latency_ms` after the segment's last frame
    /// was due (not after the server accepted it).
    Delivered { latency_ms: f64 },
    /// A frame of the segment was refused (queue full, session limit).
    Rejected,
    /// The session was evicted before the segment was served: its unserved
    /// segments are abandoned, never results.
    Evicted,
    /// Nothing arrived before the drain deadline.
    Lost,
}

/// Aggregate accounting of the segments due in a measured window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SegmentAccount {
    /// Segments due.
    pub due: usize,
    /// Segments delivered.
    pub delivered: usize,
    /// Segments rejected, evicted or lost.
    pub failed: usize,
    /// Segments late by more than `late_ms`, rejected, evicted or lost.
    pub missed: usize,
    /// Latency summary in which every failed segment counts as infinite.
    pub latency: Summary,
}

impl SegmentAccount {
    /// Accounts segment outcomes; a delivered segment later than `late_ms`
    /// is a miss but still a result. The latency summary is taken over the
    /// whole sample, so every failure reaches the tail.
    pub fn of(outcomes: &[Outcome], late_ms: f64) -> Self {
        let mut latencies = Vec::with_capacity(outcomes.len());
        let (mut delivered, mut missed) = (0, 0);
        for &o in outcomes {
            match o {
                Outcome::Delivered { latency_ms } => {
                    delivered += 1;
                    if latency_ms > late_ms {
                        missed += 1;
                    }
                    latencies.push(latency_ms);
                }
                Outcome::Rejected | Outcome::Evicted | Outcome::Lost => {
                    missed += 1;
                    latencies.push(f64::INFINITY);
                }
            }
        }
        SegmentAccount {
            due: outcomes.len(),
            delivered,
            failed: outcomes.len() - delivered,
            missed,
            latency: Summary::of(&latencies),
        }
    }

    /// Missed segments over segments due.
    pub fn miss_ratio(&self) -> f64 {
        if self.due == 0 {
            0.0
        } else {
            self.missed as f64 / self.due as f64
        }
    }

    /// Segments on time over segments due: `1 − miss_ratio`, never 0 while
    /// any segment makes its deadline.
    pub fn on_time_ratio(&self) -> f64 {
        1.0 - self.miss_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 74 samples: p99 and p95 leave fewer than ten beyond, p90 leaves 74 - 67 = 7, p75 leaves 74 - 56 = 18.
        assert_eq!(tail_percentile(74), 75.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(5), 50.0);
        for n in [40usize, 74, 100, 200, 999, 1000, 5000, 10_000] {
            let p = tail_percentile(n);
            assert!(n - rank(p, n) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn blocked_summary_ignores_one_noisy_block() {
        // Five blocks of 200 samples at 1.0, except one stretch at 9.0.
        let samples: Vec<(f64, f64)> =
            (0..1000).map(|i| ((i as f64 + 0.5) / 1000.0, if (400..600).contains(&i) { 9.0 } else { 1.0 })).collect();
        let s = Summary::blocked(&samples, 1.0, 5);
        assert_eq!(s.n, 1000);
        assert_eq!(s.tail_pct, 95.0, "200 per block supports p95, not p99");
        assert_eq!((s.p50, s.tail), (1.0, 1.0));
        assert_eq!(Summary::of(&samples.iter().map(|p| p.1).collect::<Vec<_>>()).tail, 9.0);
    }

    #[test]
    fn chunked_summary_folds_the_remainder_into_the_last_chunk() {
        // 70 samples in chunks of 20: three chunks, the last holding 30.
        let sample: Vec<f64> = (0..70).map(|i| if i < 20 { 3.0 } else if i < 40 { 2.0 } else { 1.0 }).collect();
        let s = Summary::chunked(&sample, 20);
        assert_eq!(s.n, 70);
        assert_eq!(s.p50, 2.0, "median of the chunk medians 3, 2 and 1");
        let one = Summary::chunked(&sample, 100);
        assert_eq!((one.n, one.p50, one.tail_pct), (70, 2.0, 75.0), "fewer samples than a chunk make one chunk");
    }

    #[test]
    fn latency_runs_from_the_due_time_not_from_acceptance() {
        // A segment due at t=0 that the server only accepted at t=40 ms and
        // answered at t=45 ms has waited 45 ms, not 5 ms.
        let (due_ms, accepted_ms, decoded_ms) = (0.0, 40.0, 45.0);
        let o = Outcome::Delivered { latency_ms: decoded_ms - due_ms };
        let acc = SegmentAccount::of(&[o], 50.0);
        assert_eq!(acc.latency.p50, 45.0);
        assert!(acc.latency.p50 > decoded_ms - accepted_ms);
        assert_eq!(acc.missed, 0);
        let late = SegmentAccount::of(&[Outcome::Delivered { latency_ms: 50.5 }], 50.0);
        assert_eq!(late.missed, 1, "more than one frame period late is a miss");
        assert_eq!(late.failed, 0, "but still a result");
    }

    #[test]
    fn evicted_segments_are_failures_never_results() {
        let mut outcomes = vec![Outcome::Delivered { latency_ms: 1.0 }; 200];
        outcomes.extend([Outcome::Evicted; 12]);
        outcomes.extend([Outcome::Rejected; 7]);
        outcomes.push(Outcome::Lost);
        let acc = SegmentAccount::of(&outcomes, 50.0);
        assert_eq!(acc.due, 220);
        assert_eq!(acc.delivered, 200);
        assert_eq!(acc.failed, 20);
        assert_eq!(acc.missed, 20);
        assert!((acc.miss_ratio() - 20.0 / 220.0).abs() < 1e-12);
        assert!((acc.on_time_ratio() - 200.0 / 220.0).abs() < 1e-12);
        // Failures are infinite latency: they own the tail.
        assert_eq!(acc.latency.tail_pct, 95.0);
        assert!(acc.latency.tail.is_infinite());
        assert_eq!(acc.latency.p50, 1.0);
    }

    #[test]
    fn a_few_failures_reach_the_whole_sample_tail() {
        // 3200 segments, 2% rejected: more than the 32 beyond p99, so the
        // tail is infinite and the on-time share drops by the same 2%.
        let mut outcomes = vec![Outcome::Delivered { latency_ms: 5.0 }; 3136];
        outcomes.extend([Outcome::Rejected; 64]);
        let acc = SegmentAccount::of(&outcomes, 50.0);
        assert_eq!(acc.latency.tail_pct, 99.0);
        assert!(acc.latency.tail.is_infinite());
        assert_eq!(acc.latency.p50, 5.0);
        assert!((acc.on_time_ratio() - 0.98).abs() < 1e-12);
    }
}
