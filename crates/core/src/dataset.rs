//! Dataset assembly: capture sessions → training/evaluation sequences.
//!
//! The network consumes *segments* (`st` consecutive radar-cube frames,
//! paper §IV) and the LSTM consumes *sequences* of consecutive segments.
//! A [`SegmentSequence`] is one such sequence with a 21-joint label per
//! segment (the joints at the segment's last frame).

use crate::cube::CubeBuilder;
use crate::error::PipelineError;
use crate::model::OUTPUT_DIM;
use mmhand_nn::Tensor;
use mmhand_radar::CaptureSession;
use rand::seq::SliceRandom;
use rand::Rng;

/// A sequence of consecutive segments from one capture session.
#[derive(Clone, Debug)]
pub struct SegmentSequence {
    /// One `(st·V, D, A)` tensor per sequence step.
    pub segments: Vec<Tensor>,
    /// Flat 63-float joint label per step (metres, radar frame).
    pub labels: Vec<Vec<f32>>,
    /// User the data came from (1-based; 0 = unknown).
    pub user_id: usize,
}

impl SegmentSequence {
    /// Sequence length in segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// `true` when the sequence has no steps.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

/// A batch of equally long sequences, stacked along the batch axis.
#[derive(Clone, Debug)]
pub struct Batch {
    /// `(N, st·V, D, A)` tensor per step.
    pub segments: Vec<Tensor>,
    /// `(N, 63)` label tensor per step.
    pub labels: Vec<Tensor>,
}

impl Batch {
    /// Batch size `N`.
    pub fn batch_size(&self) -> usize {
        self.labels.first().map_or(0, |l| l.shape()[0])
    }
}

/// Converts one capture session into sequences of `seq_len` segments.
///
/// Frames are grouped into non-overlapping segments of the builder's
/// `frames_per_segment`; leftover frames/segments are dropped. The label of
/// a segment is the ground truth at its last frame.
///
/// # Errors
///
/// Returns [`PipelineError::EmptyInput`] for a zero sequence length and
/// propagates frame-geometry violations from the cube builder.
pub fn try_session_to_sequences(
    builder: &CubeBuilder,
    session: &CaptureSession,
    seq_len: usize,
    user_id: usize,
) -> Result<Vec<SegmentSequence>, PipelineError> {
    if seq_len == 0 {
        return Err(PipelineError::EmptyInput { what: "sequence length" });
    }
    let st = builder.config().frames_per_segment;
    let n_segments = session.len() / st;
    // Segments are independent of one another, so they fan out across the
    // pool, one task per segment. The builder keeps no state between calls
    // (its filter is shared read-only and its scratch is per thread), so
    // every task uses the one `&CubeBuilder`. `par_map` returns results in
    // input order, so the dataset is identical to the serial construction.
    let indices: Vec<usize> = (0..n_segments).collect();
    let per_segment = mmhand_parallel::par_map(&indices, |&s| {
        let cube_frames = (0..st)
            .map(|k| builder.try_process_frame(&session.frames[s * st + k]))
            .collect::<Result<Vec<_>, _>>()?;
        let segment = builder.try_segment_tensor(&cube_frames)?;
        let truth = &session.truth[s * st + st - 1];
        let label = truth.iter().flat_map(|v| v.to_array()).collect::<Vec<f32>>();
        Ok::<_, PipelineError>((segment, label))
    });
    let mut segments = Vec::with_capacity(n_segments);
    let mut labels = Vec::with_capacity(n_segments);
    for r in per_segment {
        let (segment, label) = r?;
        segments.push(segment);
        labels.push(label);
    }

    let mut out = Vec::new();
    let mut i = 0;
    while i + seq_len <= segments.len() {
        out.push(SegmentSequence {
            segments: segments[i..i + seq_len].to_vec(),
            labels: labels[i..i + seq_len].to_vec(),
            user_id,
        });
        i += seq_len;
    }
    Ok(out)
}

/// Stacks sequences (all of the same length) into shuffled batches.
///
/// The final batch may be smaller. Returns an empty vector for an empty
/// dataset.
///
/// # Panics
///
/// Panics if sequences have differing lengths;
/// [`Trainer::try_train`](crate::Trainer::try_train) checks this up front
/// and returns [`PipelineError::MismatchedSequenceLength`] instead.
pub fn make_batches<R: Rng + ?Sized>(
    sequences: &[SegmentSequence],
    batch_size: usize,
    rng: &mut R,
) -> Vec<Batch> {
    if sequences.is_empty() {
        return Vec::new();
    }
    let seq_len = sequences[0].len();
    assert!(
        sequences.iter().all(|s| s.len() == seq_len),
        "all sequences must share a length"
    );
    let mut order: Vec<usize> = (0..sequences.len()).collect();
    order.shuffle(rng);

    let mut batches = Vec::new();
    for chunk in order.chunks(batch_size.max(1)) {
        let n = chunk.len();
        let seg_shape = sequences[chunk[0]].segments[0].shape().to_vec();
        let mut segments = Vec::with_capacity(seq_len);
        let mut labels = Vec::with_capacity(seq_len);
        for t in 0..seq_len {
            let mut seg_data = Vec::with_capacity(n * seg_shape.iter().product::<usize>());
            let mut lab_data = Vec::with_capacity(n * OUTPUT_DIM);
            for &si in chunk {
                seg_data.extend_from_slice(sequences[si].segments[t].data());
                lab_data.extend_from_slice(&sequences[si].labels[t]);
            }
            let mut shape = vec![n];
            shape.extend_from_slice(&seg_shape);
            segments.push(Tensor::from_vec(&shape, seg_data));
            labels.push(Tensor::from_vec(&[n, OUTPUT_DIM], lab_data));
        }
        batches.push(Batch { segments, labels });
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::CubeConfig;
    use mmhand_hand::gesture::Gesture;
    use mmhand_hand::trajectory::GestureTrack;
    use mmhand_hand::user::UserProfile;
    use mmhand_math::rng::stream_rng;
    use mmhand_math::Vec3;
    use mmhand_radar::capture::{record_session, CaptureConfig};

    fn quick_session(frames: usize) -> CaptureSession {
        let user = UserProfile::generate(1, 77);
        let track = GestureTrack::from_gestures(
            &[Gesture::OpenPalm, Gesture::Fist],
            Vec3::new(0.0, 0.3, 0.0),
            0.3,
            0.3,
        );
        record_session(&user, &track, frames, &CaptureConfig::default())
    }

    #[test]
    fn session_converts_to_sequences() {
        let builder = CubeBuilder::try_new(CubeConfig::default()).unwrap();
        let session = quick_session(26); // 6 segments of 4, 2 frames dropped
        let seqs = try_session_to_sequences(&builder, &session, 3, 1).unwrap();
        assert_eq!(seqs.len(), 2);
        for s in &seqs {
            assert_eq!(s.len(), 3);
            assert_eq!(s.user_id, 1);
            for (seg, lab) in s.segments.iter().zip(&s.labels) {
                assert_eq!(seg.shape(), &[32, 16, 16]);
                assert_eq!(lab.len(), OUTPUT_DIM);
                assert!(lab.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn labels_match_segment_end_frames() {
        let builder = CubeBuilder::try_new(CubeConfig::default()).unwrap();
        let session = quick_session(8);
        let seqs = try_session_to_sequences(&builder, &session, 2, 1).unwrap();
        assert_eq!(seqs.len(), 1);
        // Segment 0 covers frames 0..4 → label is truth[3].
        let expected: Vec<f32> =
            session.truth[3].iter().flat_map(|v| v.to_array()).collect();
        assert_eq!(seqs[0].labels[0], expected);
    }

    #[test]
    fn batches_stack_and_shuffle() {
        let builder = CubeBuilder::try_new(CubeConfig::default()).unwrap();
        let session = quick_session(40); // 10 segments → 5 sequences of 2
        let seqs = try_session_to_sequences(&builder, &session, 2, 1).unwrap();
        assert_eq!(seqs.len(), 5);
        let mut rng = stream_rng(1, "batch");
        let batches = make_batches(&seqs, 2, &mut rng);
        assert_eq!(batches.len(), 3); // 2 + 2 + 1
        assert_eq!(batches[0].batch_size(), 2);
        assert_eq!(batches[2].batch_size(), 1);
        assert_eq!(batches[0].segments[0].shape(), &[2, 32, 16, 16]);
        assert_eq!(batches[0].labels[1].shape(), &[2, OUTPUT_DIM]);
    }

    #[test]
    fn empty_dataset_yields_no_batches() {
        let mut rng = stream_rng(2, "b");
        assert!(make_batches(&[], 4, &mut rng).is_empty());
    }

    #[test]
    fn try_variants_return_typed_errors() {
        let builder = CubeBuilder::try_new(CubeConfig::default()).unwrap();
        let session = quick_session(8);
        assert!(matches!(
            try_session_to_sequences(&builder, &session, 0, 1),
            Err(PipelineError::EmptyInput { what: "sequence length" })
        ));
        let seqs = try_session_to_sequences(&builder, &session, 2, 1)
            .expect("valid session converts");
        assert_eq!(seqs.len(), 1);
    }

    #[test]
    fn parallel_segment_generation_matches_serial_bitwise() {
        // The fan-out must be a pure reordering of work: every segment
        // tensor and label must be bitwise identical to the straightforward
        // serial construction on one shared builder.
        let builder = CubeBuilder::try_new(CubeConfig::default()).unwrap();
        let session = quick_session(26);
        let seqs = try_session_to_sequences(&builder, &session, 3, 1).unwrap();

        let st = builder.config().frames_per_segment;
        let n_segments = session.len() / st;
        let mut segments = Vec::new();
        let mut labels: Vec<Vec<f32>> = Vec::new();
        for s in 0..n_segments {
            let cube_frames: Vec<_> = (0..st)
                .map(|k| builder.try_process_frame(&session.frames[s * st + k]).unwrap())
                .collect();
            segments.push(builder.try_segment_tensor(&cube_frames).unwrap());
            let truth = &session.truth[s * st + st - 1];
            labels.push(truth.iter().flat_map(|v| v.to_array()).collect());
        }

        let mut flat = seqs.iter().flat_map(|q| q.segments.iter().zip(&q.labels));
        for (serial_seg, serial_lab) in segments.iter().zip(&labels).take(6) {
            let (par_seg, par_lab) = flat.next().expect("same segment count");
            assert_eq!(par_seg.shape(), serial_seg.shape());
            for (a, b) in par_seg.data().iter().zip(serial_seg.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in par_lab.iter().zip(serial_lab) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn too_short_session_yields_nothing() {
        let builder = CubeBuilder::try_new(CubeConfig::default()).unwrap();
        let session = quick_session(3); // under one segment
        let seqs = try_session_to_sequences(&builder, &session, 1, 1).unwrap();
        assert!(seqs.is_empty());
    }
}
