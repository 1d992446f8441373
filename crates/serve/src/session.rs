//! Per-session state: the bounded ingress queue, the streaming LSTM state,
//! and the bounded result buffer.

use mmhand_core::mesh::ReconstructedHand;
use mmhand_core::CubeFrame;
use mmhand_nn::Tensor;
use mmhand_radar::RawFrame;
use std::collections::VecDeque;

/// One per-segment inference result delivered to a session's client.
#[derive(Debug)]
pub struct FrameResult {
    /// The session the result belongs to.
    pub session: u64,
    /// Running segment index within the session's stream (0-based).
    pub segment_index: u64,
    /// Flat 63-float skeleton (metres, radar frame).
    pub skeleton: Vec<f32>,
    /// Reconstructed mesh, unless the mesh policy skipped it.
    pub hand: Option<ReconstructedHand>,
}

/// Lifetime accounting for one session, returned by
/// [`ServeEngine::close_session`](crate::ServeEngine::close_session).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Frames accepted into the queue.
    pub frames_in: u64,
    /// Segments inferred.
    pub segments_out: u64,
    /// Segments whose mesh was skipped by the mesh policy.
    pub meshes_skipped: u64,
}

/// Internal per-session state. Owned by the engine; clients only see ids.
///
/// The ingress queue has two parts: the validated raw frames pushed since
/// the last step, and the cube slices that earlier steps built from earlier
/// pushes. `queue_capacity` bounds the two together.
pub(crate) struct Session {
    pub(crate) id: u64,
    /// Validated raw frames pushed since the last step, oldest first.
    pub(crate) pending: Vec<RawFrame>,
    /// Cube slices of earlier pushes, oldest first, not yet inferred.
    pub(crate) cubes: VecDeque<CubeFrame>,
    /// Bounded buffer of results not yet taken by the client.
    pub(crate) results: VecDeque<FrameResult>,
    /// Streaming LSTM hidden state, shape `(1, hidden)`.
    pub(crate) h: Tensor,
    /// Streaming LSTM cell state, shape `(1, hidden)`.
    pub(crate) c: Tensor,
    /// Consecutive steps without a full segment queued.
    pub(crate) idle_steps: usize,
    /// Next segment index to assign.
    pub(crate) segment_index: u64,
    pub(crate) stats: SessionStats,
}

impl Session {
    pub(crate) fn new(id: u64, hidden: usize) -> Self {
        Session {
            id,
            pending: Vec::new(),
            cubes: VecDeque::new(),
            results: VecDeque::new(),
            h: Tensor::zeros(&[1, hidden]),
            c: Tensor::zeros(&[1, hidden]),
            idle_steps: 0,
            segment_index: 0,
            stats: SessionStats::default(),
        }
    }

    /// Frames in the ingress queue: pending plus built.
    pub(crate) fn queued(&self) -> usize {
        self.pending.len() + self.cubes.len()
    }

    /// Whether the session can be scheduled this step: a whole segment of
    /// cubes is built and the result buffer has room.
    pub(crate) fn ready(&self, frames_per_segment: usize, result_capacity: usize) -> bool {
        self.cubes.len() >= frames_per_segment && self.results.len() < result_capacity
    }
}
