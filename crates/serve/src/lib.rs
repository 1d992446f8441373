//! # mmhand-serve
//!
//! A session-oriented streaming inference service over the mmHand
//! pipeline: concurrent clients stream raw radar frames, the engine
//! micro-batches their cube tensors into shared forward passes, maintains
//! per-session LSTM state, and returns per-segment skeleton + mesh
//! results — all behind the workspace's fallible `try_*` API, so malformed
//! input and overload surface as typed [`ServeError`]s, never panics.
//!
//! The execution model is synchronous and pull-based: the caller (the
//! `mmhand-serve` binary, a test harness, an embedding) owns the loop and
//! calls [`ServeEngine::step`]; concurrency lives exclusively inside
//! [`mmhand_parallel`], keeping results deterministic at any thread count
//! and bitwise identical to a dedicated single-session pipeline.
//!
//! ```no_run
//! # fn doc(model: mmhand_core::TrainedModel,
//! #        frames: Vec<mmhand_radar::RawFrame>) -> Result<(), Box<dyn std::error::Error>> {
//! use mmhand_core::{CubeConfig, MmHandPipeline};
//! use mmhand_serve::{InferenceProfile, MeshPolicy, ServeConfig, ServeEngine};
//!
//! let pipeline = MmHandPipeline::builder_for(model)
//!     .cube_config(CubeConfig::default())
//!     .build()?;
//! let mut engine = ServeEngine::new(
//!     pipeline,
//!     ServeConfig::new()
//!         .max_sessions(8)
//!         .queue_capacity(32)
//!         .profile(
//!             InferenceProfile::from_env()
//!                 .mesh_policy(MeshPolicy::SkipWhenBacklogged { segments: 2 }),
//!         ),
//! )?;
//! let sid = engine.open_session()?;
//! for frame in frames {
//!     engine.push_frame(sid, frame)?;
//!     engine.step()?;
//!     for result in engine.take_results(sid)? {
//!         println!("segment {}: wrist at {:?}", result.segment_index, &result.skeleton[..3]);
//!     }
//! }
//! # Ok(())
//! # }
//! ```

// The serving surface answers malformed input with a typed `ServeError`,
// never a panic. The source rules in `tests/src/rules.rs` ban the assertion
// macros here too; `debug_assert!` stays legal.
#![deny(clippy::expect_used, clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod config;
pub mod engine;
pub mod error;
pub mod net;
pub mod session;
pub mod shard;
pub mod wire;

pub use config::{InferenceProfile, MeshPolicy, ServeConfig};
pub use engine::{ServeEngine, StepReport};
pub use error::ServeError;
// Re-exported so embedders can assemble an `InferenceProfile` without
// depending on the kernel/core crates directly.
pub use mmhand_core::Precision;
pub use mmhand_kernels::BackendChoice;
pub use net::{NetReport, ServeServer};
pub use session::{FrameResult, SessionStats};
pub use shard::{ShardStepReport, ShardedServe, MAX_SHARDS};
pub use wire::{Decoder, RejectCode, WireError, WireMsg};
